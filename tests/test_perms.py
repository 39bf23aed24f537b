import pytest
from hypothesis import given, strategies as st

from halinkit.perms import Permutation


def random_perm(draw, n):
    images = draw(st.permutations(list(range(n))))
    return Permutation(images)


perm_strategy = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.permutations(list(range(n))).map(Permutation))


def test_identity():
    p = Permutation.identity(5)
    assert p.is_identity()
    assert p.num_moved() == 0
    assert [p(i) for i in range(5)] == list(range(5))


def test_not_a_permutation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 2])


@pytest.mark.parametrize("images", [
    [True, False], [False, True], [0, True],
    [1.0, 0], [0.0], [0, 1, 2.0],
    [None, 0], [None],
])
def test_non_int_images_rejected(images):
    with pytest.raises(ValueError):
        Permutation(images)


def test_composition_is_right_to_left():
    # (a * b)(x) = a(b(x)): b first
    a = Permutation([1, 2, 0])   # 0->1->2->0
    b = Permutation([0, 2, 1])   # swap 1,2
    ab = a * b
    assert ab(1) == a(b(1)) == a(2) == 0
    assert ab.images == tuple(a(b(x)) for x in range(3))


def test_product_small_degrees():
    # degree <= 1 has only the identity; degree 2 is the first real gather
    empty, one = Permutation([]), Permutation([0])
    assert (empty * empty).images == ()
    assert (one * one).images == (0,)
    swap, ident = Permutation([1, 0]), Permutation.identity(2)
    assert (swap * swap).images == (0, 1)
    assert (swap * ident).images == (ident * swap).images == (1, 0)
    for p in (empty, one, swap):
        assert type(p * p) is Permutation and type((p * p).images) is tuple
        assert p.gather()(p.images) == (p * p).images
    with pytest.raises(ValueError):
        one * swap


@given(st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.tuples(st.permutations(list(range(n))),
                        st.permutations(list(range(n))))))
def test_product_is_pointwise_composition(pair):
    a, b = (Permutation(x) for x in pair)
    ab = a * b
    assert ab.images == tuple(a(b(x)) for x in range(a.degree))
    assert ab == Permutation(ab.images)  # a bijection, validated


def test_from_cycles():
    p = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    assert p.images == (1, 2, 3, 4, 0)
    q = Permutation.from_cycles(5, [(1, 4), (2, 3)])
    assert q.images == (0, 4, 3, 2, 1)
    assert Permutation.from_cycles(3, iter([[2], (), (0, 1)])).images == (1, 0, 2)


@pytest.mark.parametrize("cycles", [
    [(0, -3)],                   # a negative point, once read as the identity
    [(0, 1, 2), (2, 1, 0)],      # overlapping cycles, once (2, 0, 1)
    [(0, 1), (0, 1)],            # a repeated cycle, once a transposition
    [(0, 1, 0)],                 # a point twice in one cycle
    [(0, 5)],                    # past n - 1, once IndexError
    [(0.0, 1)],                  # a float point, once TypeError
    [(True, 2)],                 # a bool point
    [("0", 1)],                  # a string point
])
def test_from_cycles_rejects_malformed_cycles(cycles):
    with pytest.raises(ValueError, match="not disjoint cycles"):
        Permutation.from_cycles(3, cycles)


def test_pow():
    rot = Permutation([1, 2, 3, 4, 0])
    assert (rot ** 5).is_identity()
    assert rot ** -1 == rot.inverse()
    assert (rot ** 3) == rot * rot * rot


def test_cycle_string():
    assert Permutation([1, 0, 2]).cycle_string() == "(0 1)"
    assert Permutation.identity(4).cycle_string() == "()"


@given(perm_strategy)
def test_inverse_cancels(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(perm_strategy)
def test_support_matches_moved_count(p):
    assert len(p.support()) == p.num_moved()
    assert all(p(x) != x for x in p.support())
    assert p.is_identity() == (not p.support())


@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(st.permutations(list(range(n))),
                        st.permutations(list(range(n))),
                        st.permutations(list(range(n))))))
def test_associativity(triple):
    a, b, c = (Permutation(x) for x in triple)
    assert ((a * b) * c) == (a * (b * c))

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halinkit.graphs import binary_tree
from halinkit.limitsim import EpsilonWord, alpha_perm, run_construction
from halinkit.perms import Permutation
from halinkit.topology import (Exhaustion, check_cauchy, check_ultrametric,
                               confluent, dist, dist_star)

from conftest import dihedral
from oracles import confluent_by_points, ultrametric_violations_by_fractions


class TestExhaustion:
    def test_strict_nesting_required(self):
        with pytest.raises(ValueError):
            Exhaustion(4, [{0, 1}, {0, 1}])
        with pytest.raises(ValueError):
            Exhaustion(4, [{0, 1}, {0, 2}])

    def test_nonempty_first(self):
        with pytest.raises(ValueError):
            Exhaustion(4, [set(), {0}])
        with pytest.raises(ValueError):
            Exhaustion(4, [])

    def test_covers_flag(self):
        assert Exhaustion(3, [{0}, {0, 1}, {0, 1, 2}]).covers
        assert not Exhaustion(3, [{0}, {0, 1}]).covers

    def test_prefixes(self):
        e = Exhaustion.prefixes(4)
        assert e.sets == (frozenset({0}), frozenset({0, 1}),
                          frozenset({0, 1, 2}), frozenset({0, 1, 2, 3}))
        assert e.covers


class TestConfluent:
    def test_equal_permutations(self):
        e = Exhaustion.prefixes(5)
        p = Permutation([1, 0, 2, 3, 4])
        assert confluent(e, p, p) is None

    def test_difference_in_x0_is_zero(self):
        e = Exhaustion.prefixes(4)
        a = Permutation([1, 0, 2, 3])
        b = Permutation.identity(4)
        assert confluent(e, a, b) == 0

    def test_later_difference(self):
        e = Exhaustion.prefixes(4)
        a = Permutation([0, 1, 3, 2])
        b = Permutation.identity(4)
        assert confluent(e, a, b) == 2

    def test_equal_on_partial_exhaustion(self):
        # differ only outside the listed sets
        e = Exhaustion(4, [{0}, {0, 1}])
        a = Permutation([0, 1, 3, 2])
        b = Permutation.identity(4)
        assert confluent(e, a, b) is None

    def test_degree_mismatch(self):
        e = Exhaustion.prefixes(4)
        with pytest.raises(ValueError):
            confluent(e, Permutation.identity(5), Permutation.identity(4))

    @settings(max_examples=300)
    @given(st.data())
    def test_matches_pointwise_oracle(self, data):
        # random strictly nested exhaustions: prefixes of a shuffled domain
        # cut at increasing sizes, so layers of one point occur often and
        # the last set need not cover the domain
        n = data.draw(st.integers(1, 9))
        order = data.draw(st.permutations(range(n)))
        cuts = data.draw(st.sets(st.integers(1, n), min_size=1))
        e = Exhaustion(n, [order[:k] for k in sorted(cuts)])
        a = Permutation(data.draw(st.permutations(range(n))))
        b = a if data.draw(st.booleans()) else \
            Permutation(data.draw(st.permutations(range(n))))
        assert confluent(e, a, b) == confluent_by_points(e, a, b)
        if a == b:
            assert confluent(e, a, b) is None
        with pytest.raises(ValueError):
            confluent(e, a, Permutation.identity(n + 1))

    def test_one_point_layers_and_partial_exhaustion(self):
        e = Exhaustion(5, [{2}, {2, 4}, {0, 2, 4}])
        ident = Permutation.identity(5)
        cases = [([0, 1, 2, 3, 4], None), ([1, 0, 2, 3, 4], 2),
                 ([0, 1, 2, 4, 3], 1), ([0, 1, 3, 2, 4], 0),
                 ([0, 3, 2, 1, 4], None)]
        for images, want in cases:
            a = Permutation(images)
            assert confluent(e, a, ident) == confluent_by_points(e, a, ident) \
                == want


class TestDist:
    def test_zero_for_equal(self):
        e = Exhaustion.prefixes(4)
        p = Permutation([2, 3, 0, 1])
        assert dist(e, p, p) == Fraction(0)

    def test_x0_difference_gives_one(self):
        e = Exhaustion.prefixes(4)
        assert dist(e, Permutation([1, 0, 2, 3]),
                    Permutation.identity(4)) == Fraction(1)

    def test_x3_difference_gives_eighth(self):
        e = Exhaustion.prefixes(5)
        a = Permutation([0, 1, 2, 4, 3])
        assert dist(e, a, Permutation.identity(5)) == Fraction(1, 8)

    def test_exact_dyadic_type(self):
        e = Exhaustion.prefixes(6)
        a = Permutation([0, 1, 2, 3, 5, 4])
        d = dist(e, a, Permutation.identity(6))
        assert isinstance(d, Fraction)
        assert d.denominator & (d.denominator - 1) == 0  # power of two


class TestDistStar:
    def test_zero_for_equal(self):
        e = Exhaustion.prefixes(4)
        p = Permutation([1, 2, 3, 0])
        assert dist_star(e, p, p) == Fraction(0)

    def test_hand_built_asymmetric_pair(self):
        # a, b differ first in X_1 (d = 1/2); their inverses first in X_2
        # (d = 1/4); both verified by hand on the 4-point prefix exhaustion
        e = Exhaustion.prefixes(4)
        a = Permutation([0, 2, 1, 3])
        b = Permutation([0, 3, 1, 2])
        assert dist(e, a, b) == Fraction(1, 2)
        assert dist(e, a.inverse(), b.inverse()) == Fraction(1, 4)
        assert dist_star(e, a, b) == Fraction(3, 4)

    def test_symmetric(self, d8):
        e = Exhaustion.prefixes(8)
        elems = d8.elements()
        rng = random.Random(1)
        for _ in range(50):
            a, b = rng.choice(elems), rng.choice(elems)
            assert dist_star(e, a, b) == dist_star(e, b, a)

    def test_bounds_vs_components(self, d8):
        e = Exhaustion.prefixes(8)
        elems = d8.elements()
        rng = random.Random(2)
        for _ in range(50):
            a, b = rng.choice(elems), rng.choice(elems)
            d = dist(e, a, b)
            ds = dist_star(e, a, b)
            comp_max = max(d, dist(e, a.inverse(), b.inverse()))
            assert d <= ds <= 2 * comp_max

    def test_inverse_invariance(self, d8):
        e = Exhaustion.prefixes(8)
        elems = d8.elements()
        rng = random.Random(3)
        for _ in range(50):
            a, b = rng.choice(elems), rng.choice(elems)
            assert dist_star(e, a, b) == dist_star(e, a.inverse(), b.inverse())


class TestUltrametric:
    def exhaustions(self, n):
        yield Exhaustion.prefixes(n)
        yield Exhaustion(n, [set(range(i + 1)) for i in range(0, n, 2)])
        yield Exhaustion(n, [{n - 1}, set(range(n))])

    def test_random_triples_no_violations(self, d8):
        elems = d8.elements()
        rng = random.Random(42)
        for e in self.exhaustions(8):
            triples = [(rng.choice(elems), rng.choice(elems), rng.choice(elems))
                       for _ in range(1000)]
            assert check_ultrametric(e, triples) == []

    def test_degenerate_triples(self, d6):
        e = Exhaustion.prefixes(6)
        p, q = d6.elements()[:2]
        assert check_ultrametric(e, [(p, p, q), (p, p, p), (q, p, q)]) == []

    def test_confluent_rule_matches_fractions_on_seeded_triples(self):
        rng = random.Random(2024)
        n = 8
        # a non-covering exhaustion: permutations that differ only on 6 and
        # 7 are equal on every set, and so are the pairs with a == b
        partial = Exhaustion(n, [{0}, {0, 1, 2}, set(range(6))])
        pool = [Permutation(rng.sample(range(n), n)) for _ in range(12)]
        pool += [p * Permutation.from_cycles(n, [(6, 7)]) for p in pool[:6]]
        for e in list(self.exhaustions(n)) + [partial]:
            triples = [tuple(rng.choice(pool) for _ in range(3))
                       for _ in range(400)]
            triples += [(p, p, q) for p, q in zip(pool, pool[12:])]
            triples += [(p, q, p) for p, q in zip(pool, pool[12:])]
            assert any(confluent(e, a, b) is None for a, b, _ in triples
                       if a != b) == (e is partial)
            assert check_ultrametric(e, triples) == \
                ultrametric_violations_by_fractions(e, triples, dist) == []

    def test_confluent_rule_matches_fractions_on_arbitrary_confluents(
            self, monkeypatch):
        # A true exhaustion admits no violation, so feed both rules seeded
        # confluents (None included) that need not come from one, and
        # compare the violation records too.
        import halinkit.topology as topology
        rng = random.Random(99)
        e = Exhaustion.prefixes(4)
        pool = [Permutation(p) for p in
                ([0, 1, 2, 3], [1, 0, 2, 3], [0, 2, 1, 3], [3, 1, 2, 0],
                 [1, 2, 3, 0])]
        table = {}
        for i, p in enumerate(pool):
            for q in pool[i:]:
                value = None if p == q else rng.choice([0, 1, 2, 3, None])
                table[p, q] = table[q, p] = value
        monkeypatch.setattr(topology, "confluent",
                            lambda e, a, b: table[a, b])
        triples = [(a, b, c) for a in pool for b in pool for c in pool]
        got = check_ultrametric(e, triples)
        assert got == ultrametric_violations_by_fractions(e, triples, dist)
        assert got and any("0" in (v["d_ab"], v["d_bc"]) for v in got)

    @settings(max_examples=200)
    @given(st.data())
    def test_strong_triangle_random_sym5(self, data):
        e = Exhaustion.prefixes(5)
        perms = [Permutation(data.draw(st.permutations(list(range(5)))))
                 for _ in range(3)]
        a, b, c = perms
        assert dist(e, a, c) <= max(dist(e, a, b), dist(e, b, c))

    def test_identity_of_indiscernibles_on_cover(self, d8):
        e = Exhaustion.prefixes(8)
        for p in d8.elements():
            for q in d8.elements():
                assert (dist(e, p, q) == 0) == (p == q)

    def test_left_translation_isometry(self, d8):
        e = Exhaustion.prefixes(8)
        elems = d8.elements()
        rng = random.Random(7)
        for _ in range(200):
            gamma, a, b = (rng.choice(elems) for _ in range(3))
            assert dist(e, gamma * a, gamma * b) == dist(e, a, b)

    def test_ball_equals_pointwise_stabilizer(self, d8):
        e = Exhaustion.prefixes(8)
        ident = Permutation.identity(8)
        for k in range(len(e.sets)):
            ball = {p for p in d8.elements()
                    if dist(e, ident, p) < Fraction(1, 2 ** k)}
            stab = set(d8.point_stabilizer(e.sets[k]).elements())
            assert ball == stab


class TestCauchy:
    def test_constant_sequence(self, d6):
        e = Exhaustion.prefixes(6)
        p = d6.elements()[1]
        assert check_cauchy(e, [p, p, p]) == [Fraction(0), Fraction(0)]

    def test_single_element_empty(self, d6):
        e = Exhaustion.prefixes(6)
        assert check_cauchy(e, [d6.elements()[0]]) == []

    def test_construction_sequence_shrinks_geometrically(self):
        state = run_construction(binary_tree(12), 3)
        e = state.exhaustion()
        word = EpsilonWord((1, 1, 1))
        seq = [alpha_perm(state, word.bits[:k + 1]) for k in range(3)]
        table = check_cauchy(e, seq)
        assert len(table) == 2
        for k, entry in enumerate(table):
            assert entry <= Fraction(1, 2 ** (k + 1))

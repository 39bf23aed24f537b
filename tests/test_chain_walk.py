"""The stabilizer chain's coset walk and element(r) against the recursive
walkers they replace (tests/oracles.py), on the n <= 8 corpus and past it:
seeded 3-regular graphs with n = 10..30, Petersen, Q4 and K_{5,5}."""

import random

import pytest

from halinkit.autgroup import automorphism_group
from halinkit.graphs import complete_bipartite, petersen
from halinkit.groups import PermGroup
from halinkit.invariants import disjoint_translate, motion
from halinkit.perms import Permutation

from conftest import dihedral
from corpus import hypercube, random_regular, small_corpus
from oracles import (disjoint_translate_by_recursion, elements_by_products,
                     motion_by_recursion, set_stabilizer_by_first_leaf)

LISTABLE = 5_000


def _graphs():
    rng = random.Random(17)
    out = list(small_corpus())
    out += [(f"3-regular{n}", random_regular(n, 3, rng))
            for n in range(10, 31, 2)]
    return out + [("petersen", petersen()), ("Q4", hypercube(4)),
                  ("K55", complete_bipartite(5, 5))]


GRAPHS = _graphs()


@pytest.fixture(scope="module", params=GRAPHS, ids=[name for name, _ in GRAPHS])
def group(request):
    return automorphism_group(request.param[1])


def test_elements_match_products(group):
    if group.order() > LISTABLE:
        pytest.skip("too large to list")
    elems = group.elements()
    assert elems == elements_by_products(group)
    chain = group.chain()
    assert [chain.element(r) for r in range(len(elems))] == elems


def test_set_stabilizer_generators_match_first_leaf(group):
    """The bottom-up backtrack lists a sublist of the first-leaf list: the
    same leaf for each (level, image) it walks, and none for an image the
    orbits of the generators already found reach or refute."""
    rng = random.Random(group.degree)
    for _ in range(4):
        points = rng.sample(range(group.degree),
                            rng.randint(1, group.degree))
        got = group.set_stabilizer(points).generators
        want = set_stabilizer_by_first_leaf(group, points)
        assert set(got) <= set(want)
        assert PermGroup(group.degree, got).order() == \
            PermGroup(group.degree, want).order()
        target = frozenset(points)
        assert all(frozenset(map(g, target)) == target for g in got)


def test_motion_witness_matches_recursion(group):
    if group.is_trivial():
        pytest.skip("motion is undefined for the trivial group")
    assert motion(group) == motion_by_recursion(group)


def test_disjoint_translate_witness_matches_recursion(group):
    """Random pairs, and pairs with Z inside Y that the identity fails."""
    rng = random.Random(group.degree + 1)
    n = group.degree
    for _ in range(4):
        y = rng.sample(range(n), rng.randint(0, n))
        z = rng.sample(range(n), rng.randint(0, n - len(y) // 2))
        assert disjoint_translate(group, y, z) == \
            disjoint_translate_by_recursion(group, y, z)
        y = rng.sample(range(n), rng.randint(1, (n + 1) // 2))
        z = rng.sample(y, rng.randint(1, len(y)))
        assert disjoint_translate(group, y, z) == \
            disjoint_translate_by_recursion(group, y, z)


def test_walk_asks_keep_before_each_child():
    """keep(level, w, a) gets the parent product w; the kept child's
    product maps base[level] to w(a), and pruned children are never
    formed."""
    chain = dihedral(6).chain()
    assert chain.base == [0, 1]
    assert [list(t) for t in chain.transversals] == [list(range(6)), [1, 5]]
    calls = []

    def keep(level, w, a):
        calls.append((level, w(chain.base[0]), a))
        return level == 0 or a == chain.base[level]

    leaves = list(chain.walk(keep))
    assert leaves == [chain.element(2 * a) for a in range(6)]
    assert [leaf(0) for leaf in leaves] == list(range(6))
    assert [c for c in calls if c[0] == 0] == [(0, 0, a) for a in range(6)]
    assert [c for c in calls if c[0] == 1] == \
        [(1, a, b) for a in range(6) for b in (1, 5)]
    assert list(chain.walk(level=2)) == [chain.element(0)]
    assert list(chain.walk(lambda *_: False)) == []


def test_motion_forms_no_product_it_prunes(monkeypatch):
    """The recursive search formed every child's product before pruning
    it; the walk asks keep first, so motion forms fewer products."""
    group = automorphism_group(complete_bipartite(5, 5))
    group.chain()
    multiply = Permutation.__mul__
    products = []

    def counted(p, q):
        products[-1] += 1
        return multiply(p, q)

    monkeypatch.setattr(Permutation, "__mul__", counted)
    for search in (motion, motion_by_recursion):
        products.append(0)
        search(group)
    assert products[0] < products[1]


def test_walk_has_no_depth_limit():
    """A 1,101-level chain whose only nontrivial level is the last: the
    recursive walk passed the interpreter's recursion limit here."""
    swap = Permutation.from_cycles(1200, [(1198, 1199)])
    group = PermGroup.from_strong_generators(1200, [swap],
                                             list(range(1100)) + [1198])
    assert group.elements() == [Permutation.identity(1200), swap]
    assert motion(group) == (2, swap)
    assert disjoint_translate(group, {1198}, {1198}) == swap
    assert group.set_stabilizer({1198}).order() == 1

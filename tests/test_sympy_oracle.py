"""Group orders, point stabilizers and topology samples checked against
sympy's own Schreier-Sims, past the n <= 8 brute-force corpus."""

import random

import pytest

from halinkit.autgroup import automorphism_group
from halinkit.cli import _sample_elements

from corpus import sympy_corpus

combinatorics = pytest.importorskip("sympy.combinatorics")

GRAPHS = sympy_corpus()


def _sympy_group(group):
    perm = combinatorics.Permutation
    gens = [perm(list(g.images)) for g in group.generators]
    return combinatorics.PermutationGroup(gens or [perm(group.degree - 1)])


@pytest.fixture(params=GRAPHS, ids=[name for name, _ in GRAPHS])
def groups(request):
    group = automorphism_group(request.param[1])
    return group, _sympy_group(group)


def test_order_matches_sympy(groups):
    group, reference = groups
    assert group.order() == reference.order()


def test_point_stabilizer_orders_match_sympy(groups):
    group, reference = groups
    rng = random.Random(group.degree)
    for _ in range(5):
        prefix = rng.sample(range(group.degree), rng.randint(1, 4))
        assert group.point_stabilizer(prefix).order() == \
            reference.pointwise_stabilizer(prefix).order()


def test_samples_are_sympy_members(groups):
    group, reference = groups
    for sample in _sample_elements(group, 30, group.degree):
        assert reference.contains(combinatorics.Permutation(list(sample.images)))

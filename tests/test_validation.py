"""One vertex-set check and one permutation test for the whole library.

Every public function that takes vertices reads them through
``perms.point_set``, and every image array goes through
``perms.is_permutation``; these tests pin that they all accept and reject
the same inputs.
"""

import pytest

from halinkit.autgroup import automorphism_group
from halinkit.graphs import Graph, binary_tree, cycle
from halinkit.invariants import (disjoint_translate,
                                 greedy_distinguishing_chain, is_base,
                                 is_distinguishing, reducing_vertex)
from halinkit.limitsim import fixing_oracle, run_construction, verify_finitary
from halinkit.perms import Permutation, is_permutation, point_set
from halinkit.topology import Exhaustion

N = 8
GROUP = automorphism_group(cycle(N))  # the dihedral group, degree 8
TREE = binary_tree(3)                 # 15 vertices
STATE = run_construction(binary_tree(6), 3)


def bad_values(n):
    """Not vertices of a graph on n vertices; True would read as 1."""
    return [1.5, True, "a", None, -1, n]


def with_good(bad):
    """The bad value alone, and after vertices 0 and 1."""
    return [[bad], [0, 1, bad]]


CALLS = {
    "point_stabilizer": lambda pts: GROUP.point_stabilizer(pts),
    "set_stabilizer": lambda pts: GROUP.set_stabilizer(pts),
    "set_stabilizer_is_trivial": lambda pts:
        GROUP.set_stabilizer_is_trivial(pts),
    "is_base": lambda pts: is_base(GROUP, pts),
    "is_distinguishing": lambda pts: is_distinguishing(GROUP, pts),
    "reducing_vertex": lambda pts: reducing_vertex(GROUP, pts),
    "greedy_distinguishing_chain": lambda pts:
        greedy_distinguishing_chain(GROUP, pts),
    "disjoint_translate_y": lambda pts: disjoint_translate(GROUP, pts, [2]),
    "disjoint_translate_z": lambda pts: disjoint_translate(GROUP, [2], pts),
    "exhaustion": lambda pts: Exhaustion(N, [[0], [0] + pts]),
}


@pytest.mark.parametrize("bad", bad_values(N), ids=repr)
@pytest.mark.parametrize("call", CALLS)
def test_group_queries_reject_non_vertices(call, bad):
    for points in with_good(bad):
        with pytest.raises(ValueError, match="out of range"):
            CALLS[call](points)


@pytest.mark.parametrize("bad", bad_values(N), ids=repr)
def test_orbit_rejects_a_non_vertex(bad):
    with pytest.raises(ValueError, match="out of range"):
        GROUP.orbit(bad)


@pytest.mark.parametrize("bad", bad_values(N), ids=repr)
def test_exhaustion_rejects_a_non_vertex_first_set(bad):
    with pytest.raises(ValueError, match="out of range"):
        Exhaustion(N, [[bad]])


@pytest.mark.parametrize("bad", bad_values(TREE.graph.n), ids=repr)
def test_fixing_oracle_rejects_non_vertices(bad):
    for points in with_good(bad):
        with pytest.raises(ValueError, match="out of range"):
            fixing_oracle(TREE, points)


@pytest.mark.parametrize("bad", bad_values(STATE.family.graph.n), ids=repr)
def test_verify_finitary_rejects_non_vertices(bad):
    for points in with_good(bad):
        with pytest.raises(ValueError, match="out of range"):
            verify_finitary(STATE, points, (1, 1, 1))


def test_point_set():
    assert point_set(N, iter([3, 0, 3])) == frozenset({0, 3})
    assert point_set(N, []) == frozenset()
    with pytest.raises(ValueError, match=r"^points \[0, 8\] out of range 0\.\.7$"):
        point_set(N, [0, 8])


# arrays judged against degree 4: bijections, tuples, bools, floats, None,
# strings, duplicates, and arrays too short or too long
IMAGES = [
    [0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], (1, 0, 3, 2), (0, 1, 2, 3),
    [True, 0, 2, 3], [False, True, 2, 3], (0, True, 2, 3),
    [0.0, 1, 2, 3], [1.0, 0, 2, 3], [0, 1, 2, 3.5],
    [None, 1, 2, 3], ["a", 1, 2, 3],
    [0, 0, 2, 3], [1, 1, 2, 3], (3, 3, 3, 3),
    [], [0], [0, 1, 2], [1, 2, 3], [0, 1, 2, 3, 4], [0, 1, 2, 3, 3],
]


def _accepts(f, images) -> bool:
    try:
        f(images)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("images", IMAGES, ids=repr)
def test_one_permutation_test(images):
    ok = is_permutation(images)
    assert ok is (not any(type(v) is not int for v in images)
                  and sorted(images) == list(range(len(images))))
    assert _accepts(Permutation, images) is ok
    for n in (len(images), 4):  # the edgeless graph on n vertices
        g = Graph(n)
        assert g.is_automorphism(images) is (ok and len(images) == n)
        assert _accepts(g.relabel, images) is (ok and len(images) == n)

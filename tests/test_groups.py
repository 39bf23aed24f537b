import math

import pytest

from halinkit.graphs import complete, cycle
from halinkit.perms import Permutation
from halinkit.groups import GroupTooLargeError, PermGroup

from conftest import dihedral
from oracles import (brute_automorphisms, brute_point_stabilizer,
                     brute_set_stabilizer)


def symmetric(n):
    if n == 1:
        return PermGroup(1)
    gens = [Permutation([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(Permutation(list(range(1, n)) + [0]))
    return PermGroup(n, gens)


class TestOrbit:
    def test_dihedral_transitive(self, d8):
        assert d8.orbit(0) == frozenset(range(8))

    def test_trivial_group(self):
        assert PermGroup(5).orbit(3) == frozenset({3})

    def test_point_stabilizer_orbit(self, d8):
        stab = d8.point_stabilizer({0})
        assert stab.orbit(1) == frozenset({1, 7})

    def test_out_of_range(self, d8):
        with pytest.raises(ValueError):
            d8.orbit(9)


class TestBsgs:
    def test_dihedral_5(self):
        g = PermGroup(5, [Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]),
                          Permutation.from_cycles(5, [(1, 4), (2, 3)])])
        assert g.build_bsgs().order() == 10

    def test_empty_generators(self):
        assert PermGroup(4).order() == 1

    def test_symmetric_orders(self):
        for n in range(1, 8):
            assert symmetric(n).order() == math.factorial(n)

    def test_deterministic_chain(self, d8):
        a = dihedral(8).chain()
        b = dihedral(8).chain()
        assert a.base == b.base
        assert [sorted(t) for t in a.transversals] == \
               [sorted(t) for t in b.transversals]
        assert a.strong_gens == b.strong_gens


class TestContains:
    def test_d5_reflection(self, d5):
        assert d5.contains(Permutation([0, 4, 3, 2, 1]))

    def test_d5_rejects_transposition(self, d5):
        assert not d5.contains(Permutation([1, 0, 2, 3, 4]))

    def test_identity_always(self, d8):
        assert d8.contains(Permutation.identity(8))

    def test_agrees_with_enumeration(self, d6):
        import itertools
        elems = {p.images for p in d6.elements()}
        for candidate in itertools.permutations(range(6)):
            assert d6.contains(Permutation(candidate)) == (candidate in elems)

    def test_degree_mismatch(self, d6):
        with pytest.raises(ValueError):
            d6.contains(Permutation.identity(5))


class TestPointStabilizer:
    def test_cycle8_one_point(self, d8):
        assert d8.point_stabilizer({0}).order() == 2

    def test_cycle8_two_points(self, d8):
        assert d8.point_stabilizer({0, 1}).order() == 1

    def test_empty_set_whole_group(self, d8):
        assert d8.point_stabilizer(set()).order() == 16

    def test_matches_brute_force(self, d6):
        elems = [p.images for p in d6.elements()]
        for s in [{0}, {1, 2}, {0, 3}, {0, 1, 2}]:
            got = sorted(p.images for p in d6.point_stabilizer(s).elements())
            want = sorted(brute_point_stabilizer(elems, s))
            assert got == want


class TestSetStabilizer:
    def test_cycle8_adjacent_pair(self, d8):
        assert d8.set_stabilizer({0, 1}).order() == 2

    def test_full_set_whole_group(self):
        g = dihedral(4)
        assert g.set_stabilizer(set(range(4))).order() == 8

    def test_k4_pair(self):
        s4 = symmetric(4)
        assert s4.set_stabilizer({0, 1}).order() == 4

    def test_matches_brute_force(self, d8):
        elems = [p.images for p in d8.elements()]
        for s in [{0, 1}, {0, 4}, {0, 2, 4}, {1, 3, 5, 7}, {0, 1, 2}]:
            got = sorted(p.images for p in d8.set_stabilizer(s).elements())
            want = sorted(brute_set_stabilizer(elems, s))
            assert got == want

    def test_every_member_preserves_set(self, d8):
        s = {0, 1, 3}
        stab = d8.set_stabilizer(s)
        for p in stab.elements():
            assert {p(v) for v in s} == s

    @pytest.mark.parametrize("query", ["point_stabilizer", "set_stabilizer",
                                       "set_stabilizer_is_trivial"])
    @pytest.mark.parametrize("points", [{0, 8}, {-1}])
    def test_points_out_of_range(self, d8, query, points):
        with pytest.raises(ValueError, match="out of range"):
            getattr(d8, query)(points)


class TestElements:
    def test_trivial(self):
        assert PermGroup(3).elements() == [Permutation.identity(3)]

    def test_d4_count(self):
        assert len(dihedral(4).elements()) == 8

    def test_no_duplicates(self, d8):
        elems = d8.elements()
        assert len(elems) == len(set(elems)) == 16

    def test_refusal_over_limit(self):
        s5 = symmetric(5)
        with pytest.raises(GroupTooLargeError) as exc:
            s5.elements(limit=100)
        assert exc.value.order == 120


class TestInvariants:
    def test_orbit_stabilizer(self, d8):
        for x in range(8):
            orbit = d8.orbit(x)
            stab = d8.point_stabilizer({x})
            assert d8.order() == len(orbit) * stab.order()

    def test_set_vs_point_stabilizer_index(self, d8):
        for s in [{0, 1}, {0, 2, 4}, {1, 5}, {0, 1, 2, 3}]:
            setwise = d8.set_stabilizer(s).order()
            pointwise = d8.point_stabilizer(s).order()
            assert setwise % pointwise == 0
            index = setwise // pointwise
            assert math.factorial(len(s)) % index == 0

    def test_set_stabilizer_contains_point_stabilizer(self, d6):
        for s in [{0, 1}, {0, 2, 4}]:
            setwise = d6.set_stabilizer(s)
            for p in d6.point_stabilizer(s).elements():
                assert setwise.contains(p)

    def test_graph_groups_match_brute_force(self):
        for g in [cycle(5), cycle(6), complete(4)]:
            elems = brute_automorphisms(g)
            group = PermGroup(g.n, [Permutation(p) for p in elems])
            assert group.order() == len(elems)
            for s in [{0}, {0, 1}, {0, 2}]:
                assert group.set_stabilizer(s).order() == \
                    len(brute_set_stabilizer(elems, s))

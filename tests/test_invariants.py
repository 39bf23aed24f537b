import pytest

from halinkit.autgroup import automorphism_group
from halinkit.graphs import (Graph, complete, complete_bipartite, cycle, path,
                             petersen)
from halinkit.invariants import (Bounds, BudgetExceededError, bounds,
                                 determining_number, disjoint_translate,
                                 distinguishing_cost,
                                 greedy_distinguishing_chain, is_base,
                                 is_distinguishing, motion, motion_of,
                                 reducing_vertex, subdegree_report)
from halinkit.perms import Permutation
from halinkit.groups import PermGroup

from conftest import dihedral
from oracles import (brute_automorphisms, brute_determining_number,
                     brute_distinguishing_cost, brute_motion,
                     longest_subgroup_chain)


def aut(g):
    return automorphism_group(g)


class TestBounds:
    @pytest.mark.parametrize("n,popcount,cost,chain", [
        (2, 1, 3, 1),
        (4, 1, 8, 4),
        (5, 2, 10, 5),
        (1, 1, 1, 0),
        (3, 2, 5, 2),
        (8, 1, 18, 10),
    ])
    def test_formula_values(self, n, popcount, cost, chain):
        b = bounds(n)
        assert b == Bounds(n, popcount, cost, chain)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            bounds(0)


class TestIsBase:
    def test_path5_endpoint(self):
        assert is_base(aut(path(5)), {0})

    def test_cycle6_single_vertex_fails(self):
        # the reflection through vertex 0 survives
        assert not is_base(aut(cycle(6)), {0})

    def test_full_vertex_set(self):
        for g in [cycle(6), complete(4), petersen()]:
            assert is_base(aut(g), set(range(g.n)))


class TestDeterminingNumber:
    def test_complete4(self):
        size, witness = determining_number(aut(complete(4)))
        assert size == 3 and witness == (0, 1, 2)

    def test_cycle6(self):
        size, witness = determining_number(aut(cycle(6)))
        assert size == 2 and witness == (0, 1)

    def test_trivial_group(self):
        g = Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        assert determining_number(aut(g)) == (0, ())

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            determining_number(aut(complete(4)), budget=2)

    def test_matches_oracle(self):
        for g in [path(6), cycle(7), complete(5), petersen()]:
            elems = brute_automorphisms(g)
            assert determining_number(aut(g)) == \
                brute_determining_number(elems, g.n)


class TestIsDistinguishing:
    def test_path5_endpoint(self):
        assert is_distinguishing(aut(path(5)), {0})

    def test_cycle8_adjacent_pair_fails(self):
        assert not is_distinguishing(aut(cycle(8)), {0, 1})

    def test_cycle8_spread_triple(self):
        assert is_distinguishing(aut(cycle(8)), {0, 1, 3})

    def test_distinguishing_implies_base(self):
        for g in [path(5), cycle(6), cycle(8), petersen()]:
            group = aut(g)
            candidates = [{0}, {0, 1}, {0, 1, 3}, {0, 2, g.n - 1}]
            for s in candidates:
                if is_distinguishing(group, s):
                    assert is_base(group, s)


class TestDistinguishingCost:
    def test_path5(self):
        assert distinguishing_cost(aut(path(5))) == (1, (0,))

    def test_complete4_none(self):
        assert distinguishing_cost(aut(complete(4))) is None

    def test_cycle6(self):
        assert distinguishing_cost(aut(cycle(6))) == (3, (0, 1, 3))

    def test_cost_at_least_det(self):
        for g in [path(5), cycle(6), cycle(8), petersen()]:
            group = aut(g)
            found = distinguishing_cost(group)
            if found is not None:
                assert found[0] >= determining_number(group)[0]

    def test_matches_oracle(self):
        for g in [path(6), cycle(7), complete(5)]:
            elems = brute_automorphisms(g)
            assert distinguishing_cost(aut(g)) == \
                brute_distinguishing_cost(elems, g.n)


class TestMotion:
    def test_complete5(self):
        m, witness = motion(aut(complete(5)))
        assert m == 2 and witness.num_moved() == 2

    def test_motion_of_identity(self):
        assert motion_of(Permutation.identity(6)) == 0

    def test_cycle6(self):
        m, witness = motion(aut(cycle(6)))
        assert m == 4
        assert aut(cycle(6)).contains(witness)

    def test_trivial_group_error(self):
        with pytest.raises(ValueError, match="motion"):
            motion(PermGroup(4))

    def test_search_path_matches_enumeration(self):
        # the branch-and-bound witness is the first minimum-motion element
        # in the order PermGroup.elements lists the group
        for g in [cycle(8), complete(5), petersen()]:
            group = aut(g)
            nontrivial = [p for p in group.elements() if not p.is_identity()]
            least = min(p.num_moved() for p in nontrivial)
            first = next(p for p in nontrivial if p.num_moved() == least)
            assert motion(group) == (least, first)

    def test_matches_oracle(self):
        for g in [path(5), cycle(7), complete(6), petersen()]:
            assert motion(aut(g))[0] == brute_motion(brute_automorphisms(g))


class TestDisjointTranslate:
    def test_cycle8_singletons(self, d8):
        p = disjoint_translate(d8, {0}, {0})
        assert p is not None and p(0) != 0

    def test_complete4_full_sets(self):
        group = aut(complete(4))
        assert disjoint_translate(group, set(range(4)), set(range(4))) is None

    def test_cycle8_pairs(self, d8):
        p = disjoint_translate(d8, {0, 1}, {0, 1})
        assert p is not None
        assert {p(0), p(1)}.isdisjoint({0, 1})

    def test_empty_sets(self, d8):
        assert disjoint_translate(d8, set(), {0}).is_identity()

    def test_returned_element_is_member(self, d6):
        p = disjoint_translate(d6, {0, 1}, {2})
        assert p is not None and d6.contains(p)


class TestReducingVertex:
    def test_cycle8_pair(self):
        # exhaustive D_8 check: v=2 keeps order 2 (not nested); v=3 is least valid
        assert reducing_vertex(aut(cycle(8)), {0, 1}) == 3

    def test_trivial_stabilizer_rejected(self):
        with pytest.raises(ValueError):
            reducing_vertex(aut(cycle(8)), {0, 1, 3})

    def test_too_small_set_rejected(self):
        with pytest.raises(ValueError):
            reducing_vertex(aut(cycle(8)), {0})

    def test_complete4_stalls(self):
        assert reducing_vertex(aut(complete(4)), {0, 1}) is None

    def test_result_properly_reduces(self, d8):
        v = reducing_vertex(d8, {0, 1})
        before = d8.set_stabilizer({0, 1})
        after = d8.set_stabilizer({0, 1, v})
        assert after.order() < before.order()
        assert all(before.contains(p) for p in after.elements())


class TestGreedyChain:
    def test_cycle8_from_minimum_base(self):
        chain = greedy_distinguishing_chain(aut(cycle(8)), {0, 1})
        assert chain.completed and not chain.stalled
        assert chain.final_set == (0, 1, 3)
        assert chain.orders == (2, 1)
        b = bounds(2)
        assert len(chain.final_set) <= b.cost_bound == 3
        assert chain.length <= b.chain_bound == 1

    def test_trivial_group_empty_base(self):
        g = Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        chain = greedy_distinguishing_chain(aut(g), set())
        assert chain.completed
        assert chain.added == ()
        assert chain.orders == (1,)

    def test_complete4_stalls(self):
        chain = greedy_distinguishing_chain(aut(complete(4)), {0, 1, 2})
        assert chain.stalled and not chain.completed
        assert chain.orders[-1] > 1

    def test_non_base_rejected(self):
        with pytest.raises(ValueError, match="base"):
            greedy_distinguishing_chain(aut(cycle(8)), {0})

    def test_singleton_base_completes_instantly(self):
        chain = greedy_distinguishing_chain(aut(path(5)), {0})
        assert chain.completed and chain.added == ()
        assert len(chain.final_set) <= bounds(1).cost_bound

    def test_orders_strictly_decrease(self):
        for g in [cycle(6), cycle(8), petersen()]:
            group = aut(g)
            base = determining_number(group)[1]
            chain = greedy_distinguishing_chain(group, base)
            assert all(a > b for a, b in zip(chain.orders, chain.orders[1:]))


class TestNoEnumeration:
    # (graph, determining number, distinguishing cost, motion witness,
    #  greedy chain from the least base: added, orders, stalled)
    PINNED = [
        (cycle(8), (2, (0, 1)), (3, (0, 1, 3)), (2, 1, 0, 7, 6, 5, 4, 3),
         ((3,), (2, 1), False)),
        (complete(5), (4, (0, 1, 2, 3)), None, (3, 1, 2, 0, 4),
         ((), (24,), True)),
        (complete_bipartite(3, 3), (4, (0, 1, 3, 4)), None,
         (0, 1, 2, 4, 3, 5), ((), (8,), True)),
        (petersen(), (3, (0, 1, 3)), None, (3, 8, 5, 0, 4, 2, 6, 7, 1, 9),
         ((), (2,), True)),
    ]

    @pytest.mark.parametrize("g,det,cost,witness,greedy", PINNED,
                             ids=["C8", "K5", "K33", "petersen"])
    def test_answers_without_listing_the_group(self, monkeypatch, g, det,
                                               cost, witness, greedy):
        group = aut(g)

        def refuse(self, limit=None):
            raise AssertionError("the group was enumerated")

        monkeypatch.setattr(PermGroup, "elements", refuse)
        assert determining_number(group) == det
        assert distinguishing_cost(group) == cost
        m, p = motion(group)
        assert p.images == witness and m == p.num_moved()
        chain = greedy_distinguishing_chain(group, det[1])
        assert (chain.added, chain.orders, chain.stalled) == greedy


class TestSubgroupChains:
    @pytest.mark.parametrize("n,length", [(1, 0), (2, 1), (3, 2), (4, 4)])
    def test_small_lattices(self, n, length):
        assert longest_subgroup_chain(n) == length

    def test_matches_chain_bound(self):
        for n in (2, 3, 4):
            assert longest_subgroup_chain(n) == bounds(n).chain_bound

    def test_refusal_beyond_five(self):
        with pytest.raises(ValueError):
            longest_subgroup_chain(6)


class TestSubdegreeReport:
    def test_cycle8(self, d8):
        assert subdegree_report(d8) == [(v, 2) for v in range(8)]

    def test_trivial_group(self):
        assert subdegree_report(PermGroup(4)) == [(v, 1) for v in range(4)]

    def test_complete4(self):
        assert subdegree_report(aut(complete(4))) == [(v, 3) for v in range(4)]

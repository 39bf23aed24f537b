import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from halinkit.autgroup import automorphism_group
from halinkit.graphs import (Graph, binary_tree, comb, complete,
                             complete_bipartite, cycle, path, petersen)
from halinkit.invariants import (Bounds, BudgetExceededError, StabilizerChain,
                                 bounds,
                                 determining_number, disjoint_translate,
                                 distinguishing_cost,
                                 greedy_distinguishing_chain, is_base,
                                 is_distinguishing, motion,
                                 reducing_vertex, subdegree_report)
from halinkit.perms import Permutation
from halinkit.groups import PermGroup, _Chain

from conftest import dihedral
from corpus import hypercube, planted, small_corpus
from oracles import (brute_automorphisms, brute_determining_number,
                     brute_distinguishing_cost, brute_motion,
                     longest_subgroup_chain, networkx_automorphisms,
                     reducing_vertex_by_set_stabilizers)


def aut(g):
    return automorphism_group(g)


# Past the Sym(n) filter's reach: (graph, determining number, distinguishing
# cost), checked against the oracles on networkx's element lists.
LARGER = [
    (petersen(), (3, (0, 1, 3)), None),
    (hypercube(3), (3, (0, 1, 2)), None),
    (hypercube(4), (3, (0, 3, 5)), (5, (0, 1, 2, 5, 11))),
    (cycle(11), (2, (0, 1)), (3, (0, 1, 3))),
    (complete_bipartite(3, 4), (5, (0, 1, 3, 4, 5)), None),
    (complete_bipartite(4, 4), (6, (0, 1, 2, 4, 5, 6)), None),
]


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
        with pytest.raises(BudgetExceededError, match="at size 2"):
            determining_number(aut(complete(4)), budget=2)

    def test_matches_oracle(self):
        for g in [path(6), cycle(7), complete(5), petersen()]:
            elems = brute_automorphisms(g)
            assert determining_number(aut(g)) == \
                brute_determining_number(elems, g.n)
        for g, det, _ in LARGER:
            elems = networkx_automorphisms(g)
            assert determining_number(aut(g)) == det == \
                brute_determining_number(elems, g.n)

    def test_hypercube5(self):
        assert determining_number(aut(hypercube(5))) == (4, (0, 1, 6, 10))


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
        for g, _, cost in LARGER:
            elems = networkx_automorphisms(g)
            assert distinguishing_cost(aut(g)) == cost == \
                brute_distinguishing_cost(elems, g.n)

    def test_least_set_is_at_most_half(self):
        # S and V - S have one setwise stabilizer, so the search stops
        # after size n // 2; the brute-force oracle searches every size
        for name, g in small_corpus():
            elems = brute_automorphisms(g)
            want = brute_distinguishing_cost(elems, g.n)
            assert want is None or (
                brute_determining_number(elems, g.n)[0] <= want[0]
                <= g.n // 2), name
            assert distinguishing_cost(aut(g)) == want, name


class TestMotion:
    def test_complete5(self):
        m, witness = motion(aut(complete(5)))
        assert m == 2 and witness.num_moved() == 2

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

    @pytest.mark.parametrize("y, z", [({0}, {99}), ({99}, {0}), ({0}, {-1}),
                                      (set(), {8}), ({8}, set())])
    def test_vertices_out_of_range(self, y, z):
        with pytest.raises(ValueError, match="out of range"):
            disjoint_translate(aut(cycle(8)), y, z)


REDUCING = small_corpus() + [("petersen", petersen()), ("Q4", hypercube(4))]


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

    def test_vertex_outside_x_needs_no_set_stabilizer(self, monkeypatch):
        # X = {0, 1, 2, 7}: 3 is returned off stab(Y) alone
        group = aut(cycle(8))
        calls = []
        stabilizer = PermGroup.set_stabilizer
        monkeypatch.setattr(PermGroup, "set_stabilizer",
                            lambda g, points: calls.append(points)
                            or stabilizer(g, points))
        assert reducing_vertex(group, {0, 1}) == 3
        assert len(calls) == 1

    @pytest.mark.parametrize("name, graph", REDUCING,
                             ids=[name for name, _ in REDUCING])
    def test_matches_set_stabilizer_per_candidate(self, name, graph):
        group = aut(graph)
        rng = random.Random(name)
        for _ in range(4):
            y = rng.sample(range(graph.n), rng.randint(min(2, graph.n), graph.n))
            try:
                expected = reducing_vertex_by_set_stabilizers(group, y)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    reducing_vertex(group, y)
            else:
                assert reducing_vertex(group, y) == expected


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

    @pytest.mark.parametrize("fields", [
        ((0, 1), (3,), (2, 2), False),        # orders do not decrease
        ((0, 1), (3, 5), (8, 2), False),      # one order short
        ((0, 1), (), (2, 1), False),          # one order too many
        ((0, 1), (3, 3), (8, 2, 1), False),   # an added vertex twice
        ((0, 1), (1,), (2, 1), False),        # an added vertex in the base
    ])
    def test_record_rejects_inconsistent_fields(self, fields):
        with pytest.raises(ValueError, match="greedy record"):
            StabilizerChain(*fields)

    def test_every_corpus_run_builds(self):
        for _, g in small_corpus():
            group = aut(g)
            chain = greedy_distinguishing_chain(group,
                                                determining_number(group)[1])
            assert StabilizerChain(*chain) == chain

    def test_orders_strictly_decrease(self):
        for g in [cycle(6), cycle(8), petersen()]:
            group = aut(g)
            base = determining_number(group)[1]
            chain = greedy_distinguishing_chain(group, base)
            assert all(a > b for a, b in zip(chain.orders, chain.orders[1:]))


def _greedy_graphs():
    """The kinds of graph the benchmark runs greedy on: C7, K_{3,3},
    K_{4,4}, K_{4,5}, Petersen, Q3, Q4, the circulant C9(1, 2), and planted
    graphs on 10 and 14 vertices whose only nontrivial automorphism is the
    planted pair of transpositions."""
    rng = random.Random(24)
    out = [("C7", cycle(7)), ("K33", complete_bipartite(3, 3)),
           ("K44", complete_bipartite(4, 4)), ("K45", complete_bipartite(4, 5)),
           ("petersen", petersen()), ("Q3", hypercube(3)), ("Q4", hypercube(4)),
           ("C9(1,2)", Graph(9, [(i, (i + s) % 9) for i in range(9)
                                 for s in (1, 2)]))]
    for n in (10, 14):
        g = planted(n, 2, rng)
        while aut(g).order() != 2:
            g = planted(n, 2, rng)
        out.append((f"planted{n}", g))
    return out


GREEDY = _greedy_graphs()


class TestGreedyStabilizers:
    @pytest.mark.parametrize("name, graph", GREEDY,
                             ids=[name for name, _ in GREEDY])
    def test_each_set_is_backtracked_once(self, monkeypatch, name, graph):
        """is_base rebases the chain on the base once; after that, one
        rebase per distinct set whose stabilizer greedy or reducing_vertex
        asks for, however often it is asked for."""
        group = aut(graph)
        base = determining_number(group)[1]
        queries, rebases = [], []
        set_stabilizer, rebased = PermGroup.set_stabilizer, _Chain.rebased
        monkeypatch.setattr(PermGroup, "set_stabilizer", lambda g, points:
                            queries.append(frozenset(points))
                            or set_stabilizer(g, points))
        monkeypatch.setattr(_Chain, "rebased", lambda chain, points:
                            rebases.append(frozenset(points))
                            or rebased(chain, points))
        chain = greedy_distinguishing_chain(group, base)
        assert rebases[0] == frozenset(base)
        assert sorted(rebases[1:], key=sorted) == \
            sorted(set(queries), key=sorted)
        if chain.orders[0] > 1 and len(base) > 1:
            # greedy and then reducing_vertex ask for stab(Y_0)
            assert len(queries) > len(set(queries))
        if name == "Q4":
            # and for Y_1 and Y_2; reducing_vertex had already asked for
            # Y_2 = Y_1 + {8} to test the candidate 8 inside X
            assert chain.added == (2, 8)
            assert len(queries) == len(set(queries)) + 3

    def test_k66_greedy_products(self, monkeypatch):
        """Greedy on K_{6,6} from its least base: the bottom-up backtrack
        with orbit pruning makes about 39,800 products; walking one subtree
        per (level, image) made 236,715."""
        group = aut(complete_bipartite(6, 6))
        base = determining_number(group)[1]
        products = 0
        multiply = Permutation.__mul__

        def counted(p, q):
            nonlocal products
            products += 1
            return multiply(p, q)

        monkeypatch.setattr(Permutation, "__mul__", counted)
        chain = greedy_distinguishing_chain(group, base)
        assert chain.orders == (28_800,) and chain.stalled
        assert products < 60_000


class TestNoEnumeration:
    # (graph, determining number, distinguishing cost, motion witness,
    #  greedy chain from the least base: added, orders, stalled)
    PINNED = [
        (cycle(8), (2, (0, 1)), (3, (0, 1, 3)), (0, 7, 6, 5, 4, 3, 2, 1),
         ((3,), (2, 1), False)),
        (complete(5), (4, (0, 1, 2, 3)), None, (0, 1, 2, 4, 3),
         ((), (24,), True)),
        (complete_bipartite(3, 3), (4, (0, 1, 3, 4)), None,
         (0, 1, 2, 3, 5, 4), ((), (8,), True)),
        (petersen(), (3, (0, 1, 3)), None, (0, 1, 2, 7, 5, 4, 6, 3, 9, 8),
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


class TestRelabeling:
    """The invariants and the stabilizer orders are properties of the graph,
    not of its vertex names: a random relabeling changes none of them."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_invariants_survive_a_relabeling(self, data):
        n = data.draw(st.integers(min_value=1, max_value=10))
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=999)))
        p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < p])
        sigma = data.draw(st.permutations(range(n)))
        h = Graph(n, [(sigma[i], sigma[j]) for i, j in g.edges])
        a, b = aut(g), aut(h)
        assert a.order() == b.order()
        assert determining_number(a)[0] == determining_number(b)[0]
        cost_a, cost_b = distinguishing_cost(a), distinguishing_cost(b)
        assert (cost_a is None) == (cost_b is None)
        assert cost_a is None or cost_a[0] == cost_b[0]
        points = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
        moved = {sigma[v] for v in points}
        assert a.point_stabilizer(points).order() == \
            b.point_stabilizer(moved).order()
        assert a.set_stabilizer(points).order() == \
            b.set_stabilizer(moved).order()


class TestNoCyclicGarbage:
    """Each library call of aut, base, cost, motion and greedy frees all it
    made by reference counting: with the collector off, a collection right
    after it finds nothing.  The searches' recursive closures refer to
    themselves, so each would leave its state for the collector."""

    GRAPHS = [g for _, g in small_corpus()[::23]] + [
        petersen(), cycle(12), hypercube(3), binary_tree(3).graph,
        comb(5).graph]

    def test_collector_finds_nothing_after_each_call(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for g in self.GRAPHS + [binary_tree(4).graph, comb(12).graph]:
                group = aut(g)
                assert gc.collect() == 0, g
                if g not in self.GRAPHS or group.is_trivial():
                    continue
                size, witness = determining_number(group)
                assert gc.collect() == 0, g
                distinguishing_cost(group)
                assert gc.collect() == 0, g
                motion(group)
                assert gc.collect() == 0, g
                greedy_distinguishing_chain(group, witness)
                assert gc.collect() == 0, g
        finally:
            if enabled:
                gc.enable()

    def test_collector_finds_nothing_after_a_budget_stop(self):
        group = aut(petersen())
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            try:
                determining_number(group, budget=5)
            except BudgetExceededError:
                pass
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

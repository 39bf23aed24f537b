import hashlib
import json
import random
import time

import networkx as nx
import pytest

from halinkit.autgroup import (ColoredPartition, _root, automorphism_group,
                               refine)
from halinkit.graphs import (Graph, binary_tree, comb, complete,
                             complete_bipartite, cycle, path, petersen)
from halinkit.groups import _schreier_sims
from halinkit.perms import Permutation

from corpus import (hypercube, planted, random_regular, rook, shrikhande,
                    small_corpus)
from oracles import (automorphism_group_by_full_descent, brute_automorphisms,
                     coarsest_equitable, is_automorphism_by_edge_scan,
                     networkx_automorphisms, refine_by_counts)


def disjoint_union(g, copies):
    return disjoint_sum(*[g] * copies)


def disjoint_sum(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(i + offset, j + offset) for i, j in g.edges]
        offset += g.n
    return Graph(offset, edges)


def differential_graphs():
    """Seeded graphs past the Sym(n) filter's reach: random 2-, 3- and
    4-regular graphs, planted involutions, unions of two cycles, Q4,
    Petersen, K_{4,5} and C40."""
    rng = random.Random(20261018)
    out = [random_regular(n, d, rng) for n, d in
           ((9, 2), (12, 2), (16, 2), (21, 2), (10, 3), (12, 3), (16, 3),
            (30, 3), (9, 4), (12, 4), (21, 4), (30, 4))]
    out += [planted(n, t, rng) for n, t in ((10, 2), (14, 3), (18, 4))]
    out += [disjoint_union(cycle(n), 2) for n in (5, 7)]
    return out + [hypercube(4), petersen(), complete_bipartite(4, 5),
                  cycle(40)]


class TestRefine:
    def test_path3_degree_split(self):
        got = refine(path(3), ColoredPartition.unit(3))
        assert got.cells == ((0, 2), (1,))

    def test_complete_graph_unchanged(self):
        p = ColoredPartition.unit(4)
        assert refine(complete(4), p) == p

    def test_discrete_unchanged(self):
        p = ColoredPartition([(1,), (0,), (2,)])
        assert refine(path(3), p) == p

    def test_idempotent(self):
        for g in [path(5), cycle(6), petersen(), complete_bipartite(2, 3)]:
            once = refine(g, ColoredPartition.unit(g.n))
            assert refine(g, once) == once

    def test_result_is_equitable(self):
        for g in [path(6), complete_bipartite(3, 4), petersen()]:
            part = refine(g, ColoredPartition.unit(g.n))
            for cell in part.cells:
                for other in part.cells:
                    counts = {len(g.neighbors(v) & frozenset(other))
                              for v in cell}
                    assert len(counts) == 1

    def test_public_refine_copies_and_owned_refines_in_place(self):
        g = petersen()
        child = refine(g, ColoredPartition.unit(g.n))._individualize(0, None)
        before = refined_state(child)
        got = refine(g, child)
        assert got is not child and refined_state(child) == before
        owned = refine(g, child, _owned=True)
        assert owned is child and refined_state(owned) == refined_state(got)

    def test_refines_input(self):
        g = cycle(6)
        start = ColoredPartition([(0, 1, 2), (3, 4, 5)])
        out = refine(g, start)
        for cell in out.cells:
            assert set(cell) <= {0, 1, 2} or set(cell) <= {3, 4, 5}

    def test_matches_naive_refinement(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(3, 14)
            g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < 0.35])
            labels = [rng.randrange(3) for _ in range(n)]
            cells = [[v for v in range(n) if labels[v] == k] for k in range(3)]
            got = refine(g, ColoredPartition(cells))
            assert set(map(frozenset, got.cells)) == coarsest_equitable(g, cells)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            ColoredPartition([(0, 1), (1, 2)])

    def test_individualize_touches_constant_entries(self):
        # v swaps places with the last vertex of its cell [s, e) and becomes
        # the cell at e - 1: one cell entry, at most two lab and pos
        # entries, and the ends at s and e - 1
        rng = random.Random(17)
        for g in oracle_graphs(rng)[::4]:
            q = refine(g, ColoredPartition.unit(g.n))
            while not q.is_discrete:
                for v in range(g.n):
                    s = q.cell[v]
                    if q.end[s] - s == 1:
                        continue
                    child = q._individualize(v, None)
                    diff = {name: {i for i, (a, b) in enumerate(
                                zip(getattr(q, name), getattr(child, name)))
                                if a != b}
                            for name in ("lab", "pos", "cell", "end")}
                    e = q.end[s] - 1
                    assert diff["cell"] == {v} and child.cell[v] == e
                    assert child.lab[e] == v and len(diff["lab"]) <= 2
                    assert len(diff["pos"]) <= 2
                    assert diff["end"] == {s, e} and child.end[e] == e + 1
                    assert (child.ncells, child.pending) == (q.ncells + 1, [e])
                s = rng.choice(sorted(a for a in set(q.cell)
                                      if q.end[a] - a > 1))
                q = refine(g, q._individualize(
                    rng.choice(q.lab[s:q.end[s]]), None))


def refined_state(p):
    return None if p is None else (p.lab, p.pos, p.cell, p.end, p.ncells,
                                   p.trace, p.pending)


def oracle_graphs(rng):
    """Seeded random graphs of every density, regular graphs, and a few
    with isolated vertices or one vertex."""
    out = [path(1), Graph(5, [(0, 1)]), petersen(), comb(4).graph]
    for _ in range(60):
        n = rng.randrange(2, 40)
        p = rng.choice([0.05, 0.15, 0.3, 0.6])
        out.append(Graph(n, [(i, j) for i in range(n)
                             for j in range(i + 1, n) if rng.random() < p]))
    for n, d in [(20, 3), (30, 3), (40, 4), (24, 5)]:
        out.append(random_regular(n, d, rng))
    return out


class TestRefineMatchesCountsOracle:
    """refine against refine_by_counts, which counts every splitter in a
    dict: the same lab, pos, cell, end, ncells and trace, and None in the
    same places."""

    def check(self, g, part):
        got = refine(g, part)
        assert refined_state(got) == refined_state(refine_by_counts(g, part))
        return got

    def test_random_starting_partitions(self):
        rng = random.Random(12)
        for g in oracle_graphs(rng):
            for ncolors in (1, 2, 3, 5):
                labels = [rng.randrange(ncolors) for _ in range(g.n)]
                self.check(g, ColoredPartition(
                    [[v for v in range(g.n) if labels[v] == k]
                     for k in range(ncolors)]))

    def test_individualized_children(self):
        rng = random.Random(13)
        for g in oracle_graphs(rng):
            q = self.check(g, ColoredPartition.unit(g.n))
            for _ in range(4):  # down a random path of the search tree
                cells = [s for s in set(q.cell) if q.end[s] - s > 1]
                if not cells:
                    break
                s = rng.choice(sorted(cells))
                for v in q.lab[s:q.end[s]]:
                    self.check(g, q._individualize(v, None))
                q = refine(g, q._individualize(rng.choice(q.lab[s:q.end[s]]),
                                               None))

    def test_expected_traces(self):
        rng = random.Random(14)
        nones = 0
        for g in oracle_graphs(rng):
            q = refine(g, ColoredPartition.unit(g.n))
            cells = [s for s in set(q.cell) if q.end[s] - s > 1]
            if not cells:
                continue
            s = min(cells, key=lambda a: (a - q.end[a], a))
            first = refine(g, q._individualize(q.lab[s], None)).trace
            variants = [first, first[:-1], first[:len(first) // 2],
                        first + [first[-1]] if first else [(0, 0, (1,))]]
            if first:  # one event differs: its splitter, cell or keys
                i = rng.randrange(len(first))
                a, c, keys = first[i]
                for bad in [(a + 1, c, keys), (a, c + 1, keys),
                            (a, c, keys + (1,)), (a, c, keys[:-1] + (9,))]:
                    variants.append(first[:i] + [bad] + first[i + 1:])
            for v in q.lab[s:q.end[s]]:  # siblings, as the search sees them
                for expected in variants:
                    nones += self.check(
                        g, q._individualize(v, expected)) is None
        assert nones > 0

    @pytest.mark.parametrize("queued", [False, True])
    @pytest.mark.parametrize("edges,cells,splitter,split", [
        # the splitter {0, 2, 3} halves the cell {1, 4}
        ([(0, 3), (0, 4), (2, 3)], [(1, 4), (0, 2, 3)], 2, 0),
        # the singleton {0} halves the cell {1, 2, 3, 4}
        ([(0, 1), (0, 2), (1, 3), (2, 5), (4, 5)],
         [(0,), (1, 2, 3, 4), (5,)], 0, 1),
        # the singleton {0} splits {1, 2, 3, 4} into 1 + 3 vertices, and
        # only {1, 2, 3} splits {5, 6}
        ([(0, 1), (0, 2), (0, 3), (1, 5), (2, 5), (3, 6)],
         [(0,), (1, 2, 3, 4), (5, 6)], 0, 1),
    ])
    def test_splits_into_two_subcells(self, edges, cells, splitter, split,
                                      queued):
        # the split cell is queued or not; of two equal halves the first
        # counts as the larger, so only the second is queued.  The queue
        # is set by hand, so the result need not be equitable; refine and
        # the oracle must still agree on it.
        part = ColoredPartition(cells)
        part.pending = [splitter] + [split] * queued
        got = self.check(Graph(part.n, edges), part)
        assert got.trace[0][:2] == (splitter, split)

    def test_cycles_individualized_at_every_vertex(self):
        for n in (3, 4, 5, 8, 13, 50, 101, 200):
            g = cycle(n)
            root = self.check(g, ColoredPartition.unit(n))
            for v in range(n):
                self.check(g, root._individualize(v, None))

    def test_random_regular_siblings_against_first_path_traces(self):
        # every child of each first-path node, refined against the first
        # path's trace at its depth, as the search refines it
        rng = random.Random(15)
        nones = 0
        for d in (3, 4, 3, 4):
            g = random_regular(80, d, rng)
            path = [self.check(g, ColoredPartition.unit(g.n))]
            while not path[-1].is_discrete:
                q = path[-1]
                s = max(sorted(set(q.cell)), key=lambda a: q.end[a] - a)
                v = min(q.lab[s:q.end[s]])
                path.append(refine(g, q._individualize(v, None)))
            for q, child in zip(path, path[1:]):
                s = max(sorted(set(q.cell)), key=lambda a: q.end[a] - a)
                for v in q.lab[s:q.end[s]]:
                    nones += self.check(
                        g, q._individualize(v, child.trace)) is None
        assert nones > 0


def full_descent_graphs():
    """The n <= 8 corpus, oracle_graphs, combs, binary trees, cycles,
    K_{a,b}, unions of Petersen graphs, cycles and K_{2,3}, and Q3-Q6,
    each also seeded-relabeled; complete and edgeless graphs to n = 60."""
    rng = random.Random(16)
    out = [g for _, g in small_corpus()] + oracle_graphs(rng)
    out += [comb(d).graph for d in range(1, 41)]
    out += [binary_tree(d).graph for d in range(1, 7)]
    out += [cycle(n) for n in range(3, 61)]
    out += [complete_bipartite(a, b) for a in range(1, 7)
            for b in range(a, 9)]
    out += [disjoint_union(h, k) for h in (petersen(), cycle(5), cycle(8),
                                          complete_bipartite(2, 3))
            for k in (2, 3, 4)]
    out += [hypercube(d) for d in range(3, 7)]
    for g in out[:]:
        images = list(range(g.n))
        rng.shuffle(images)
        out.append(g.relabel(images))
    # relabeling leaves these as they are
    return out + [f(n) for f in (complete, Graph) for n in range(1, 61)]


class TestAutomorphismGroup:
    @pytest.mark.parametrize("g,order", [
        (path(3), 2),
        (path(1), 1),
        (cycle(4), 8),
        (cycle(8), 16),
        (complete(5), 120),
        (complete_bipartite(3, 3), 72),
        (complete_bipartite(2, 5), 240),
    ])
    def test_known_orders(self, g, order):
        assert automorphism_group(g).order() == order

    def test_petersen_order(self):
        # frozen from the one-time brute-force filter of Sym(10)
        assert automorphism_group(petersen()).order() == 120

    def test_matches_brute_force_small(self):
        for g in [path(4), cycle(5), cycle(6), complete(4),
                  complete_bipartite(2, 3), binary_tree(2).graph,
                  comb(2).graph, Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])]:
            elems = set(brute_automorphisms(g))
            group = automorphism_group(g)
            assert group.order() == len(elems)
            assert {p.images for p in group.elements()} == elems

    def test_generators_preserve_edges_and_nonedges(self):
        for g in [cycle(7), petersen(), complete_bipartite(3, 4)]:
            nonedges = {(i, j) for i in range(g.n) for j in range(i + 1, g.n)
                        if not g.has_edge(i, j)}
            for p in automorphism_group(g).generators:
                for i, j in g.edges:
                    assert g.has_edge(p(i), p(j))
                for i, j in nonedges:
                    assert not g.has_edge(p(i), p(j))

    def test_relabel_conjugates_group(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
        pi = Permutation([3, 0, 5, 1, 4, 2])
        relabeled = g.relabel(pi.images)
        original = {p.images for p in automorphism_group(g).elements()}
        conjugated = {(pi * p * pi.inverse()).images
                      for p in map(Permutation, original)}
        assert {p.images for p in automorphism_group(relabeled).elements()} \
            == conjugated

    def test_asymmetric_graph(self):
        # spider with leg lengths 1, 2, 3: the smallest asymmetric tree
        g = Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        assert len(brute_automorphisms(g)) == 1
        assert automorphism_group(g).order() == 1

    def test_orders_match_networkx_and_schreier_sims(self):
        for g in differential_graphs():
            group = automorphism_group(g)
            assert group.order() == len(networkx_automorphisms(g))
            assert group.order() == _schreier_sims(g.n, group.generators).order()

    def test_random_relabel_conjugates_group(self):
        rng = random.Random(11)
        for g in differential_graphs()[::3] + [binary_tree(3).graph]:
            images = list(range(g.n))
            rng.shuffle(images)
            pi = Permutation(images)
            group = automorphism_group(g)
            relabeled = automorphism_group(g.relabel(images))
            assert relabeled.order() == group.order()
            for p in group.generators:
                assert relabeled.contains(pi * p * pi.inverse())

    def test_large_families(self):
        assert automorphism_group(cycle(400)).order() == 800
        assert automorphism_group(binary_tree(6).graph).order() == 2 ** 63

    def test_one_copy_per_refine(self, monkeypatch):
        # _individualize copies each child, which refine then owns; the
        # root partition is built for its refine and copied by neither
        import halinkit.autgroup as autgroup
        calls = {"copy": 0, "refine": 0}
        copy, refine_ = ColoredPartition._copy, autgroup.refine

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ColoredPartition, "_copy", counted("copy", copy))
        monkeypatch.setattr(autgroup, "refine", counted("refine", refine_))
        graphs = (petersen(), cycle(12), binary_tree(4).graph, comb(5).graph)
        for g in graphs:
            automorphism_group(g)
        assert calls["copy"] == calls["refine"] - len(graphs) > 0

    def test_same_generators_and_base_as_full_descent(self):
        # the early-leaf rule ends a subtree at the generator its first
        # leaf would give, so nothing else may change
        for g in full_descent_graphs():
            got, want = (automorphism_group(g),
                         automorphism_group_by_full_descent(g))
            assert got.generators == want.generators
            assert got.chain().base == want.chain().base

    def test_generators_and_bases_digest(self):
        # the generators and bases of the full-descent graphs, pinned by
        # digest: the full-descent oracle shares _root, _individualize and
        # the partition layout, so it cannot see a change there
        data = json.dumps([[list(group.chain().base),
                            [list(p.images) for p in group.generators]]
                           for group in map(automorphism_group,
                                            full_descent_graphs())],
                          separators=(",", ":"))
        assert hashlib.sha256(data.encode()).hexdigest() == (
            "9629f19f5a42d9c6d6b06065aae57dd7d6a3a7ad44c1e7ae0419bbe36c38b910")

    def test_off_path_orbit_pruning_matches_full_descent(self):
        # refinement cannot tell the Shrikhande graph's vertices from the
        # rook's graph's, so subtrees off the first path fail, and their
        # nodes orbit-prune siblings by the generators that fix their path
        rng = random.Random(19)
        s, r, p = shrikhande(), rook(4), petersen()
        for parts in ((s, r), (r, s), (s, s, r), (r, s, r), (r, s, s),
                      (s, r, p, p)):
            g = disjoint_sum(*parts)
            images = list(range(g.n))
            rng.shuffle(images)
            for h in (g, g.relabel(images)):
                got, want = (automorphism_group(h),
                             automorphism_group_by_full_descent(h))
                assert got.generators == want.generators
                assert got.chain().base == want.chain().base

    def test_refine_count_is_linear_on_combs_edgeless_and_complete(
            self, monkeypatch):
        # a subtree off the first path ends at its first node; descending
        # each to a leaf made about n(n+1)/2 refines (7,503 on comb(120),
        # 20,100 on the edgeless graph on 200 vertices, 5,050 on K100).
        # Each candidate map the search tests is an automorphism here.
        import halinkit.autgroup as autgroup
        calls = {"refine": 0, "test": 0}
        refine_, test = autgroup.refine, Graph.is_automorphism

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(autgroup, "refine", counted("refine", refine_))
        monkeypatch.setattr(Graph, "is_automorphism", counted("test", test))
        for g, count in ((comb(120).graph, 362), (Graph(200), 597),
                         (complete(100), 297), (comb(10).graph, 32),
                         (comb(40).graph, 122), (comb(80).graph, 242)):
            calls.update(refine=0, test=0)
            gens = automorphism_group(g).generators
            assert calls["refine"] == count <= 4 * g.n
            assert calls["test"] == len(gens)

    def test_orbit_pruning_generator_counts(self):
        # the generator list is part of aut's output; weaker orbit pruning
        # keeps the group but finds more generators
        for g, count in ((petersen(), 3), (complete(10), 9),
                         (complete_bipartite(5, 5), 9), (cycle(40), 2),
                         (binary_tree(4).graph, 15), (comb(6).graph, 7)):
            assert len(automorphism_group(g).generators) == count


def complement(g):
    return Graph(g.n, [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
                       if not g.has_edge(i, j)])


def networkx_regular(d, n):
    return Graph(n, nx.random_regular_graph(d, n, seed=d * n).edges)


class TestRoot:
    """The root's split by f(v) = |N(N(v))|, on the sparser of the graph
    and its complement."""

    def test_random_regular_orders_match_vf2(self):
        # each order against networkx's VF2++ count of all automorphisms,
        # which is independent of refinement; GraphMatcher's plain VF2
        # takes tens of seconds on these
        rng = random.Random(34)
        for d in (3, 4, 5):
            for n in range(20, 101, 20):
                g = networkx_regular(d, n)
                h = nx.Graph(g.edges)
                count = sum(1 for _ in nx.vf2pp_all_isomorphisms(h, h))
                images = list(range(n))
                rng.shuffle(images)
                for x in (g, g.relabel(images)):
                    group = automorphism_group(x)
                    assert group.order() == count
                    assert all(is_automorphism_by_edge_scan(x, p.images)
                               for p in group.generators)

    def test_cells_follow_a_relabeling(self):
        rng = random.Random(35)
        graphs = [networkx_regular(d, n) for d in (3, 4) for n in (20, 60)]
        graphs += [complement(g) for g in graphs]
        graphs += [comb(6).graph, petersen(), Graph(9), complete(9)]
        split = 0
        for g in graphs:
            cells = _root(g).cells
            split += len(cells) > 1
            images = list(range(g.n))
            rng.shuffle(images)
            assert _root(g.relabel(images)).cells == tuple(
                tuple(sorted(map(images.__getitem__, c))) for c in cells)
        assert split >= 8

    def test_complement_rule_gives_the_same_cells(self):
        # f of the sparser side: a d-regular graph with 2d < n - 1 and its
        # complement split their one root cell into the same sets
        for d, n in ((3, 20), (3, 40), (4, 30), (5, 40)):
            g = networkx_regular(d, n)
            cells = set(_root(g).cells)
            assert len(cells) > 1
            assert set(_root(complement(g)).cells) == cells

    def test_cubic_80_vertex_graph_makes_few_refines(self, monkeypatch):
        # the root refine cannot split a regular graph, so without the
        # invariant the root refines each of its 80 children (81 refines)
        import halinkit.autgroup as autgroup
        calls = []
        refine_ = autgroup.refine

        def counted(*args, **kwargs):
            calls.append(1)
            return refine_(*args, **kwargs)

        monkeypatch.setattr(autgroup, "refine", counted)
        automorphism_group(networkx_regular(3, 80))
        assert len(calls) <= 6

    def test_split_step_time_on_dense_and_long_graphs(self, monkeypatch):
        # process time of _root outside its refines: K_1000 takes the
        # complement rule (the plain union reaches ~10^9 set entries),
        # cycle(3000) the plain one
        import halinkit.autgroup as autgroup
        refine_, spent = autgroup.refine, [0.0]

        def timed(*args, **kwargs):
            start = time.process_time()
            try:
                return refine_(*args, **kwargs)
            finally:
                spent[0] += time.process_time() - start

        monkeypatch.setattr(autgroup, "refine", timed)
        for g in (complete(1000), cycle(3000)):
            g.adjacency
            spent[0] = 0.0
            start = time.process_time()
            _root(g)
            assert time.process_time() - start - spent[0] <= 0.5


class TestIsAutomorphism:
    def test_matches_edge_scan(self):
        # the local test at the moved vertices against the whole-edge scan:
        # the search's generators, each also times a random transposition,
        # random permutations, non-bijections, and arrays holding a bool or
        # a float
        rng = random.Random(18)
        verdicts = set()
        for g in oracle_graphs(rng):
            n = g.n
            cases = [list(p.images) for p in automorphism_group(g).generators]
            for images in cases[:]:
                a, b = rng.sample(range(n), 2)
                images = images[:]
                images[a], images[b] = images[b], images[a]
                cases.append(images)
            for _ in range(3):
                cases.append(rng.sample(range(n), n))
            for images in cases[:]:
                i = rng.randrange(n)
                j = images.index(rng.randrange(min(n, 2)))  # a 0 or a 1
                for k, x in ((i, images[i - 1]), (i, n), (i, -1),
                             (i, float(images[i])), (j, bool(images[j]))):
                    bad = images[:]
                    bad[k] = x
                    cases.append(bad)
                cases += [images[:-1], images + [n], tuple(images)]
            for images in cases:
                verdict = g.is_automorphism(images)
                assert verdict == is_automorphism_by_edge_scan(g, images)
                verdicts.add(verdict)
        assert verdicts == {True, False}

import argparse
import copy
import hashlib
import json
import random
import re
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from halinkit.graphs import (GRAPH6_HEADER, Graph, Graph6Error,
                             TruncatedFamily, binary_tree, comb, complete,
                             complete_bipartite, cycle, encode_graph6,
                             from_json, is_connected, make_family,
                             parse_graph6, path, petersen, to_json)

from corpus import small_corpus
from oracles import is_connected_by_bfs


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert len(g.edges) == 1

    def test_equality_is_n_plus_edges(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])
        assert Graph(2, [], labels=["a", "b"]) == Graph(2, [])

    def test_neighbors(self):
        g = path(4)
        assert g.neighbors(1) == frozenset({0, 2})
        assert g.degree(0) == 1

    @pytest.mark.parametrize("images", [
        [1.0, 0.0], [True, False], [1, False], [1.0, 0], [None, 0],
        [1, 0, 2], [0, 0]])
    def test_is_automorphism_wants_a_permutation_of_ints(self, images):
        # the images Permutation rejects are no automorphism either
        g = complete(2)
        assert not g.is_automorphism(images)
        assert g.is_automorphism([1, 0]) and g.is_automorphism((0, 1))


class TestInputChecks:
    """Types the vertex count and endpoints must have; the neighbour sets
    are built lazily, so none of this may rest on indexing them."""

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
    def test_non_integer_vertex_count(self, n):
        with pytest.raises(TypeError):
            Graph(n, [])

    def test_float_count_message_is_pythons(self):
        with pytest.raises(TypeError, match="'float' object cannot be "
                                            "interpreted as an integer"):
            Graph(2.5, [])

    # a bool endpoint would make Graph(3, [(True, 2)]) equal Graph(3,
    # [(1, 2)]) with another digest, and to_json write [[true, 2]]
    @pytest.mark.parametrize("edge", [(0.0, 1.0), (0, 1.0), ("0", 1),
                                      (None, 1), (True, 2), (1, False),
                                      (True, True)])
    def test_non_int_endpoints(self, edge):
        with pytest.raises(TypeError, match="endpoints must be ints"):
            Graph(3, [edge])

    def test_index_types_are_read_as_ints(self):
        g = Graph(True, [])
        assert g.n == 1 and type(g.n) is int
        assert to_json(g) == {"n": 1, "edges": []}

    def test_value_checks_stay_value_errors(self):
        with pytest.raises(ValueError):
            Graph(3, [(-1, 0)])
        with pytest.raises(ValueError):
            Graph(-1, [])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1, 2)])


def eager_adjacency(g):
    adj = [set() for _ in range(g.n)]
    for i, j in sorted(g.edges):
        adj[i].add(j)
        adj[j].add(i)
    return adj


def every_graph(n):
    possible = list(combinations(range(n), 2))
    for mask in range(1 << len(possible)):
        yield Graph(n, [e for k, e in enumerate(possible) if mask >> k & 1])


class TestLazyAdjacency:
    GRAPHS = [Graph(0), Graph(1), Graph(2), Graph(2, [(1, 0)]), path(5),
              cycle(7), petersen(), complete_bipartite(2, 5),
              binary_tree(4).graph, comb(5).graph, Graph(5, [(0, 4)])]

    def assert_matches_eager(self, g):
        adj = eager_adjacency(g)
        for v in range(g.n):
            assert g.neighbors(v) == adj[v]
            assert g.degree(v) == len(adj[v])
            for w in range(g.n):
                assert g.has_edge(v, w) == (w in adj[v])

    def test_matches_eager_adjacency(self):
        for g in self.GRAPHS + [g for _, g in small_corpus()]:
            self.assert_matches_eager(g)

    @settings(max_examples=60)
    @given(st.data())
    def test_matches_eager_adjacency_on_random_edges(self, data):
        n = data.draw(st.integers(min_value=0, max_value=12))
        possible = list(combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(possible))) \
            if possible else []
        self.assert_matches_eager(Graph(n, edges))

    def test_adjacency_is_built_once_on_first_use(self):
        g = cycle(5)
        assert g._adj is None
        assert g.adjacency is g.adjacency
        assert g.adjacency[0] == frozenset({1, 4})

    def test_edge_list_is_sorted_whatever_the_input_order(self):
        tree = binary_tree(5).graph
        shuffled = list(tree.edges)
        random.Random(5).shuffle(shuffled)
        reversed_json = {"n": 10, "edges": [[j, i] for i, j in
                                            sorted(petersen().edges)][::-1]}
        inputs = [
            Graph(tree.n, shuffled),
            parse_graph6(encode_graph6(petersen())),  # column by column
            parse_graph6(encode_graph6(complete(9))),
            from_json(reversed_json),
            Graph(4, [(2, 3), (1, 0), (3, 2), (0, 1), (0, 3), (3, 0)]),
            Graph(3), cycle(6), comb(4).graph,
        ]
        for g in inputs:
            assert g.edge_list() == sorted(g.edges)
        assert inputs[3] == petersen()


class TestClosedFormFamilies:
    """A truncated family's vertex count, boundary, edges and report input
    are closed forms of its depth; they must equal what the graph it builds
    on first use says, and limit-sim must need no graph at all."""

    @pytest.mark.parametrize("kind, depth",
                             [("binary-tree", d) for d in range(1, 15)]
                             + [("comb", d) for d in range(1, 61)])
    def test_closed_forms_match_the_built_graph(self, kind, depth):
        from halinkit.cli import _report
        family = make_family(kind, depth=depth)
        g = family.graph  # built and checked on this first use
        assert family.n == g.n
        assert family.edge_list() == g.edge_list() == sorted(g.edges)
        assert len(family.edge_list()) == len(g.edges) == g.n - 1
        # the depth labels and the boundary, against breadth-first depths
        depth_of = nx.single_source_shortest_path_length(
            nx.Graph(list(g.edges)), 0)
        assert is_connected(g) and len(depth_of) == g.n
        assert g.labels == tuple(str(depth_of[v]) for v in range(g.n))
        assert frozenset(family.boundary) == {
            v for v, d in depth_of.items() if d == depth}
        payload = f"{g.n};" + ",".join(f"{i}-{j}" for i, j in sorted(g.edges))
        expected = {"digest": "sha256:" + hashlib.sha256(
            payload.encode()).hexdigest(), "n": g.n, "edges": len(g.edges)}
        args = argparse.Namespace(subcommand="limit-sim")
        for source in (family, g):
            assert _report(args, source, {}, 0.0)["input"] == expected

    def test_graph_is_built_and_checked_on_each_read(self, monkeypatch):
        family = binary_tree(3)
        first, second = family.graph, family.graph
        assert first == second and first.labels == second.labels
        assert copy.copy(family) == family == ("binary-tree", 3)
        monkeypatch.setattr(TruncatedFamily, "edge_list",
                            lambda self: [(0, 1)])
        with pytest.raises(ValueError, match="connected"):
            binary_tree(3).graph
        monkeypatch.undo()
        monkeypatch.setattr(TruncatedFamily, "boundary",
                            property(lambda self: range(14, 15)))
        with pytest.raises(ValueError, match="depth-D vertices"):
            binary_tree(3).graph

    def test_limit_sim_builds_no_graph(self, capsys, monkeypatch):
        from halinkit import cli
        argv = ["limit-sim", "--family", "binary-tree", "--depth", "12",
                "--k", "6"]
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out

        def refuse(self, *args, **kwargs):
            raise AssertionError("limit-sim built a Graph")

        monkeypatch.setattr(Graph, "__init__", refuse)
        assert cli.main(argv) == 0
        wall = re.compile(r'"wall_time_ms":[0-9.]+')
        assert wall.sub("", capsys.readouterr().out) == wall.sub("", expected)


class TestConnectivity:
    """Union-find ``is_connected`` against the breadth-first reference."""

    def test_matches_bfs_on_the_corpus(self):
        for name, g in small_corpus():
            assert is_connected(g) == is_connected_by_bfs(g), name

    def test_matches_bfs_on_every_graph_up_to_five_vertices(self):
        for n in range(6):
            for g in every_graph(n):
                assert is_connected(g) == is_connected_by_bfs(g), g.edges

    @pytest.mark.parametrize("g, connected", [
        (Graph(0), True), (Graph(1), True), (Graph(2), False),
        (Graph(2, [(0, 1)]), True),
        (Graph(5, [(0, 1), (1, 2), (2, 3)]), False),  # isolated vertex 4
        (Graph(5, [(1, 2), (2, 3), (3, 4)]), False),  # isolated vertex 0
        (Graph(8, [(i, (i + 1) % 4) for i in range(4)]
               + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]), False),
        (Graph(8, [(i, (i + 1) % 4) for i in range(4)]
               + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
               + [(3, 4)]), True),
    ])
    def test_small_cases(self, g, connected):
        assert is_connected(g) is connected
        assert is_connected_by_bfs(g) is connected

    @settings(max_examples=100)
    @given(st.data())
    def test_matches_bfs_on_random_edges(self, data):
        n = data.draw(st.integers(min_value=0, max_value=20))
        possible = list(combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(possible),
                                   max_size=2 * n)) if possible else []
        g = Graph(n, edges)
        assert is_connected(g) == is_connected_by_bfs(g)


class TestGraph6:
    def test_hand_decoded_example(self):
        # 'D' = 5 vertices; bits 000000 111100 = edges (0,4),(1,4),(2,4),(3,4)
        g = parse_graph6("D?{")
        assert g.n == 5
        assert g.edges == frozenset({(0, 4), (1, 4), (2, 4), (3, 4)})

    def test_single_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1 and not g.edges

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<D?{") == parse_graph6("D?{")
        assert encode_graph6(parse_graph6("D?{"), header=True) == ">>graph6<<D?{"

    def test_trailing_newline_ok(self):
        assert parse_graph6("D?{\n") == parse_graph6("D?{")

    def test_truncated_reports_offset(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("D?")
        assert exc.value.offset == 2

    def test_out_of_range_byte_offset(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("D?\x1f")
        assert exc.value.offset == 2

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("D?{?")
        assert exc.value.offset == 3

    def test_bad_header(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(">>digraph6<<D?{")
        assert exc.value.offset == 0

    def test_nonzero_padding_rejected(self):
        # path(2) is 'A_'; 'A' + chr(63+1) has a stray bit in the padding
        assert parse_graph6("A_").edges == frozenset({(0, 1)})
        with pytest.raises(Graph6Error):
            parse_graph6("A" + chr(63 + 1))

    def test_empty_input(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("bad", [" ", "\x7f", "\u00e9"])
    def test_out_of_range_data_byte_names_its_offset(self, k, bad):
        code = encode_graph6(cycle(10))  # 'I' and eight data bytes
        with pytest.raises(Graph6Error, match="byte out of range") as exc:
            parse_graph6(code[:k] + bad + code[k + 1:])
        assert exc.value.offset == k

    def test_nonzero_padding_names_the_last_byte(self):
        # n = 10 has 45 bits: the eighth data byte (offset 8) holds 3 of them
        code = encode_graph6(cycle(10))  # ends in '_', bits 100000
        padded = code[:-1] + chr(ord(code[-1]) + 1)  # sets a padding bit
        with pytest.raises(Graph6Error, match="padding") as exc:
            parse_graph6(padded)
        assert exc.value.offset == 8

    # each order form at its ends: the header alone, n's six-bit digits + 63
    ORDER_HEADERS = {62: "}", 63: "~??~", 258047: "~}~~",
                     258048: "~~???~??", 2 ** 36 - 1: "~~~~~~~~"}

    @pytest.mark.parametrize("n", sorted(ORDER_HEADERS))
    @pytest.mark.parametrize("header", ["", GRAPH6_HEADER])
    def test_order_form_boundaries(self, n, header):
        # the byte count N = ceil(n(n-1)/2 / 6) fixes the decoded n
        data = header + self.ORDER_HEADERS[n]
        need = (n * (n - 1) // 2 + 5) // 6
        with pytest.raises(Graph6Error, match=rf"truncated adjacency data: "
                           rf"need {need} bytes, have 0 \(") as exc:
            parse_graph6(data + "\n")
        assert exc.value.offset == len(data)

    @pytest.mark.parametrize("n", [258047, 258048, 2 ** 36 - 1])
    def test_truncated_vertex_count_in_long_forms(self, n):
        code = self.ORDER_HEADERS[n]
        for k in range(1, len(code)):
            with pytest.raises(Graph6Error, match="truncated vertex count") as exc:
                parse_graph6(code[:k])
            assert exc.value.offset == k

    @pytest.mark.parametrize("n", [258047, 258048, 2 ** 36 - 1])
    @pytest.mark.parametrize("bad", [" ", "\x7f", "é"])
    def test_out_of_range_byte_in_long_forms(self, n, bad):
        code = self.ORDER_HEADERS[n]
        first = 1 if len(code) == 4 else 2  # past the prefix "~" or "~~"
        for k in range(first, len(code)):
            with pytest.raises(Graph6Error, match="byte out of range") as exc:
                parse_graph6(code[:k] + bad + code[k + 1:])
            assert exc.value.offset == k

    @pytest.mark.parametrize("n", [*range(1, 71), 100])
    def test_parse_matches_networkx_on_random_graphs(self, n):
        rng = random.Random(n)
        nxg = nx.gnp_random_graph(n, rng.choice([0.05, 0.3, 0.7]),
                                  seed=rng.randrange(2 ** 32))
        code = nx.to_graph6_bytes(nxg, header=False).strip()
        g = parse_graph6(code.decode())
        theirs = nx.from_graph6_bytes(code)
        assert g.n == theirs.number_of_nodes() == n
        assert g.edges == {tuple(sorted(e)) for e in theirs.edges}

    @pytest.mark.parametrize("g", [
        path(1), path(2), path(8), cycle(5), complete(7), petersen(),
        complete_bipartite(3, 4), Graph(4), path(63), cycle(100),
    ])
    def test_round_trip(self, g):
        assert parse_graph6(encode_graph6(g)) == g

    def test_round_trip_whole_corpus(self):
        from corpus import small_corpus
        for name, g in small_corpus():
            assert parse_graph6(encode_graph6(g)) == g, name

    def test_long_form_matches_networkx(self):
        # n = 62 is the last one-byte order form and n = 63 the first "~" form
        near = [Graph(n, nx.gnp_random_graph(n, 0.3, seed=n).edges)
                for n in (62, 63, 64)]
        for g in [path(63), cycle(80), complete_bipartite(9, 60), *near,
                  Graph(62), Graph(63)]:
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(g.edges)
            theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
            assert encode_graph6(g) == theirs
            assert parse_graph6(theirs) == g

    @settings(max_examples=60)
    @given(st.data())
    def test_round_trip_random_matches_networkx(self, data):
        n = data.draw(st.integers(min_value=0, max_value=70))
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(possible), unique=True)) \
            if possible else []
        g = Graph(n, edges)
        code = encode_graph6(g)
        assert parse_graph6(code) == g
        decoded = nx.from_graph6_bytes(code.encode())
        assert {tuple(sorted(e)) for e in decoded.edges} == set(g.edges)
        assert set(decoded.nodes) == set(range(n))


class TestJsonFormat:
    def test_round_trip(self):
        g = cycle(5)
        assert from_json(json.dumps(to_json(g))) == g

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            from_json({"n": 2, "edges": [], "weight": 3})

    def test_missing_field(self):
        with pytest.raises(ValueError):
            from_json({"n": 2})

    def test_labels_preserved(self):
        g = from_json({"n": 2, "edges": [[0, 1]], "labels": ["a", "b"]})
        assert g.labels == ("a", "b")

    @pytest.mark.parametrize("edges", [
        {"0": 1}, [(0, 1)], [[0, 1], [1]], [[0, 1, 2]], [[0, 1], 2],
        [[0, True]], [[False, 1]], [[0, 1.0]], [[0, "1"]], [[0, None]],
        [[0, 1], [[1], 2]]])
    def test_malformed_edges_rejected(self, edges):
        with pytest.raises(ValueError, match=r"'edges' must be a list of "
                                             r"\[i, j\] pairs"):
            from_json({"n": 3, "edges": edges})

    def test_int_subclass_endpoint_reaches_graph(self):
        # it passes the JSON check as an int, and Graph rejects it
        class Vertex(int):
            pass

        with pytest.raises(TypeError, match="must be ints"):
            from_json({"n": 3, "edges": [[0, Vertex(1)]]})


class TestFamilies:
    def test_cycle4(self):
        g = cycle(4)
        assert g.n == 4
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})

    def test_path1(self):
        g = path(1)
        assert g.n == 1 and not g.edges

    def test_binary_tree_counts(self):
        fam = binary_tree(2)
        assert fam.graph.n == 7
        assert len(fam.graph.edges) == 6
        assert fam.boundary == range(3, 7)

    @pytest.mark.parametrize("depth", [1, 2, 5])
    def test_binary_tree_size_formula(self, depth):
        fam = binary_tree(depth)
        assert fam.graph.n == 2 ** (depth + 1) - 1
        assert len(fam.graph.edges) == 2 ** (depth + 1) - 2

    def test_comb_structure(self):
        fam = comb(2)
        g = fam.graph
        assert g.n == 7
        # spine 0-1-4, leaves 2,3 on 0 and 5,6 on 1
        assert g.neighbors(0) == frozenset({1, 2, 3})
        assert g.neighbors(1) == frozenset({0, 4, 5, 6})
        assert fam.boundary == range(4, 7)

    def test_all_families_connected(self):
        graphs = [path(5), cycle(6), complete(4), complete_bipartite(2, 3),
                  petersen(), binary_tree(3).graph, comb(3).graph]
        assert all(is_connected(g) for g in graphs)

    def test_is_connected_cases(self):
        assert is_connected(cycle(5))
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
        assert is_connected(path(1))

    def test_make_family_dispatch(self):
        assert make_family("petersen").n == 10
        assert make_family("cycle", n=5) == cycle(5)
        assert make_family("binary-tree", depth=2).graph.n == 7
        with pytest.raises(ValueError):
            make_family("cube")
        with pytest.raises(ValueError):
            make_family("path")

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            path(0)
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            binary_tree(0)

import inspect
import io
import json
import os
import platform
import random
import re
import resource
import subprocess
import sys
import time

import pytest

import halinkit
from halinkit import cli
from halinkit.autgroup import automorphism_group
from halinkit.cli import _sample_elements, main
from halinkit.graphs import (Graph, binary_tree, complete, complete_bipartite,
                             cycle, encode_graph6, path, petersen, to_json)
from halinkit.groups import PermGroup
from halinkit.limitsim import alpha_perm, depth_budget
from halinkit.perms import Permutation

from oracles import sample_by_listing, sample_by_products


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out):
    report = json.loads(out)
    report.pop("wall_time_ms")
    return report


class TestAut:
    def test_petersen_order(self, capsys):
        code, out, _ = run_cli(capsys, "aut", "--family", "petersen")
        assert code == 0
        assert payload(out)["results"]["order"] == 120

    def test_path3(self, capsys):
        code, out, _ = run_cli(capsys, "aut", "--family", "path", "--n", "3")
        assert code == 0
        assert payload(out)["results"]["order"] == 2

    def test_malformed_graph6_exit2(self, capsys, tmp_path):
        bad = tmp_path / "bad.g6"
        bad.write_text("D?")
        code, out, err = run_cli(capsys, "aut", "--input", str(bad))
        assert code == 2
        assert "offset" in err

    def test_search_deeper_than_the_recursion_limit_exit4(self, capsys):
        # the search recurses once per first-path level; K_n has n - 1, so
        # a lowered limit stands in for the default 1,000 and K_1100
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 150)
        try:
            code, out, err = run_cli(capsys, "aut", "--family", "complete",
                                     "--n", "300")
        finally:
            sys.setrecursionlimit(limit)
        assert code == 4 and out == ""
        assert err.startswith(
            "halinkit: resource limit: maximum recursion depth exceeded")

    def test_out_of_memory_exit4(self, capsys, monkeypatch):
        def exhausted(g):
            raise MemoryError

        monkeypatch.setattr(cli, "automorphism_group", exhausted)
        code, out, err = run_cli(capsys, "aut", "--family", "cycle",
                                 "--n", "5")
        assert (code, out) == (4, "")
        assert err == "halinkit: resource limit: out of memory\n"

    def test_missing_input_exit2(self, capsys):
        code, _, err = run_cli(capsys, "aut")
        assert code == 2


class TestInvariantCommands:
    def test_cost_cycle6(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--family", "cycle", "--n", "6")
        assert code == 0
        results = payload(out)["results"]
        assert results["rho"] == 3 and results["exists"]
        assert results["witness"] == [0, 1, 3]

    def test_cost_complete4_none(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--family", "complete", "--n", "4")
        assert code == 0
        results = payload(out)["results"]
        assert results["rho"] is None and not results["exists"]

    def test_base_cycle6(self, capsys):
        code, out, _ = run_cli(capsys, "base", "--family", "cycle", "--n", "6")
        assert code == 0
        assert payload(out)["results"]["determining_number"] == 2

    def test_motion_complete5(self, capsys):
        code, out, _ = run_cli(capsys, "motion", "--family", "complete", "--n", "5")
        assert code == 0
        assert payload(out)["results"]["motion"] == 2

    def test_motion_trivial_group_exit3(self, capsys, tmp_path):
        # asymmetric spider: trivial automorphism group
        blob = {"n": 7, "edges": [[0, 1], [0, 2], [2, 3], [0, 4], [4, 5], [5, 6]]}
        f = tmp_path / "spider.json"
        f.write_text(json.dumps(blob))
        code, _, err = run_cli(capsys, "motion", "--input", str(f))
        assert code == 3

    def test_greedy_cycle8(self, capsys):
        code, out, _ = run_cli(capsys, "greedy", "--family", "cycle",
                               "--n", "8", "--base", "0,1")
        assert code == 0
        results = payload(out)["results"]
        assert results["chain"]["final_size"] == 3
        assert results["bounds"]["cost_bound"] == 3
        assert results["within_bound"] is True

    def test_greedy_non_base_exit3(self, capsys):
        code, _, err = run_cli(capsys, "greedy", "--family", "cycle",
                               "--n", "8", "--base", "0")
        assert code == 3

    def test_budget_env_exit4(self, capsys, monkeypatch):
        monkeypatch.setenv("HALINKIT_BUDGET", "2")
        code, _, err = run_cli(capsys, "cost", "--family", "cycle", "--n", "6")
        assert code == 4
        assert "budget exhausted at size 2" in err

    def test_negative_budget_exit2(self, capsys, monkeypatch):
        monkeypatch.setenv("HALINKIT_BUDGET", "-5")
        code, _, err = run_cli(capsys, "base", "--family", "cycle", "--n", "6")
        assert code == 2
        assert "HALINKIT_BUDGET" in err


class TestLimitSim:
    def test_depth12_k3(self, capsys):
        code, out, _ = run_cli(capsys, "limit-sim", "--family", "binary-tree",
                               "--depth", "12", "--k", "3")
        assert code == 0
        results = payload(out)["results"]
        assert results["distinctness"] == {"pairs": 28, "witnessed": 28}
        assert results["inverse_consistency"] is True
        assert results["construction"]["completed_rounds"] == 3

    def test_depth13_k10(self, capsys):
        code, out, _ = run_cli(capsys, "limit-sim", "--family", "binary-tree",
                               "--depth", "13", "--k", "10")
        assert code == 0
        results = payload(out)["results"]
        assert results["distinctness"] == {"pairs": 523776,
                                           "witnessed": 523776}
        assert results["inverse_consistency"] is True

    def test_comb_k12_at_the_budget_edge(self, capsys):
        # C(4096, 2) = 8386560 pairs, counted from the certificate's
        # 2^13 - 2 period entries; no word or pair object is built
        code, out, _ = run_cli(capsys, "limit-sim", "--family", "comb",
                               "--depth", "26", "--k", "12")
        assert code == 0
        results = payload(out)["results"]
        assert results["distinctness"] == {"pairs": 8386560,
                                           "witnessed": 8386560}
        assert results["inverse_consistency"] is True

    @pytest.mark.parametrize("budget, code", [("13", 4), ("14", 0)])
    def test_pair_budget(self, capsys, monkeypatch, budget, code):
        # K = 3 has 2 + 4 + 8 = 14 period entries
        monkeypatch.setenv("HALINKIT_BUDGET", budget)
        got, out, err = run_cli(capsys, "limit-sim", "--family", "binary-tree",
                                "--depth", "12", "--k", "3")
        assert got == code
        if code == 4:
            assert out == ""
            assert err == ("halinkit: resource limit: pair certificate for "
                           "--k 3 needs 2^4 - 2 period entries, budget 13\n")

    def test_comb_k13_past_the_old_pair_budget(self, capsys):
        # C(8192, 2) pairs exceed 10^7, but 2^14 - 2 period entries do not
        code, out, _ = run_cli(capsys, "limit-sim", "--family", "comb",
                               "--depth", "28", "--k", "13")
        assert code == 0
        results = payload(out)["results"]
        assert results["distinctness"] == {"pairs": 33550336,
                                           "witnessed": 33550336}

    @pytest.mark.parametrize("depth, k", [("48", "23"), ("602", "300")])
    def test_over_budget_is_refused_before_the_construction(
            self, capsys, monkeypatch, depth, k):
        def refused(*args):
            raise AssertionError("run_construction called past the budget")
        monkeypatch.setattr(cli, "run_construction", refused)
        start = time.process_time()
        code, out, err = run_cli(capsys, "limit-sim", "--family", "comb",
                                 "--depth", depth, "--k", k)
        assert time.process_time() - start < 1
        assert (code, out) == (4, "")
        assert err == (f"halinkit: resource limit: pair certificate for --k "
                       f"{k} needs 2^{int(k) + 1} - 2 period entries, "
                       "budget 10000000\n")

    def test_huge_k_is_refused_without_computing_2_to_the_k(self):
        src = os.path.dirname(os.path.dirname(halinkit.__file__))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(
            [sys.executable, "-m", "halinkit.cli", "limit-sim", "--family",
             "comb", "--depth", "3", "--k", "1000000000"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert (after.ru_utime + after.ru_stime
                - before.ru_utime - before.ru_stime) < 1
        assert (proc.returncode, proc.stdout) == (4, "")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr

    def test_malformed_budget_exit2_even_when_exhausted(self, capsys,
                                                         monkeypatch):
        monkeypatch.setenv("HALINKIT_BUDGET", "x")
        code, out, err = run_cli(capsys, "limit-sim", "--family",
                                 "binary-tree", "--depth", "2", "--k", "5")
        assert (code, out) == (2, "")
        assert "HALINKIT_BUDGET must be an integer" in err

    def test_k0_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "limit-sim", "--family", "binary-tree",
                               "--depth", "5", "--k", "0")
        assert code == 2

    def test_bad_family_size_exit2(self, capsys):
        code, _, err = run_cli(capsys, "limit-sim", "--family", "comb",
                               "--depth", "0", "--k", "2")
        assert code == 2
        assert "depth" in err

    def test_exhausted_exit4(self, capsys):
        code, out, _ = run_cli(capsys, "limit-sim", "--family", "binary-tree",
                               "--depth", "2", "--k", "5")
        assert code == 4
        results = payload(out)["results"]
        assert results["construction"]["completed_rounds"] < 5
        assert results["construction"]["exhausted"] is True

    @pytest.mark.parametrize("family", ["binary-tree", "comb"])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_cauchy_sequence_is_the_prefix_products(self, capsys, monkeypatch,
                                                    family, k):
        states, seqs = [], []
        run, check = cli.run_construction, cli.check_cauchy
        monkeypatch.setattr(cli, "run_construction",
                            lambda *a: states.append(run(*a)) or states[-1])
        monkeypatch.setattr(cli, "check_cauchy",
                            lambda e, seq: seqs.append(seq) or check(e, seq))
        code, _, _ = run_cli(capsys, "limit-sim", "--family", family,
                             "--depth", str(depth_budget(family, k)),
                             "--k", str(k))
        assert code == 0
        [state], [seq] = states, seqs
        assert seq == [alpha_perm(state, (1,) * (j + 1)) for j in range(k)]


class TestTopology:
    def test_identical_permutations(self, capsys):
        code, out, _ = run_cli(
            capsys, "topology", "--family", "cycle", "--n", "4",
            "--exhaustion", "0|0,1|0,1,2,3",
            "--pair", "[1,2,3,0]", "[1,2,3,0]")
        assert code == 0
        q = payload(out)["results"]["queries"][0]
        assert q["conf"] == "equal-on-all"
        assert q["d"] == "0" and q["d_star"] == "0"

    def test_one_pair_query_makes_three_distance_calls(self, capsys,
                                                       monkeypatch):
        # d once and d* twice, counted once each by a tracer that wraps
        # ``dist`` wherever the CLI could look it up, with one counter
        from halinkit import topology
        calls = []
        for module in (topology, cli):
            if hasattr(module, "dist"):
                def counted(*args, dist=module.dist):
                    calls.append(args)
                    return dist(*args)
                monkeypatch.setattr(module, "dist", counted)
        code, out, _ = run_cli(
            capsys, "topology", "--family", "cycle", "--n", "4",
            "--exhaustion", "0|0,1|0,1,2,3",
            "--pair", "[1,2,3,0]", "[1,2,0,3]")
        assert code == 0 and payload(out)["results"]["queries"][0]["d"] != "0"
        assert len(calls) == 3

    def test_triple_sweep_no_violations(self, capsys):
        code, out, _ = run_cli(
            capsys, "topology", "--family", "cycle", "--n", "8",
            "--exhaustion", "0,1|0,1,2,3|0,1,2,3,4,5,6,7",
            "--triples", "500", "--seed", "11")
        assert code == 0
        u = payload(out)["results"]["ultrametric"]
        assert u["triples"] == 500 and u["violations"] == []

    def test_non_nested_exit2(self, capsys):
        code, _, err = run_cli(
            capsys, "topology", "--family", "cycle", "--n", "4",
            "--exhaustion", "0,1|0,2")
        assert code == 2

    def test_negative_triples_exit2(self, capsys):
        code, out, err = run_cli(
            capsys, "topology", "--family", "cycle", "--n", "8",
            "--exhaustion", "0,1|0,1,2", "--triples", "-3")
        assert code == 2 and out == ""
        assert "--triples" in err

    @pytest.mark.parametrize("image", ["[1.0,0]", "[null,0]", "5",
                                       "[true,false]"])
    def test_non_integer_pair_exit2(self, capsys, image):
        # [true,false] would pass as the swap of 0 and 1: bool is an int
        code, out, err = run_cli(
            capsys, "topology", "--family", "path", "--n", "2",
            "--exhaustion", "0|0,1", "--pair", image, "[0,1]")
        assert code == 2 and out == ""
        assert "bad permutation pair" in err

    @pytest.mark.parametrize("image", ["5", "null", '"ab"', "{}", "[true,0]",
                                       "[1.5,0]", "[0,0]"])
    def test_bad_pair_exit2_without_traceback(self, capsys, image):
        # the CLI checks only for a JSON list; Permutation checks the entries
        code, out, err = run_cli(
            capsys, "topology", "--family", "path", "--n", "2",
            "--exhaustion", "0|0,1", "--pair", "[0,1]", image)
        assert code == 2 and out == ""
        assert err.startswith("halinkit: input error: bad permutation pair: ")
        assert "Traceback" not in err and err.count("\n") == 1

    ULTRAMETRIC = ("topology", "--family", "cycle", "--n", "8",
                   "--exhaustion", "0,1|0,1,2,3", "--triples")

    def test_triples_over_budget_exit4(self, capsys, monkeypatch):
        monkeypatch.setenv("HALINKIT_BUDGET", "2999")
        code, out, err = run_cli(capsys, *self.ULTRAMETRIC, "1000")
        assert code == 4 and out == ""
        assert err == ("halinkit: resource limit: ultrametric check needs "
                       "3000 samples, budget 2999\n")

    def test_triples_within_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("HALINKIT_BUDGET", "3000")
        code, out, _ = run_cli(capsys, *self.ULTRAMETRIC, "1000")
        assert code == 0
        assert payload(out)["results"]["ultrametric"]["violations"] == []

    def test_triples_malformed_budget_exit2(self, capsys, monkeypatch):
        monkeypatch.setenv("HALINKIT_BUDGET", "x")
        code, out, err = run_cli(capsys, *self.ULTRAMETRIC, "1")
        assert code == 2 and out == ""
        assert "HALINKIT_BUDGET" in err

    SAMPLER_GRAPHS = {
        "cycle7": cycle(7), "petersen": petersen(),
        "binary-tree5": binary_tree(5).graph, "path1": path(1),
        "path2": path(2), "K4": complete(4), "K5": complete(5),
        "K33": complete_bipartite(3, 3),
        # order 1: every draw is getrandbits(1) until it reads 0
        "rigid7": Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)]),
        # order 2^127: each draw takes four Mersenne Twister words
        "binary-tree7": binary_tree(7).graph}

    @staticmethod
    def assert_sampler_matches(group, oracle, counts=(0, 1, 31, 1000)):
        for seed in (0, 7, 123456):
            for count in counts:
                sample = _sample_elements(group, count, seed)
                assert sample == oracle(group, count, seed)
                assert sample == _sample_elements(group, count, seed)

    @pytest.mark.parametrize("name", SAMPLER_GRAPHS)
    def test_sampler_matches_product_oracle(self, name):
        group = automorphism_group(self.SAMPLER_GRAPHS[name])
        counts = (0, 1, 31) if name == "binary-tree7" else (0, 1, 31, 1000)
        self.assert_sampler_matches(group, sample_by_products, counts)
        assert all(map(group.contains, _sample_elements(group, 1000, 1)))

    @pytest.mark.parametrize("name", [  # binary trees: order 2^31, 2^127
        name for name in SAMPLER_GRAPHS if not name.startswith("binary-tree")])
    def test_sampler_matches_listing_oracle(self, name):
        self.assert_sampler_matches(
            automorphism_group(self.SAMPLER_GRAPHS[name]), sample_by_listing)

    @pytest.mark.parametrize("m", [100, 256, 300])
    def test_sampler_matches_listing_oracle_on_many_generators(self, m):
        # m random generators of degree 6: Sym(6) or Alt(6), built by
        # Schreier-Sims rather than read off the automorphism search
        rng = random.Random(m)
        group = PermGroup(6, [Permutation(rng.sample(range(6), 6))
                              for _ in range(m)])
        self.assert_sampler_matches(group, sample_by_listing)

    @pytest.mark.parametrize("m", [6, 8, 9, 64, 65, 255, 256, 300])
    def test_sampler_matches_product_oracle_on_many_generators(self, m):
        # degree 10: Sym(10) or Alt(10), more than a million elements
        rng = random.Random(m)
        degree = 10
        gens = [Permutation(rng.sample(range(degree), degree))
                for _ in range(m)]
        group = PermGroup(degree, gens)
        self.assert_sampler_matches(group, sample_by_products, (0, 1, 31))
        assert all(map(group.contains, _sample_elements(group, 1000, m)))

    def test_sampler_shares_equal_draws_and_reaches_every_element(self):
        group = automorphism_group(cycle(8))
        sample = _sample_elements(group, 1000, 3)
        assert len(set(sample)) == group.order() == 16
        assert len({id(p) for p in sample}) == 16


class TestParserReuse:
    """main builds its parser once; no call may see what an earlier one
    left behind, so each output equals the same call run first in a fresh
    interpreter."""

    CALLS = [
        ("topology", "--family", "cycle", "--n", "4", "--exhaustion", "0|0,1",
         "--pair", "[1,2,3,0]", "[1,2,0,3]",
         "--pair", "[0,1,2,3]", "[0,1,2,3]"),
        ("topology", "--family", "cycle", "--n", "4", "--exhaustion", "0|0,1"),
        ("topology", "--family", "cycle", "--n", "4", "--triples", "x"),
        ("greedy", "--family", "cycle", "--n", "8", "--base", "0,1"),
    ]
    WALL_TIME = re.compile(r',"wall_time_ms":[-+0-9.eE]+')

    def first_in_process(self, argv):
        src = os.path.dirname(os.path.dirname(halinkit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", "import sys\nfrom halinkit.cli import main\n"
             "sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True, env=env, timeout=120)
        return done.returncode, self.WALL_TIME.sub("", done.stdout), done.stderr

    def test_calls_share_no_state(self, capsys):
        expected = [self.first_in_process(argv) for argv in self.CALLS]
        assert [e[0] for e in expected] == [0, 0, 2, 0]
        for _ in range(2):
            for argv, want in zip(self.CALLS, expected):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                got = (code, self.WALL_TIME.sub("", captured.out), captured.err)
                assert got == want, argv


class TestInputChannels:
    def test_stdin_graph6(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(encode_graph6(cycle(6))))
        code, out, _ = run_cli(capsys, "aut", "--input", "-")
        assert code == 0
        assert payload(out)["results"]["order"] == 12

    def test_stdin_json(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(json.dumps(to_json(cycle(5)))))
        code, out, _ = run_cli(capsys, "aut", "--input", "-")
        assert code == 0
        assert payload(out)["results"]["order"] == 10

    def test_json_unknown_key_exit2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO('{"n": 2, "edges": [], "foo": 1}'))
        code, _, err = run_cli(capsys, "aut", "--input", "-")
        assert code == 2

    @pytest.mark.parametrize("blob", [
        '{"n": true, "edges": []}',
        '{"n": 2, "edges": [[false, true]]}',
        '{"n": 2, "edges": [[0, 1]], "labels": [0, 1]}',
    ], ids=["bool-n", "bool-endpoints", "int-labels"])
    def test_json_malformed_values_exit2(self, capsys, monkeypatch, blob):
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        code, out, err = run_cli(capsys, "aut", "--input", "-")
        assert code == 2 and out == ""
        assert "bad JSON graph" in err

    @pytest.mark.parametrize("raw", [
        b"\xff",
        '{"n": 2, "edges": [[0, 1]], "labels": ["\u00e9", "b"]}'.encode(),
    ], ids=["non-ascii-byte", "utf8-json-label"])
    def test_undecodable_file_exit2(self, capsys, tmp_path, raw):
        source = tmp_path / "g.in"
        source.write_bytes(raw)
        code, out, err = run_cli(capsys, "aut", "--input", str(source))
        assert code == 2 and out == ""
        assert err.startswith("halinkit: input error: cannot read")

    def test_undecodable_stdin_exit2(self, capsys, monkeypatch):
        # as sys.stdin reads under PYTHONIOENCODING=utf-8:strict
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(b"\xff"), encoding="utf-8", errors="strict"))
        code, out, err = run_cli(capsys, "aut", "--input", "-")
        assert code == 2 and out == ""
        assert err.startswith("halinkit: input error: cannot read -")

    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_graph6_n60(self, capsys, monkeypatch, tmp_path, via):
        # the graph6 size byte of a 60-vertex graph is chr(60 + 63) == "{"
        text = encode_graph6(cycle(60))
        assert text.startswith("{")
        source = "-"
        if via == "file":
            source = str(tmp_path / "c60.g6")
            with open(source, "w", encoding="ascii") as fh:
                fh.write(text + "\n")
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run_cli(capsys, "aut", "--input", source)
        assert code == 0
        assert payload(out)["results"]["order"] == 120


class TestDeterminism:
    COMMANDS = [
        ("aut", "--family", "petersen"),
        ("cost", "--family", "cycle", "--n", "6"),
        ("greedy", "--family", "cycle", "--n", "8", "--base", "0,1"),
        ("limit-sim", "--family", "binary-tree", "--depth", "8", "--k", "3"),
        ("topology", "--family", "cycle", "--n", "6",
         "--exhaustion", "0,1|0,1,2,3", "--triples", "100", "--seed", "5"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_repeated_runs_byte_identical(self, capsys, argv):
        outputs = set()
        for _ in range(10):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            stripped = json.loads(out)
            stripped.pop("wall_time_ms")
            outputs.add(json.dumps(stripped, sort_keys=True))
        assert len(outputs) == 1


class TestPretty:
    """``--pretty`` text of one request per command, minus its last line,
    the wall time."""

    CYCLE6 = ("sha256:03b8192e64a1eb1d6144fc2732e13a132187401048735f9befaa398"
              "c7750563e")
    CASES = {
        "aut": (("aut", "--family", "petersen"), [
            "command: aut",
            "input: n=10 edges=15 sha256:e7ad00c742420b6ceb891afdcb07142b38d"
            "a1f7644fb6b1773099acb041e2336",
            "order: 120",
            "generators (3):",
            "  [0, 1, 2, 7, 5, 4, 6, 3, 9, 8]",
            "  [0, 4, 3, 8, 5, 1, 9, 2, 6, 7]",
            "  [1, 2, 3, 8, 6, 0, 7, 4, 5, 9]",
        ]),
        "greedy": (("greedy", "--family", "cycle", "--n", "8", "--base", "0,1"), [
            "command: greedy",
            "input: n=8 edges=8 sha256:3939ae08ce95732343c44a5e811f770c89e61"
            "ed6c9bdb0db7283a661b79cbc30",
            "stabilizer chain:",
            "  step  set        stabilizer order",
            "  ----  ---------  ----------------",
            "  0     [0, 1]     2               ",
            "  1     [0, 1, 3]  1               ",
            "  stalled: False  completed: True",
            'bounds: {"chain_bound": 1, "cost_bound": 3, "n": 2, "popcount": 1}',
            "within_bound: true",
        ]),
        "limit-sim": (("limit-sim", "--family", "comb", "--depth", "4",
                       "--k", "3"), [
            "command: limit-sim",
            "input: n=13 edges=12 sha256:4eb9240dc3ca7ddc2a5311049f77121c80e"
            "2e4579fddd6dfda0e3173114ff09b",
            'construction: {"completed_rounds": 3, "depth": 4, "exhausted": '
            'false, "exhausted_prefix": 4, "family": "comb", "fsets": [[0], '
            '[0, 1, 2], [0, 1, 2, 3, 5], [0, 1, 2, 3, 5, 6, 8]], "phis": '
            '[[0, 1, 3, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12], '
            '[0, 1, 2, 3, 4, 6, 5, 7, 8, 9, 10, 11, 12], '
            '[0, 1, 2, 3, 4, 5, 6, 7, 9, 8, 10, 11, 12]], '
            '"requested_rounds": 3, "xs": [2, 5, 8]}',
            'distinctness: {"pairs": 28, "witnessed": 28}',
            "cauchy table (max tail distance per round):",
            "  k  max d",
            "  -  -----",
            "  0  1/4  ",
            "  1  1/8  ",
            "inverse_consistency: true",
        ]),
        "topology": (("topology", "--family", "cycle", "--n", "4",
                      "--exhaustion", "0|0,1|0,1,2,3",
                      "--pair", "[1,2,3,0]", "[0,1,2,3]"), [
            "command: topology",
            "input: n=4 edges=4 sha256:dc213bfd5d7f0a3647a9761a008855a298a4c"
            "1437e3859f4bc79b3e88c2a7cde",
            "exhaustion: [[0], [0, 1], [0, 1, 2, 3]]",
            "covers: true",
            "distance queries:",
            "  a             b             conf  d  d*",
            "  ------------  ------------  ----  -  --",
            "  [1, 2, 3, 0]  [0, 1, 2, 3]  0     1  2 ",
        ]),
        "base": (("base", "--family", "cycle", "--n", "6"), [
            "command: base",
            f"input: n=6 edges=6 {CYCLE6}",
            "determining_number: 2",
            "witness: [0, 1]",
        ]),
        "cost": (("cost", "--family", "cycle", "--n", "6"), [
            "command: cost",
            f"input: n=6 edges=6 {CYCLE6}",
            "rho: 3",
            "witness: [0, 1, 3]",
            "exists: true",
        ]),
        "motion": (("motion", "--family", "complete", "--n", "5"), [
            "command: motion",
            "input: n=5 edges=10 sha256:e73809d7b5880e4fe0caffb0d166c9ac2acb"
            "41e2630b206835cf19fa2da3fcdd",
            "motion: 2",
            "witness: [0, 1, 2, 4, 3]",
        ]),
    }

    @pytest.mark.parametrize("command", CASES)
    def test_rendered_text(self, capsys, command):
        argv, expected = self.CASES[command]
        code, out, err = run_cli(capsys, *argv, "--pretty")
        assert (code, err) == (0, "")
        *lines, wall = out.split("\n")[:-1]
        assert re.fullmatch(r"wall time: [0-9.]+ ms", wall)
        assert lines == expected


class TestImportPath:
    """``import halinkit.cli`` loads only what every command needs; the
    modules a few commands need are imported where they are used."""

    DEFERRED = ("dataclasses", "inspect", "typing", "fractions", "decimal",
                "random", "platform")
    PROBE = (
        "import contextlib, io, json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import halinkit.cli\n"
        "loaded = sorted(m for m in sys.argv[2:] if m in sys.modules)\n"
        "from halinkit.perms import Permutation\n"
        "from halinkit.topology import Exhaustion, dist\n"
        "d = dist(Exhaustion.prefixes(3), Permutation([0, 2, 1]),\n"
        "         Permutation.identity(3))\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = halinkit.cli.main(['topology', '--family', 'cycle',\n"
        "        '--n', '6', '--exhaustion', '0,1|0,1,2,3', '--triples',\n"
        "        '20', '--seed', '5'])\n"
        "print(json.dumps({'loaded': loaded, 'dist': repr(d), 'code': code,\n"
        "    'results': json.loads(out.getvalue())['results']}))\n")

    def test_cli_import_defers_the_heavy_modules(self):
        src = os.path.dirname(os.path.dirname(halinkit.__file__))
        done = subprocess.run(  # -S: no site hooks that import on their own
            [sys.executable, "-S", "-c", self.PROBE, src, *self.DEFERRED],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        probe = json.loads(done.stdout)
        assert probe["loaded"] == []
        assert probe["dist"] == "Fraction(1, 2)"
        assert probe["code"] == 0
        assert probe["results"]["ultrametric"] == {"triples": 20,
                                                  "violations": []}

    EAGER = ["halinkit", "halinkit.autgroup", "halinkit.cli",
             "halinkit.graphs", "halinkit.groups", "halinkit.perms"]
    # names that tracing tools wrap in the cli namespace as soon as it is
    # imported; a missing one would drop its metrics without an error
    CLI_NAMES = ("main", "parse_graph6", "from_json", "make_family",
                 "automorphism_group", "run_construction",
                 "verify_distinctness", "alpha_perm", "check_ultrametric",
                 "check_cauchy", "determining_number",
                 "distinguishing_cost", "motion",
                 "greedy_distinguishing_chain")
    COMMAND_PROBE = (
        "import contextlib, io, json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('halinkit'))\n"
        "import halinkit.cli\n"
        "at_import = loaded()\n"
        "missing = [n for n in json.loads(sys.argv[2])\n"
        "           if not callable(vars(halinkit.cli).get(n))]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = halinkit.cli.main(sys.argv[3:])\n"
        "print(json.dumps({'import': at_import, 'missing': missing,\n"
        "                  'code': code, 'run': loaded()}))\n")

    def probe_command(self, *argv):
        src = os.path.dirname(os.path.dirname(halinkit.__file__))
        done = subprocess.run(
            [sys.executable, "-S", "-c", self.COMMAND_PROBE, src,
             json.dumps(self.CLI_NAMES), *argv],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        probe = json.loads(done.stdout)
        assert probe["code"] == 0
        return probe

    def test_cli_import_loads_only_what_every_command_runs(self):
        probe = self.probe_command("aut", "--family", "petersen")
        assert probe["import"] == self.EAGER
        assert probe["missing"] == []

    @pytest.mark.parametrize("argv, loads", [
        (["aut", "--family", "cycle", "--n", "6"], []),
        (["base", "--family", "cycle", "--n", "6"], ["invariants"]),
        (["limit-sim", "--family", "comb", "--depth", "6", "--k", "3"],
         ["limitsim", "topology"]),
        (["topology", "--family", "cycle", "--n", "6", "--exhaustion",
          "0,1|0,1,2,3", "--triples", "20"], ["topology"]),
    ], ids=["aut", "base", "limit-sim", "topology"])
    def test_a_command_loads_only_the_modules_it_runs(self, argv, loads):
        probe = self.probe_command(*argv)
        assert probe["run"] == sorted(
            self.EAGER + [f"halinkit.{m}" for m in loads])

    def test_package_import_loads_submodules_on_first_use(self):
        probe = ("import json, sys\n"
                 "sys.path.insert(0, sys.argv[1])\n"
                 "def loaded():\n"
                 "    return sorted(m for m in sys.modules if 'halinkit' in m)\n"
                 "import halinkit\n"
                 "bare = loaded()\n"
                 "limitsim = halinkit.limitsim\n"
                 "perm = halinkit.Permutation\n"
                 "print(json.dumps({'bare': bare, 'after': loaded(),\n"
                 "    'same': [limitsim is sys.modules['halinkit.limitsim'],\n"
                 "             perm is sys.modules['halinkit.perms'].Permutation]}))\n")
        src = os.path.dirname(os.path.dirname(halinkit.__file__))
        done = subprocess.run([sys.executable, "-S", "-c", probe, src],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        assert result["bare"] == ["halinkit"]
        assert result["after"] == ["halinkit", "halinkit.graphs",
                                   "halinkit.limitsim", "halinkit.perms",
                                   "halinkit.topology"]
        assert result["same"] == [True, True]

    def test_report_python_is_platform_python_version(self, capsys):
        code, out, _ = run_cli(capsys, "aut", "--family", "petersen")
        assert code == 0
        assert payload(out)["versions"] == {
            "halinkit": halinkit.__version__,
            "python": platform.python_version()}


class TestLazyExports:
    """``halinkit`` exports its names through a module ``__getattr__``."""

    def test_star_import_binds_the_defining_modules_objects(self):
        namespace: dict = {}
        exec("from halinkit import *", namespace)
        assert namespace["__version__"] == halinkit.__version__ == "0.1.0"
        for name in halinkit.__all__[1:]:
            obj = namespace[name]
            assert obj.__module__.startswith("halinkit."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name
            assert getattr(halinkit, name) is obj, name

    def test_dir_lists_every_export(self):
        assert set(halinkit.__all__) <= set(dir(halinkit))
        assert len(set(halinkit.__all__)) == len(halinkit.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            halinkit.no_such_name
        assert not hasattr(halinkit, "no_such_name")
        with pytest.raises(ImportError):
            from halinkit import no_such_name  # noqa: F401

    def test_budget_error_is_one_object(self):
        import halinkit.groups
        import halinkit.invariants
        assert (halinkit.BudgetExceededError
                is halinkit.invariants.BudgetExceededError
                is halinkit.groups.BudgetExceededError)
        assert (cli.DEFAULT_SUBSET_BUDGET
                == halinkit.invariants.DEFAULT_SUBSET_BUDGET
                == halinkit.groups.DEFAULT_SUBSET_BUDGET == 10 ** 7)

    def test_cli_stand_ins_call_the_library(self):
        group = automorphism_group(cycle(6))
        from halinkit import invariants
        assert cli.determining_number(group) == invariants.determining_number(group)
        assert cli.motion.__name__ == "motion"


class TestGraphSizeLimit:
    """A graph with more vertices plus edges than DEFAULT_SUBSET_BUDGET is
    refused with exit 4: a family before it is built, --input once parsed."""

    @pytest.mark.parametrize("argv, counts", [
        (["limit-sim", "--family", "binary-tree", "--depth", "40", "--k", "2"],
         "2199023255551 vertices and 2199023255550 edges"),
        (["aut", "--family", "binary-tree", "--depth", str(10 ** 12)],
         "9223372036854775807 vertices and 9223372036854775806 edges"),
        (["aut", "--family", "complete", "--n", "100000"],
         "100000 vertices and 4999950000 edges"),
        (["motion", "--family", "complete-bipartite", "--n", "6400"],
         "6400 vertices and 10240000 edges"),
        (["base", "--family", "path", "--n", "5000001"],
         "5000001 vertices and 5000000 edges"),
        (["topology", "--family", "cycle", "--n", "5000001",
          "--exhaustion", "0"], "5000001 vertices and 5000001 edges"),
        (["cost", "--family", "comb", "--depth", "1666667"],
         "5000002 vertices and 5000001 edges"),
    ])
    def test_family_is_refused_before_it_is_built(self, capsys, argv, counts):
        start = time.process_time()
        code, out, err = run_cli(capsys, *argv)
        assert time.process_time() - start < 1
        assert (code, out) == (4, "")
        assert err == (f"halinkit: resource limit: graph has {counts}, "
                       "more than 10000000 together\n")

    @pytest.mark.parametrize("text, counts", [
        ('{"n": 1000000000, "edges": []}', "1000000000 vertices and 0 edges"),
        ('{"n": 9999999, "edges": [[0, 1], [1, 2]]}',
         "9999999 vertices and 2 edges"),
    ])
    def test_input_is_refused_once_parsed(self, capsys, tmp_path, text, counts):
        big = tmp_path / "big.json"
        big.write_text(text)
        start = time.process_time()
        code, out, err = run_cli(capsys, "aut", "--input", str(big))
        assert time.process_time() - start < 1
        assert (code, out) == (4, "")
        assert f"graph has {counts}, more than 10000000 together" in err

    def test_the_limit_counts_vertices_plus_edges(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_SUBSET_BUDGET", 99)
        assert run_cli(capsys, "aut", "--family", "path", "--n", "50")[0] == 0
        code, out, err = run_cli(capsys, "aut", "--family", "path", "--n", "51")
        assert (code, out) == (4, "")
        assert "51 vertices and 50 edges, more than 99 together" in err

    def test_family_sizes_in_closed_form_match_the_built_graphs(self):
        import argparse
        from halinkit.graphs import FAMILY_NAMES, make_family
        for name in FAMILY_NAMES:
            for size in range(1, 14):
                args = argparse.Namespace(family=name, n=size, depth=size)
                try:
                    built = make_family(name, n=size, depth=size)
                except ValueError:
                    continue
                g = built.graph if hasattr(built, "graph") else built
                assert cli._family_size(args) == (g.n, len(g.edges)), (name, size)

    @pytest.mark.parametrize("argv", [
        ["aut", "--family", "complete", "--n", "-100000"],
        ["aut", "--family", "complete-bipartite", "--n", "-100000"],
        ["aut", "--family", "binary-tree", "--depth", "-70"],
        ["aut", "--family", "path"],
    ])
    def test_a_size_the_family_rejects_still_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "input error" in err

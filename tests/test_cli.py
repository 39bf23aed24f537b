import io
import json

import pytest

from halinkit.cli import main
from halinkit.graphs import cycle, encode_graph6, to_json


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
        assert "budget" in err.lower()


class TestLimitSim:
    def test_depth12_k3(self, capsys):
        code, out, _ = run_cli(capsys, "limit-sim", "--family", "binary-tree",
                               "--depth", "12", "--k", "3")
        assert code == 0
        results = payload(out)["results"]
        assert results["distinctness"] == {"pairs": 28, "witnessed": 28}
        assert results["inverse_consistency"] is True
        assert results["construction"]["completed_rounds"] == 3

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

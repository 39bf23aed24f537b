"""Self-checks of the benchmark.  From the root of a checkout:

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these slow checks out of the repository's default
test collection.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from oracles import Oracle, verdict  # noqa: E402
from tracing import METRICS, Tracer  # noqa: E402


def bench(workload, seed, trace, seconds=0):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return out.stdout.splitlines()


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _, _ in METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_give_different_request_lists(workload, tmp_path):
    oracle = Oracle()
    first = workloads.build(workload, 1, str(tmp_path), oracle)
    second = workloads.build(workload, 2, str(tmp_path), oracle)
    again = workloads.build(workload, 1, str(tmp_path), oracle)

    def content(requests):
        return [(r["argv"], r["graph"]) for r in requests]
    assert content(first) != content(second)
    assert content(first) == content(again)
    assert len(first) == len(second)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_pass_holds_the_graph6_defect_at_n60(seed, tmp_path):
    requests = workloads.build("aut-large", seed, str(tmp_path), Oracle())
    defects = [r for r in requests if r.get("defect")]
    assert [r["graph"][0] for r in defects] == [60, 60]
    for r in defects:
        with open(r["argv"][2], encoding="ascii") as fh:
            assert fh.read(1) == "{"


def test_oracle_rejects_a_wrong_order():
    request = {"op": "aut", "argv": ["aut"], "graph": workloads.cycle(5)}
    report = {"command": "aut", "results": {"order": 5, "generators": []},
              "input": {"n": 5, "edges": 5, "digest": "x"}}
    assert verdict(Oracle(), request, {"order": 10}, 0, json.dumps(report), "")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_only_the_known_defect_fails(workload):
    lines = bench(workload, 1, trace=0)
    result = json.loads(lines[-1])
    failed, known = map(int, re.search(
        r"failed (\d+) .* (\d+) of them the known defect", lines[0]).groups())
    assert result["correct"] is True
    assert result["failed"] == failed == known


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload):
    def counts():
        metrics = json.loads(bench(workload, 3, trace=1)[-1])["metrics"]
        return {k: m["value"] for k, m in metrics.items()
                if m["unit"] in ("count", "bytes")}
    first = counts()
    assert first == counts()
    assert len(first) == sum(1 for _, unit, _ in METRICS
                             if unit in ("count", "bytes"))


def test_a_missing_public_name_drops_its_metrics(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    from halinkit import cli
    monkeypatch.delattr(cli, "alpha_perm")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.metrics(0, 0.0)
    assert "limitsim.alpha_perm.calls" not in metrics
    assert "limitsim.alpha_perm_s" not in metrics
    assert "limitsim.run_construction_s" in metrics

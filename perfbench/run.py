"""halinkit CLI benchmark: one seeded, closed-loop workload per run.

Run it from the root of a halinkit checkout:

    python3 perfbench/run.py --workload aut-large --seed 1 --seconds 20 --trace 0

Workloads: aut-large, invariants-small, limit-sim (see provenance.json).
The run times the import of halinkit in fresh interpreters, builds the
seed's request list and its input files, computes the oracle answers,
and then starts perfbench/worker.py, which replays the list through
halinkit.cli.main for --seconds.  Every answer is checked afterwards.
With --trace 1 the worker instead makes one plain and one traced pass and
the run reports the per-layer metrics.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.

Requests for a known defect (provenance.json, known_defects) that fail
in the known way count as failed but keep ``correct`` true; any other
failure makes it false.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import refprobe
import workloads
from oracles import Oracle, verdict

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
SETUP_RUNS = 15
RUN_LIMIT_S = 170
# A failed request has infinite latency; JSON has no infinity.
FAILED_LATENCY_MS = 1e12
IMPORT_PROBE = ("import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "from refprobe import probe\n"
                "speed = sorted(probe() for _ in range(5))[2]\n"
                "start = time.process_time()\n"
                "import halinkit, halinkit.cli\n"
                "print(time.process_time() - start, speed, halinkit.__file__)\n")


def measure_setup(root: str) -> float:
    """Median CPU time to import halinkit and halinkit.cli in a fresh
    interpreter, at reference speed (see refprobe.py)."""
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    times = []
    for i in range(SETUP_RUNS + 1):  # the first run writes the bytecode cache
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, HERE],
                               cwd=root, env=env, capture_output=True,
                               text=True, timeout=60, check=True)
        seconds, speed, path = probe.stdout.split()
        if not os.path.abspath(path).startswith(src + os.sep):
            raise RuntimeError(f"halinkit imported from {path}, not {src}")
        if i:
            times.append(float(seconds) * refprobe.NOMINAL_S / float(speed))
    return statistics.median(times)


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def judge(oracle, requests, expected, outputs):
    """Per request and distinct output: (passed, failed the known way),
    plus the unexpected failures."""
    verdicts, unexpected = [], []
    for request, want, outs in zip(requests, expected, outputs):
        row = []
        for code, out, err in outs:
            reason = verdict(oracle, request, want, code, out, err)
            known = (reason is not None and request.get("defect", False)
                     and code == 2 and "bad JSON graph" in err)
            if reason is not None and not known:
                unexpected.append((request["argv"], reason))
            row.append((reason is None, known))
        verdicts.append(row)
    return verdicts, unexpected


def run(args, root: str, work: str) -> int:
    setup_s = None if args.trace else measure_setup(root)
    oracle = Oracle()
    requests = workloads.build(args.workload, args.seed,
                               os.path.relpath(work, root), oracle)
    expected = [oracle.expect(r) for r in requests]
    requests_path = os.path.join(work, "requests.json")
    result_path = os.path.join(work, "result.json")
    spans_path = os.path.join(root, WORK_DIR,
                              f"spans-{args.workload}-seed{args.seed}.json")
    with open(requests_path, "w", encoding="utf-8") as fh:
        json.dump([r["argv"] for r in requests], fh)
    worker = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), requests_path,
         result_path, str(args.seconds), str(args.trace), spans_path],
        cwd=root, timeout=RUN_LIMIT_S - (perf_counter() - args.started))
    if worker.returncode != 0:
        print(f"perfbench: worker exited {worker.returncode}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    verdicts, unexpected = judge(oracle, requests, expected, result["outputs"])
    scaled = refprobe.scaled([s[1] for s in result["samples"]], result["probes"])
    latencies, passed, known = [], 0, 0
    for (i, _, k), latency in zip(result["samples"], scaled):
        ok, known_failure = verdicts[i][k]
        passed += ok
        known += known_failure
        latencies.append(latency * 1000 if ok else math.inf)
    passes = len(latencies) // len(requests)
    # Each request at its median over the passes, so that a slowdown the
    # probes miss moves only the sample it hit: pass_s is the CPU time of
    # one pass, typical the latency of each request in it.
    cost = [[] for _ in requests]
    typical = [[] for _ in requests]
    for (i, _, _), seconds, latency in zip(result["samples"], scaled, latencies):
        cost[i].append(seconds)
        typical[i].append(latency)
    pass_s = sum(statistics.median(c) for c in cost)
    typical = sorted(statistics.median(t) for t in typical)
    attempted = len(latencies)
    failed = attempted - passed
    for argv, reason in unexpected[:5]:
        print(f"perfbench: REJECTED {' '.join(argv)}: {reason}", file=sys.stderr)

    print(f"perfbench: {args.workload} seed {args.seed}: {attempted} requests "
          f"over a list of {len(requests)}; failed {failed} (failed_frac "
          f"{failed / attempted:.5f}, {known} of them the known defect); "
          f"{len(unexpected)} unexpected failures")
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput_rps": {"value": passed / passes / pass_s,
                               "unit": "1/s"},
            "latency_p50_ms": {"value": min(percentile(typical, 0.5),
                                            FAILED_LATENCY_MS), "unit": "ms"},
            "latency_p90_ms": {"value": min(percentile(typical, 0.9),
                                            FAILED_LATENCY_MS), "unit": "ms"},
            "success_frac": {"value": passed / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024, "unit": "MB"},
        }
        beyond = passes * sum(
            1 for x in typical if x > metrics["latency_p90_ms"]["value"])
        print(f"perfbench: {passes} passes in "
              f"{result['elapsed_s']:.2f} s; {attempted} latency samples, "
              f"{beyond} beyond p90; setup is the median of {SETUP_RUNS} "
              f"fresh imports")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.started = perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "halinkit", "cli.py")):
        print("perfbench: no ./src/halinkit here; run from the root of a "
              "halinkit checkout", file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_DIR,
                        f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Check that two halinkit source trees answer every benchmark request alike.

Run it from the root of a checkout, with the root of another one:

    git worktree add ../parent HEAD~1
    python3 tools/same_outputs.py ../parent

It builds every workload's request list (perfbench/workloads.py) for each
of SEEDS once, with its input files under one work dir, and then replays
all the requests once through ``halinkit.cli.main`` with perfbench's
worker, in one child process per ``src`` tree: this checkout's and the
other's.  The worker drops the ``wall_time_ms`` field from each output; a
crash is compared by the last line of its traceback (exception type and
message), since the frames name each tree's own paths.  It exits 1 and
lists every request whose exit code, stdout or stderr differs, and exits
0 when none does.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402
from oracles import Oracle  # noqa: E402
from worker import EXCEPTION  # noqa: E402

SEEDS = (1, 7919)


def answers(root: str, requests_path: str, work: str) -> list[list]:
    """[exit code, stdout, stderr] of each request, run on root's src."""
    result_path = os.path.join(work, "result.json")
    # one untraced pass: SECONDS 0, TRACE 0 (no spans file is written)
    done = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "worker.py"), requests_path,
         result_path, "0", "0", os.devnull],
        cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"same_outputs: the run on {root} failed:\n{done.stderr}")
    with open(result_path, encoding="utf-8") as fh:
        outputs = json.load(fh)["outputs"]
    got = [only for only, in outputs]  # one pass: one output each
    for answer in got:
        if answer[0] == EXCEPTION:
            answer[2] = answer[2].rstrip().rpartition("\n")[2]
    return got


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other", help="root of the checkout to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        oracle, labels, argvs = Oracle(), [], []
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:  # a subdir each: file names repeat
                inputs = os.path.join(work, f"{workload}-{seed}")
                os.mkdir(inputs)
                for i, request in enumerate(
                        workloads.build(workload, seed, inputs, oracle)):
                    labels.append(f"{workload} seed {seed} #{i}")
                    argvs.append(request["argv"])
        requests_path = os.path.join(work, "requests.json")
        with open(requests_path, "w", encoding="utf-8") as fh:
            json.dump(argvs, fh)
        ours = answers(ROOT, requests_path, work)
        theirs = answers(os.path.abspath(args.other), requests_path, work)
    differ = 0
    for label, argv, mine, other in zip(labels, argvs, ours, theirs):
        parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"),
                                            mine, other) if a != b]
        if parts:
            differ += 1
            print(f"{label}: {' '.join(argv)}: differs in {', '.join(parts)}")
    print(f"same_outputs: {differ} of {len(argvs)} requests differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

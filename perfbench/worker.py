"""Closed-loop replay of CLI requests inside one process.

perfbench/run.py starts this from the root of a checkout:

    python3 perfbench/worker.py REQUESTS RESULT SECONDS TRACE SPANS

It imports halinkit from ./src and calls halinkit.cli.main(argv) for one
request after another, with stdout and stderr captured, in whole passes
over the request list.  With TRACE 0 it repeats passes until SECONDS have
gone by on the wall clock and reports latencies and its peak RSS.

Latencies are CPU time of this process (time.process_time), and a
reference probe (refprobe.py) runs before every request so that run.py
can scale them to one machine speed.  The program is single-threaded and
CPU-bound, so its CPU time is its latency; the wall clock of a small
shared VM also counts the intervals in which the host does not run the VM
at all, and those swing from run to run by far more than any change
worth measuring.  With TRACE 1 it runs one
plain pass and one traced pass, writes the spans to SPANS and reports the
per-layer metrics.  Answers are not checked here: every distinct output
goes to RESULT for run.py to check against the oracles.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import sys
import traceback
from time import perf_counter, process_time

import refprobe

WALL_TIME = re.compile(r',"wall_time_ms":[-+0-9.eE]+')
EXCEPTION = -1


def run_request(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed request, not a failed run
        code = EXCEPTION
        err.write(traceback.format_exc())
    return process_time() - start, code, out.getvalue(), err.getvalue()


class Replay:
    def __init__(self, cli, argvs):
        self.cli = cli
        self.argvs = argvs
        self.samples: list[tuple[int, float, int]] = []
        self.probes: list[float] = []
        # per request: (exit code, stdout) -> [position, stderr]
        self.outputs: list[dict] = [{} for _ in argvs]

    def run_pass(self, tracer=None) -> int:
        """One pass over the list; returns its output bytes, not counting
        the wall_time_ms field, which varies."""
        output_bytes = 0
        for i, argv in enumerate(self.argvs):
            if tracer is not None:
                tracer.request = i
            self.probes.append(refprobe.probe())
            latency, code, out, err = run_request(self.cli, argv)
            out = WALL_TIME.sub("", out)
            output_bytes += len(out.encode())
            seen = self.outputs[i].setdefault((code, out),
                                              [len(self.outputs[i]), err])
            self.samples.append((i, latency, seen[0]))
        return output_bytes

    def distinct_outputs(self) -> list[list]:
        """Per request, [exit code, stdout, stderr] in the order the
        samples number them."""
        return [[[code, out, err] for (code, out), (_, err)
                 in sorted(outs.items(), key=lambda kv: kv[1][0])]
                for outs in self.outputs]


def main(argv: list[str]) -> int:
    requests_path, result_path, seconds, trace, spans_path = argv[1:6]
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    from halinkit import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"worker: halinkit imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    with open(requests_path, encoding="utf-8") as fh:
        replay = Replay(cli, json.load(fh))
    result: dict = {}
    if trace == "1":
        from tracing import SPAN_FIELDS, Tracer
        replay.run_pass()
        tracer = Tracer()
        tracer.install()
        try:
            output_bytes = replay.run_pass(tracer)
        finally:
            tracer.uninstall()
        scaled = refprobe.scaled([s[1] for s in replay.samples], replay.probes)
        half = len(replay.argvs)
        overhead = sum(scaled[half:]) / sum(scaled[:half]) - 1
        result["layers"] = tracer.metrics(output_bytes, overhead)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": tracer.spans,
                       "counts": tracer.counts}, fh)
    else:
        start = perf_counter()
        while not replay.samples or perf_counter() - start < float(seconds):
            replay.run_pass()
        result["elapsed_s"] = perf_counter() - start
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["probes"] = replay.probes
    result["samples"] = replay.samples
    result["outputs"] = replay.distinct_outputs()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

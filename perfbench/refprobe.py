"""A fixed pure-Python reference loop that measures the machine's speed.

On a small shared VM the CPU time of the same work drifts by a quarter
from one minute to the next.  The benchmark times this loop next to every
request and scales the request's CPU time by NOMINAL_S / (local probe
time), which reports every latency at one reference machine speed.  The
loop does the kind of work halinkit does: tuple composition, indexing,
dict updates and function calls.  This module imports nothing else, so
it can run before halinkit is imported without changing that import's
cost.
"""

from time import process_time

NOMINAL_S = 0.002
WINDOW = 5  # requests on each side whose probes set the local speed
_IMAGES = tuple(range(96))[::-1]


def _step(images, seen):
    composed = tuple(images[i] for i in images)
    for i, j in enumerate(composed):
        if j not in seen:
            seen[j] = i
    return composed


def probe() -> float:
    """CPU seconds of one run of the reference loop."""
    start = process_time()
    seen: dict = {}
    images = _IMAGES
    for _ in range(170):
        images = _step(images, seen)
    return process_time() - start


def scaled(latencies: list[float], probes: list[float]) -> list[float]:
    """Latencies at reference speed.  probes[j] ran just before request j;
    each latency is scaled by the median of the probes within WINDOW
    requests of it."""
    out = []
    for j, latency in enumerate(latencies):
        local = sorted(probes[max(0, j - WINDOW + 1):j + WINDOW + 1])
        out.append(latency * NOMINAL_S / local[len(local) // 2])
    return out

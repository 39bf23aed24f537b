"""The shared small-graph corpus: named families plus seeded random graphs."""

import random

from halinkit.graphs import (Graph, complete, complete_bipartite, cycle,
                             is_connected, path, petersen)

RANDOM_SEED = 20240801
RANDOM_COUNT = 100


def family_corpus():
    """Every path, cycle, complete, and complete bipartite graph on <= 8 vertices."""
    out = []
    for n in range(1, 9):
        out.append((f"path({n})", path(n)))
    for n in range(3, 9):
        out.append((f"cycle({n})", cycle(n)))
    for n in range(2, 9):
        out.append((f"complete({n})", complete(n)))
    for a in range(1, 8):
        for b in range(a, 9 - a):
            out.append((f"K_{a},{b}", complete_bipartite(a, b)))
    return out


def random_corpus(count=RANDOM_COUNT, seed=RANDOM_SEED):
    """Seeded random connected graphs on 2..8 vertices."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randrange(2, 9)
        p = rng.uniform(0.25, 0.75)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        g = Graph(n, edges)
        if is_connected(g):
            out.append((f"random#{len(out)}(n={n})", g))
    return out


def hypercube(d):
    """The d-cube Q_d on the bit strings 0..2^d - 1."""
    n = 1 << d
    return Graph(n, [(v, v | 1 << b) for v in range(n) for b in range(d)
                     if not v >> b & 1])


def rook(k):
    """The k x k rook's graph: cells (i, j) as i * k + j, adjacent in a
    shared row or column.  For k = 4 it is strongly regular (16, 6, 2, 2)."""
    return Graph(k * k, [(a, b) for a in range(k * k)
                         for b in range(a + 1, k * k)
                         if a // k == b // k or a % k == b % k])


def shrikhande():
    """The Shrikhande graph: Z4 x Z4, (i, j) as 4i + j, adjacent when they
    differ by +-(0, 1), +-(1, 0) or +-(1, 1).  It is strongly regular with
    the rook's graph's parameters, and is not isomorphic to it."""
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return Graph(16, [(a, b) for a in range(16) for b in range(a + 1, 16)
                      if ((b // 4 - a // 4) % 4, (b - a) % 4) in steps])


def random_regular(n, d, rng):
    """A random simple d-regular graph on n vertices (pairing model)."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(edges) == n * d // 2 and all(a != b for a, b in edges):
            return Graph(n, edges)


def planted(n, transpositions, rng):
    """A random graph invariant under an involution sigma of the given
    number of transpositions: each pair orbit {e, sigma(e)} is all edges or
    none."""
    moved = rng.sample(range(n), 2 * transpositions)
    sigma = list(range(n))
    for a, b in zip(moved[::2], moved[1::2]):
        sigma[a], sigma[b] = b, a
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            image = tuple(sorted((sigma[i], sigma[j])))
            if (i, j) <= image and rng.random() < 0.5:
                edges |= {(i, j), image}
    return Graph(n, edges)


def small_corpus():
    """The full <= 8 vertex corpus used by the acceptance oracle sweeps."""
    return family_corpus() + random_corpus()


def sympy_corpus():
    """Graphs past the n <= 8 corpus whose groups are checked against
    sympy: seeded 3-regular graphs on 10..30 vertices, Petersen, Q4, K_5,5."""
    rng = random.Random(3)
    out = [(f"3-regular{n}", random_regular(n, 3, rng))
           for n in range(10, 31, 2)]
    return out + [("petersen", petersen()), ("Q4", hypercube(4)),
                  ("K55", complete_bipartite(5, 5))]

"""Seeded request lists for the three benchmark workloads.

Every workload runs a fixed grid of commands and graph sizes, read from
provenance.json.  The seed draws only random graphs, relabelings,
exhaustions and sampling seeds, so the cost of a pass stays nearly the
same from seed to seed while two seeds still give different request lists.

Graphs are built here, independently of halinkit, with the vertex
numbering halinkit documents for its families.  A request records the
graph exactly as the program sees it, so the oracles can check answers
against it.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations
from math import factorial

PROVENANCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "provenance.json")
WORKLOADS = ("aut-large", "invariants-small", "limit-sim")


def params(workload: str) -> dict:
    with open(PROVENANCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]["params"]


# ---------------------------------------------------------------------------
# Graphs as (n, frozenset of (i, j) with i < j)
# ---------------------------------------------------------------------------

def make_graph(n: int, edges) -> tuple[int, frozenset]:
    return n, frozenset((min(i, j), max(i, j)) for i, j in edges)


def cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a, b):
    return make_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen():
    return make_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)])


def hypercube(d):
    n = 1 << d
    return make_graph(n, [(v, v ^ (1 << i)) for v in range(n) for i in range(d)])


def binary_tree(depth):
    """Breadth-first numbering: the children of v are 2v+1 and 2v+2."""
    n = 2 ** (depth + 1) - 1
    return make_graph(n, [(v, c) for v in range(n)
                          for c in (2 * v + 1, 2 * v + 2) if c < n])


def comb(depth):
    """Depth d >= 1 holds spine vertex 3d-2 and leaves 3d-1, 3d, all
    attached to the previous spine vertex (vertex 0 at depth 1)."""
    edges = []
    for d in range(1, depth + 1):
        prev = 3 * (d - 1) - 2 if d > 1 else 0
        edges += [(prev, 3 * d - 2), (prev, 3 * d - 1), (prev, 3 * d)]
    return make_graph(3 * depth + 1, edges)


def circulant(n, jumps):
    return make_graph(n, [(i, (i + s) % n) for i in range(n) for s in jumps])


def disjoint_union(g, copies):
    n, edges = g
    return make_graph(n * copies, [(i + k * n, j + k * n)
                                   for k in range(copies) for i, j in edges])


def relabel(g, images):
    n, edges = g
    return make_graph(n, [(images[i], images[j]) for i, j in edges])


def random_regular(n, degree, rng):
    """Uniform pairing model, redrawn until the multigraph is simple."""
    while True:
        points = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(points)
        edges = set()
        for a, b in zip(points[::2], points[1::2]):
            e = (min(a, b), max(a, b))
            if a == b or e in edges:
                break
            edges.add(e)
        else:
            return make_graph(n, edges)


def planted(n, transpositions, prob, rng):
    """Random graph invariant under a random involution with the given
    number of transpositions: each orbit of vertex pairs is an edge orbit
    with probability prob."""
    moved = rng.sample(range(n), 2 * transpositions)
    sigma = list(range(n))
    for a, b in zip(moved[::2], moved[1::2]):
        sigma[a], sigma[b] = b, a
    edges = []
    seen = set()
    for i, j in combinations(range(n), 2):
        if (i, j) in seen:
            continue
        image = (min(sigma[i], sigma[j]), max(sigma[i], sigma[j]))
        seen.update({(i, j), image})
        if rng.random() < prob:
            edges += [(i, j), image]
    return make_graph(n, edges)


def encode_graph6(g) -> str:
    """Standard graph6 encoding (upper triangle, column by column)."""
    n, edges = g
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = [chr(126)] + [chr(((n >> s) & 63) + 63) for s in (12, 6, 0)]
    bits = [1 if (i, j) in edges else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for k in range(0, len(bits), 6):
        value = 0
        for bit in bits[k:k + 6]:
            value = (value << 1) | bit
        out.append(chr(value + 63))
    return "".join(out)


def encode_json(g) -> str:
    n, edges = g
    return json.dumps({"n": n, "edges": [list(e) for e in sorted(edges)]})


# ---------------------------------------------------------------------------
# Request lists
# ---------------------------------------------------------------------------

class _RequestList:
    """Collects requests and writes their input files into workdir."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.requests: list[dict] = []

    def family(self, op, graph, flags, **extra):
        self.requests.append({"argv": [op] + flags, "op": op,
                              "graph": graph, **extra})

    def file(self, op, graph, fmt="json", flags=(), **extra):
        path = os.path.join(self.workdir, f"g{len(self.requests):03d}."
                            + ("g6" if fmt == "graph6" else "json"))
        text = encode_graph6(graph) if fmt == "graph6" else encode_json(graph)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
        self.requests.append({"argv": [op, "--input", path] + list(flags),
                              "op": op, "graph": graph, **extra})


def aut_large(rng, p, b: _RequestList) -> None:
    for n in p["cycle_n"]:
        b.family("aut", cycle(n), ["--family", "cycle", "--n", str(n)],
                 order=2 * n)
    for d in p["binary_tree_depths"]:
        b.family("aut", binary_tree(d),
                 ["--family", "binary-tree", "--depth", str(d)],
                 order=2 ** (2 ** d - 1))
    for d in p["comb_depths"]:
        b.family("aut", comb(d), ["--family", "comb", "--depth", str(d)],
                 order=3 * 2 ** d)
    for i, d in enumerate(p["hypercube_dims"]):
        b.file("aut", hypercube(d), ("json", "graph6")[i % 2],
               order=2 ** d * factorial(d))
    for i, union in enumerate(p["unions"]):
        if union["part"] == "petersen":
            h, aut_h = petersen(), 120
        elif union["part"] == "cycle":
            h, aut_h = cycle(union["n"]), 2 * union["n"]
        else:
            h, aut_h = complete_bipartite(2, 3), 12
        c = union["copies"]
        b.file("aut", disjoint_union(h, c), ("json", "graph6")[i % 2],
               order=aut_h ** c * factorial(c))
    for degree in p["regular_degrees"]:
        for n in p["regular_n"]:
            g = random_regular(n, degree, rng)
            for fmt in p["regular_formats"]:
                b.file("aut", g, fmt,
                       defect=fmt == "graph6" and encode_graph6(g)[0] == "{")


def invariants_small(rng, p, b: _RequestList, oracle) -> None:
    ops = ("base", "cost", "motion", "greedy")

    def add(op, graph, flags=None):
        extra = []
        if op == "greedy":
            extra = ["--base", ",".join(map(str, oracle.least_base(graph)))]
        if flags is None:
            b.file(op, graph, flags=extra)
        else:
            b.family(op, graph, flags + extra)

    for op in ops:
        for n in p["cycle_n"]:
            add(op, cycle(n), ["--family", "cycle", "--n", str(n)])
    for op in ops:
        key = ("bipartite_base_cost" if op in ("base", "cost")
               else "bipartite_motion_greedy")
        for a, c in p[key]:
            add(op, complete_bipartite(a, c))
    fixed = {"petersen": petersen(), "q3": hypercube(3), "q4": hypercube(4)}
    for name, graph_ops in p["fixed_graphs"].items():
        for op in graph_ops:
            add(op, fixed[name])
    for op in ops:
        for n, s in p["circulants"]:
            images = list(range(n))
            rng.shuffle(images)
            add(op, relabel(circulant(n, (1, s)), images))
    for op in ops:
        for n in p["planted_n"]:
            while True:
                g = planted(n, p["planted_transpositions"],
                            p["planted_edge_prob"], rng)
                if len(oracle.elements(g)) == p["planted_group_order"]:
                    break
            add(op, g)


def limit_sim(rng, p, b: _RequestList) -> None:
    for family, build_family, key in (("binary-tree", binary_tree, "tree"),
                                      ("comb", comb, "comb")):
        for k, depth in p[key]:
            b.family("limit-sim", build_family(depth),
                     ["--family", family, "--depth", str(depth),
                      "--k", str(k)], k=k)
    for n, triples in p["topology"]:
        sets = [list(range(n * e // 8)) for e in p["topology_prefix_eighths"]]
        b.family("topology", cycle(n),
                 ["--family", "cycle", "--n", str(n), "--exhaustion",
                  "|".join(",".join(map(str, s)) for s in sets),
                  "--triples", str(triples),
                  "--seed", str(rng.randrange(10 ** 6))], sets=sets)


def build(workload: str, seed: int, workdir: str, oracle) -> list[dict]:
    """The request list of one workload and seed; input files go to workdir.

    invariants-small asks the oracle for the base of each greedy request
    and for the group order of each planted graph it draws.
    """
    rng = random.Random(f"{workload}:{seed}")
    b = _RequestList(workdir)
    p = params(workload)
    if workload == "aut-large":
        aut_large(rng, p, b)
    elif workload == "invariants-small":
        invariants_small(rng, p, b, oracle)
    elif workload == "limit-sim":
        limit_sim(rng, p, b)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b.requests

"""Finite simple graphs, the graph6 interchange format, and the test families.

Vertices are the indices 0..n-1 and the index order is part of a graph's
identity: it doubles as the fixed enumeration v_0, v_1, ... that the
truncation machinery in :mod:`halinkit.limitsim` relies on.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

GRAPH6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Equality is (n, edge set); labels are provenance tags only and do not
    take part in comparisons.
    """

    __slots__ = ("n", "edges", "labels", "_adj")

    def __init__(
        self,
        n: int,
        edges: Iterable[Sequence[int]] = (),
        labels: Sequence[str] | None = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        canon = set()
        for e in edges:
            i, j = e
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge {(i, j)} out of range for n={n}")
            canon.add((i, j) if i < j else (j, i))
        self.n = n
        self.edges = frozenset(canon)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels must cover every vertex")
        self.labels = labels
        adj: list[set[int]] = [set() for _ in range(n)]
        for i, j in canon:
            adj[i].add(j)
            adj[j].add(i)
        self._adj = tuple(frozenset(s) for s in adj)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._adj[i]

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def is_automorphism(self, images: Sequence[int]) -> bool:
        """True iff the image array is a bijection preserving adjacency."""
        if sorted(images) != list(range(self.n)):
            return False
        return all((images[i], images[j]) in self.edges
                   or (images[j], images[i]) in self.edges
                   for i, j in self.edges)

    def relabel(self, images: Sequence[int]) -> "Graph":
        """Graph with every vertex i renamed to images[i]."""
        if sorted(images) != list(range(self.n)):
            raise ValueError("relabeling must be a permutation")
        edges = [(images[i], images[j]) for i, j in self.edges]
        labels = None
        if self.labels is not None:
            relabeled = [""] * self.n
            for i, lab in enumerate(self.labels):
                relabeled[images[i]] = lab
            labels = relabeled
        return Graph(self.n, edges, labels)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"


@dataclass(frozen=True)
class TruncatedFamily:
    """A finite depth-D prefix of an infinite graph.

    ``boundary`` is the set of vertices at the cut depth D; constructions
    that would need vertices beyond the cut must stop there.  Vertex labels
    record each vertex's depth as a decimal string.
    """

    kind: str
    depth: int
    graph: Graph
    boundary: frozenset[int]

    def __post_init__(self):
        if not is_connected(self.graph):
            raise ValueError("truncated family graph must be connected")
        labels = self.graph.labels
        if labels is None:
            raise ValueError("truncated family graph must carry depth labels")
        at_depth = frozenset(
            v for v, lab in enumerate(labels) if lab == str(self.depth))
        if at_depth != self.boundary:
            raise ValueError("boundary must be exactly the depth-D vertices")


def is_connected(g: Graph) -> bool:
    """True iff g has a single connected component (vacuously for n=0)."""
    if g.n <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


# ---------------------------------------------------------------------------
# graph6 codec (bit-exact, including the >= 63 vertex long forms)
# ---------------------------------------------------------------------------

def _read_order(data: str, offset: int) -> tuple[int, int]:
    def byte(k: int) -> int:
        if k >= len(data):
            raise Graph6Error("truncated vertex count", len(data))
        v = ord(data[k]) - 63
        if not 0 <= v <= 63:
            raise Graph6Error(f"byte out of range: {data[k]!r}", k)
        return v

    first = byte(offset)
    if first < 63:
        return first, offset + 1
    if byte(offset + 1) == 63 + 63:  # second "~": 36-bit form
        n = 0
        for k in range(offset + 2, offset + 8):
            n = (n << 6) | byte(k)
        return n, offset + 8
    n = 0
    for k in range(offset + 1, offset + 4):
        n = (n << 6) | byte(k)
    return n, offset + 4


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record (optional header, optional trailing newline)."""
    data = text
    while data and data[-1] in "\r\n":
        data = data[:-1]
    offset = 0
    if data.startswith(">>"):
        if not data.startswith(GRAPH6_HEADER):
            raise Graph6Error("malformed graph6 header", 0)
        offset = len(GRAPH6_HEADER)
    if offset >= len(data):
        raise Graph6Error("empty graph6 record", offset)
    n, offset = _read_order(data, offset)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    have = len(data) - offset
    if have < nbytes:
        raise Graph6Error(
            f"truncated adjacency data: need {nbytes} bytes, have {have}",
            len(data))
    if have > nbytes:
        raise Graph6Error("trailing data after graph6 record", offset + nbytes)
    bits: list[int] = []
    for k in range(nbytes):
        v = ord(data[offset + k]) - 63
        if not 0 <= v <= 63:
            raise Graph6Error(f"byte out of range: {data[offset + k]!r}",
                              offset + k)
        for shift in range(5, -1, -1):
            bits.append((v >> shift) & 1)
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits", offset + nbits // 6)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def encode_graph6(g: Graph, header: bool = False) -> str:
    """Encode a graph in canonical graph6 (shortest order form, zero padding)."""
    n = g.n
    if n > 68719476735:
        raise ValueError("graph6 supports at most 2^36 - 1 vertices")
    out = [GRAPH6_HEADER] if header else []
    if n <= 62:
        out.append(chr(n + 63))
    elif n <= 258047:
        out.append(chr(126))
        out.extend(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    else:
        out.append(chr(126) + chr(126))
        out.extend(chr(((n >> shift) & 63) + 63)
                   for shift in (30, 24, 18, 12, 6, 0))
    acc = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (1 if g.has_edge(i, j) else 0)
            filled += 1
            if filled == 6:
                out.append(chr(acc + 63))
                acc = 0
                filled = 0
    if filled:
        out.append(chr((acc << (6 - filled)) + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# JSON edge-list format: {"n": int, "edges": [[i, j], ...], "labels": [...]}
# ---------------------------------------------------------------------------

def from_json(obj: str | dict) -> Graph:
    """Decode the JSON edge-list format; unknown keys are rejected."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("JSON graph must be an object")
    unknown = set(obj) - {"n", "edges", "labels"}
    if unknown:
        raise ValueError(f"unknown keys in JSON graph: {sorted(unknown)}")
    if "n" not in obj or "edges" not in obj:
        raise ValueError("JSON graph requires 'n' and 'edges'")
    n = obj["n"]
    if not _is_int(n):
        raise ValueError("'n' must be an integer")
    edges = obj["edges"]
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and
            all(_is_int(x) for x in e) for e in edges):
        raise ValueError("'edges' must be a list of [i, j] pairs")
    labels = obj.get("labels")
    if labels is not None and not (isinstance(labels, list) and all(
            isinstance(lab, str) for lab in labels)):
        raise ValueError("'labels' must be a list of strings")
    return Graph(n, edges, labels)


def _is_int(x: object) -> bool:
    """JSON integers only: bool is a subclass of int but not a vertex."""
    return isinstance(x, int) and not isinstance(x, bool)


def to_json(g: Graph) -> dict:
    out: dict = {"n": g.n, "edges": [list(e) for e in g.edge_list()]}
    if g.labels is not None:
        out["labels"] = list(g.labels)
    return out


# ---------------------------------------------------------------------------
# Generated families
# ---------------------------------------------------------------------------

def path(n: int) -> Graph:
    """Path with endpoints 0 and n-1."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle with i adjacent to i +- 1 mod n."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with parts 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError("complete bipartite needs a, b >= 1")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


def binary_tree(depth: int) -> TruncatedFamily:
    """Complete binary tree truncated at the given depth.

    Breadth-first numbering from the root (vertex 0): children of v are
    2v+1 and 2v+2.  Boundary = the 2^depth leaves.
    """
    if depth < 1:
        raise ValueError("binary tree needs depth >= 1")
    n = 2 ** (depth + 1) - 1
    edges = [(v, c) for v in range(n)
             for c in (2 * v + 1, 2 * v + 2) if c < n]
    labels = [str((v + 1).bit_length() - 1) for v in range(n)]
    g = Graph(n, edges, labels)
    boundary = frozenset(range(2 ** depth - 1, n))
    return TruncatedFamily("binary-tree", depth, g, boundary)


def comb(depth: int) -> TruncatedFamily:
    """Spine path with a pair of pendant leaves at every interior spine vertex.

    Numbering goes depth by depth: vertex 0 is the spine start; depth d >= 1
    holds the spine vertex 3d-2 followed by the two leaves 3d-1, 3d attached
    to the previous spine vertex.  Boundary = the three vertices at the cut
    depth (the last spine vertex and the last leaf pair).
    """
    if depth < 1:
        raise ValueError("comb needs depth >= 1")
    n = 3 * depth + 1
    edges = []
    for d in range(1, depth + 1):
        prev_spine = 3 * (d - 1) - 2 if d > 1 else 0
        spine = 3 * d - 2
        edges.append((prev_spine, spine))
        edges.append((prev_spine, 3 * d - 1))
        edges.append((prev_spine, 3 * d))
    labels = ["0"] + [str(d) for d in range(1, depth + 1) for _ in range(3)]
    g = Graph(n, edges, labels)
    boundary = frozenset({3 * depth - 2, 3 * depth - 1, 3 * depth})
    return TruncatedFamily("comb", depth, g, boundary)


FAMILY_NAMES = ("path", "cycle", "complete", "complete-bipartite",
                "petersen", "binary-tree", "comb")


def make_family(name: str, n: int | None = None,
                depth: int | None = None) -> Graph | TruncatedFamily:
    """Dispatch a family by name; sized families need n or depth."""
    if name == "petersen":
        return petersen()
    if name in ("path", "cycle", "complete"):
        if n is None:
            raise ValueError(f"family {name!r} needs --n")
        return {"path": path, "cycle": cycle, "complete": complete}[name](n)
    if name == "complete-bipartite":
        if n is None:
            raise ValueError("family 'complete-bipartite' needs --n (total size; parts split evenly)")
        return complete_bipartite(n // 2, n - n // 2)
    if name in ("binary-tree", "comb"):
        if depth is None:
            raise ValueError(f"family {name!r} needs --depth")
        return {"binary-tree": binary_tree, "comb": comb}[name](depth)
    raise ValueError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")

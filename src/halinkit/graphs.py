"""Finite simple graphs, the graph6 interchange format, and the test families.

Vertices are the indices 0..n-1 and the index order is part of a graph's
identity: it doubles as the fixed enumeration v_0, v_1, ... that the
truncation machinery in :mod:`halinkit.limitsim` relies on.  A truncated
family is closed forms of its kind and depth (vertex count, boundary,
sorted edges); its ``graph`` is built and checked on each read, never
kept, so the limit construction, which needs only the arithmetic, builds
no graph.
"""

from __future__ import annotations

import json
import operator
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import chain, compress, count, repeat

from .perms import is_permutation

GRAPH6_HEADER = ">>graph6<<"
# the graph6 forms of the vertex count n, shortest first:
# (largest n, prefix, number of six-bit digits of n)
_ORDER_FORMS = ((62, "", 1), (258047, "~", 3), (2 ** 36 - 1, "~~", 6))
# each graph6 byte: its six bits, most significant first; and the inverse
_SIX_BITS = {chr(v + 63): tuple(v >> s & 1 for s in range(5, -1, -1))
             for v in range(64)}
_BYTE_OF_BITS = {bits: byte for byte, bits in _SIX_BITS.items()}


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Equality is (n, edge set); labels are provenance tags only and do not
    take part in comparisons.  Endpoints must be ints, never bools.  The
    canonical edges (i < j) are also kept in first-seen order, and the
    neighbour sets are built from them on first use of ``adjacency``.
    """

    __slots__ = ("n", "edges", "labels", "_order", "_adj")

    def __init__(
        self,
        n: int,
        edges: Iterable[Sequence[int]] = (),
        labels: Sequence[str] | None = None,
    ):
        n = operator.index(n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        canon: dict[tuple[int, int], None] = {}  # first-seen order
        for e in edges:
            i, j = e
            if type(i) is not int or type(j) is not int:
                raise TypeError(f"edge {(i, j)!r} endpoints must be ints")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge {(i, j)} out of range for n={n}")
            canon[(i, j) if i < j else (j, i)] = None
        self.n = n
        self.edges = frozenset(canon)
        self._order = tuple(canon)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels must cover every vertex")
        self.labels = labels
        self._adj: tuple[frozenset[int], ...] | None = None

    @property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """The neighbour set of every vertex, built on first use."""
        if self._adj is None:
            adj: list[set[int]] = [set() for _ in range(self.n)]
            for i, j in self._order:
                adj[i].add(j)
                adj[j].add(i)
            self._adj = tuple(map(frozenset, adj))
        return self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.adjacency[i]

    def edge_list(self) -> list[tuple[int, int]]:
        # linear time when the edges arrived sorted, as generated ones do
        return sorted(self._order)

    def is_automorphism(self, images: Sequence[int]) -> bool:
        """True iff the image array is a bijection of ints (no bools or
        floats) preserving adjacency: N(pi(v)) = pi(N(v)) at each vertex v
        it moves, as an edge between two fixed vertices is fixed."""
        if len(images) != self.n or not is_permutation(images):
            return False
        adj = self.adjacency
        return all(adj[images[v]] == set(map(images.__getitem__, adj[v]))
                   for v in range(self.n) if images[v] != v)

    def relabel(self, images: Sequence[int]) -> "Graph":
        """Graph with every vertex i renamed to images[i], a permutation."""
        if len(images) != self.n or not is_permutation(images):
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


class TruncatedFamily(namedtuple("TruncatedFamily", "kind depth")):
    """The depth-D prefix of the infinite binary tree or comb, numbered
    depth by depth from the root 0.  ``n``, the sorted ``edge_list()``
    (n - 1 edges) and the ``boundary`` (the depth-D vertices, an index
    suffix, where constructions must stop) are closed forms of D; the
    depth-labelled ``graph`` is built and checked on each read."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("binary-tree", "comb"):
            raise ValueError(f"unknown family {self.kind!r}; expected one "
                             "of ('binary-tree', 'comb')")
        if operator.index(self.depth) < 1:
            raise ValueError(f"{self.kind.replace('-', ' ')} needs depth >= 1")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # and _replace

    @property
    def boundary(self) -> range:
        if self.kind == "binary-tree":
            return range(2 ** self.depth - 1, 2 ** (self.depth + 1) - 1)
        return range(3 * self.depth - 2, 3 * self.depth + 1)

    @property
    def n(self) -> int:
        return self.boundary.stop

    def edge_list(self) -> list[tuple[int, int]]:
        n = self.n
        if self.kind == "binary-tree":
            parents, arity = range(n // 2), 2
        else:  # the spine vertices 0, 1, 4, ..., 3D - 5
            parents, arity = chain((0,), range(1, n - 3, 3)), 3
        parents = chain.from_iterable(map(repeat, parents, repeat(arity)))
        return list(zip(parents, range(1, n)))

    @property
    def graph(self) -> Graph:
        widths = (chain((1,), repeat(3, self.depth)) if self.kind == "comb"
                  else (2 ** d for d in range(self.depth + 1)))
        labels = chain.from_iterable(
            map(repeat, map(str, range(self.depth + 1)), widths))
        g = Graph(self.n, self.edge_list(), labels)
        if not is_connected(g):
            raise ValueError("truncated family graph must be connected")
        at_depth = frozenset(
            compress(count(), map(str(self.depth).__eq__, g.labels)))
        if at_depth != frozenset(self.boundary):
            raise ValueError("boundary must be exactly the depth-D vertices")
        return g


def is_connected(g: Graph) -> bool:
    """True iff g has a single connected component (vacuously for n=0):
    union-find with path halving over ``g.edges``, no adjacency sets."""
    parent = list(range(g.n))
    for i, j in g.edges:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        parent[j] = i  # joins the two roots; a no-op when they are one
    return sum(map(operator.eq, parent, range(g.n))) <= 1  # the roots


# ---------------------------------------------------------------------------
# graph6 codec (bit-exact, including the >= 63 vertex long forms)
# ---------------------------------------------------------------------------

def _pairs(n: int) -> Iterable[tuple[int, int]]:
    """The pairs (i, j), i < j, column by column: the order of the bits."""
    columns = range(1, n)
    return chain.from_iterable(map(zip, map(range, columns), map(repeat, columns)))


def _read_order(data: str, offset: int) -> tuple[int, int]:
    """n and the offset past it, read in the longest form whose prefix fits."""
    _, prefix, digits = next(form for form in reversed(_ORDER_FORMS)
                             if data.startswith(form[1], offset))
    n = 0
    for k in range(offset + len(prefix), offset + len(prefix) + digits):
        if k >= len(data):
            raise Graph6Error("truncated vertex count", len(data))
        if data[k] not in _SIX_BITS:
            raise Graph6Error(f"byte out of range: {data[k]!r}", k)
        n = n << 6 | ord(data[k]) - 63
    return n, k + 1


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
    rows = list(map(_SIX_BITS.get, data[offset:]))
    if None in rows:
        k = offset + rows.index(None)
        raise Graph6Error(f"byte out of range: {data[k]!r}", k)
    bits = list(chain.from_iterable(rows))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits", offset + nbits // 6)
    return Graph(n, compress(_pairs(n), bits))


def encode_graph6(g: Graph, header: bool = False) -> str:
    """Encode a graph in canonical graph6 (shortest order form, zero padding)."""
    forms = [form for form in _ORDER_FORMS if g.n <= form[0]]
    if not forms:
        raise ValueError("graph6 supports at most 2^36 - 1 vertices")
    _, prefix, digits = forms[0]
    # the digits of n, then one bit per pair, zero-padded to whole bytes
    bits = [g.n >> s & 1 for s in reversed(range(6 * digits))]
    bits += map(g.edges.__contains__, _pairs(g.n))
    bits += [0] * (-len(bits) % 6)
    return ((GRAPH6_HEADER if header else "") + prefix
            + "".join(map(_BYTE_OF_BITS.__getitem__, zip(*[iter(bits)] * 6))))


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
    if not isinstance(n, int) or isinstance(n, bool):  # JSON ints only
        raise ValueError("'n' must be an integer")
    edges = obj["edges"]
    if not (isinstance(edges, list)
            and all(map(isinstance, edges, repeat(list)))
            and set(map(len, edges)) <= {2}
            and all(issubclass(t, int) and t is not bool
                    for t in set(map(type, chain.from_iterable(edges))))):
        raise ValueError("'edges' must be a list of [i, j] pairs")
    labels = obj.get("labels")
    if labels is not None and not (isinstance(labels, list) and all(
            isinstance(lab, str) for lab in labels)):
        raise ValueError("'labels' must be a list of strings")
    return Graph(n, edges, labels)


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
    """Complete binary tree truncated at the given depth; the children of
    v are 2v+1 and 2v+2, and the boundary is the 2^depth leaves."""
    return TruncatedFamily("binary-tree", depth)


def comb(depth: int) -> TruncatedFamily:
    """Spine with two pendant leaves at each spine vertex but the last:
    depth d >= 1 holds the spine vertex 3d-2 and the leaves 3d-1, 3d, all
    attached to the previous spine vertex; the boundary is the last three."""
    return TruncatedFamily("comb", depth)


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
        return TruncatedFamily(name, depth)
    raise ValueError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")

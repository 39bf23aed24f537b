"""Automorphism groups of finite graphs via individualization-refinement.

The search tree refines an equitable coloring, individualizes one vertex of
the first largest non-singleton cell at each node, and compares every later
discrete leaf against the first leaf.  No canonical form is computed; the
pruning is limited to first-path shape matching plus orbit pruning at the
root, which keeps the procedure deterministic and easy to audit.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .graphs import Graph
from .groups import PermGroup
from .perms import Permutation


class ColoredPartition:
    """An ordered partition of {0..n-1} into disjoint cells."""

    __slots__ = ("cells",)

    def __init__(self, cells: Iterable[Sequence[int]]):
        canon = tuple(tuple(sorted(c)) for c in cells)
        flat = [v for c in canon for v in c]
        if sorted(flat) != list(range(len(flat))):
            raise ValueError("cells must partition 0..n-1")
        self.cells = canon

    @classmethod
    def unit(cls, n: int) -> "ColoredPartition":
        return cls([tuple(range(n))] if n else [])

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.cells)

    @property
    def is_discrete(self) -> bool:
        return all(len(c) == 1 for c in self.cells)

    def shape(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ColoredPartition) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"ColoredPartition({[list(c) for c in self.cells]})"


def refine(g: Graph, partition: ColoredPartition) -> ColoredPartition:
    """Coarsest equitable refinement of the partition.

    Repeatedly splits cells by the vertices' neighbor counts against every
    current cell until each cell is uniform.  Subcells are ordered by their
    count signature, so the result is deterministic and idempotent.
    """
    if partition.n != g.n:
        raise ValueError("partition does not match the graph")
    cells = list(partition.cells)
    while True:
        counts_per_cell = []
        for cell in cells:
            counts = [0] * g.n
            for u in cell:
                for w in g.neighbors(u):
                    counts[w] += 1
            counts_per_cell.append(counts)
        new_cells: list[tuple[int, ...]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple(counts[v] for counts in counts_per_cell)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(tuple(groups[sig]))
        cells = new_cells
        if not changed:
            return ColoredPartition(cells)


def _individualize(partition: ColoredPartition, cell_index: int,
                   v: int) -> ColoredPartition:
    cells = []
    for i, cell in enumerate(partition.cells):
        if i == cell_index:
            cells.append((v,))
            cells.append(tuple(u for u in cell if u != v))
        else:
            cells.append(cell)
    return ColoredPartition(cells)


def automorphism_group(g: Graph) -> PermGroup:
    """Generators for the full automorphism group of the graph.

    The returned group is exactly the set of adjacency- and
    nonadjacency-preserving permutations of the vertex set.
    """
    n = g.n
    if n == 0:
        return PermGroup(0)
    root = refine(g, ColoredPartition.unit(n))
    gens: list[Permutation] = []
    found: set[tuple[int, ...]] = set()
    first_leaf: list[int] | None = None
    first_shapes: dict[int, tuple[int, ...]] = {}

    def search(partition: ColoredPartition, path: tuple[int, ...]) -> None:
        nonlocal first_leaf
        shape = partition.shape()
        if first_leaf is None:
            first_shapes[len(path)] = shape
        elif first_shapes.get(len(path)) != shape:
            return
        if partition.is_discrete:
            leaf = [c[0] for c in partition.cells]
            if first_leaf is None:
                first_leaf = leaf
                return
            images = [0] * n
            for pos in range(n):
                images[first_leaf[pos]] = leaf[pos]
            key = tuple(images)
            if key not in found and g.is_automorphism(images):
                p = Permutation(images)
                if not p.is_identity():
                    found.add(key)
                    gens.append(p)
            return
        size = max(len(c) for c in partition.cells)
        ti = next(i for i, c in enumerate(partition.cells) if len(c) == size)
        tried: list[int] = []
        for v in partition.cells[ti]:
            # Orbit pruning: siblings reachable from an explored one by a
            # known automorphism fixing the individualized path contribute
            # no new generators.
            if tried:
                fixing = PermGroup(n, [p for p in gens
                                       if all(p(x) == x for x in path)])
                if not fixing.orbit(v).isdisjoint(tried):
                    continue
            search(refine(g, _individualize(partition, ti, v)), path + (v,))
            tried.append(v)

    search(root, ())
    return PermGroup(n, gens)

"""Automorphism groups of finite graphs via individualization-refinement.

The search's root is the refined unit partition with each cell split,
ascending, by the automorphism invariant f(v) = |N(N(v))| (McKay & Piperno
2014), which splits regular graphs, and refined again; in a cell of degree d
with 2d > n - 1, f is taken in the complement, whose neighbour sets are
smaller there.  The search individualizes a vertex of the first largest cell
at each node, refines with a splitter queue, and compares each leaf with the
first leaf.  Exact rules prune it.  A node whose refinement trace leaves the
first path's is dropped, and a subtree off the first path is left once it
yields an automorphism (McKay 1981).  It ends at its first node whose
non-singleton cells hold the vertices of the first path's at that depth (the
early leaf of saucy, Darga, Sakallah & Markov 2008): gamma maps the first
path's singletons to the node's and fixes the rest.  If gamma is an
automorphism, the node is the gamma-image of the first path's, so its
first-child descent individualizes the first path's vertices and its first
leaf gives gamma: the same generator, in the same place.  First-path nodes
explore or orbit-prune their whole cell, so the generators found are strong
for the first path as base, and the chain is read off them, not
Schreier-Sims.  A vertex is individualized by swapping it to the back of its
cell, orbits are a union-find joined once per generator (nauty's
``orbits``), and a candidate is tested only at the vertices it moves.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import accumulate, compress, count, groupby
from operator import ior, itemgetter, ne

from .graphs import Graph
from .groups import PermGroup
from .perms import Permutation


class ColoredPartition:
    """An ordered partition of {0..n-1} into disjoint cells.

    ``lab`` lists the vertices cell by cell, ``pos`` inverts it, ``cell[v]``
    is the start of v's cell and ``end[s]`` the end of the cell at s.
    ``pending`` are the cells to refine against; ``trace`` lists the splits
    that made the partition, and refine stops where they leave ``expected``.
    """

    __slots__ = ("lab", "pos", "cell", "end", "ncells", "pending",
                 "expected", "trace")

    def __init__(self, cells: Iterable[Sequence[int]]):
        canon = [sorted(c) for c in cells if c]
        self.lab = [v for c in canon for v in c]
        n = len(self.lab)
        if sorted(self.lab) != list(range(n)):
            raise ValueError("cells must partition 0..n-1")
        self.pos, self.cell, self.end = [0] * n, [0] * n, [0] * n
        self.ncells, self.expected, self.trace = len(canon), None, []
        self.pending = list(accumulate(map(len, canon), initial=0))[:-1]
        for s, c in zip(self.pending, canon):
            self.end[s] = s + len(c)
            for i, v in enumerate(c, s):
                self.pos[v], self.cell[v] = i, s

    @classmethod
    def unit(cls, n: int) -> "ColoredPartition":
        return cls([tuple(range(n))])

    def _copy(self) -> "ColoredPartition":
        p = object.__new__(ColoredPartition)
        p.lab, p.pos, p.cell, p.end = (self.lab[:], self.pos[:],
                                       self.cell[:], self.end[:])
        p.ncells, p.pending = self.ncells, self.pending
        p.expected, p.trace = self.expected, []
        return p

    def _individualize(self, v: int, expected: list | None
                       ) -> "ColoredPartition":
        """A copy with v swapped to the back of its cell and split off, so
        no other vertex changes cell; the partition is equitable, so the
        singleton is the only pending splitter."""
        p = self._copy()
        lab, pos, s = p.lab, p.pos, p.cell[v]
        e = p.end[s] - 1
        u, i = lab[e], pos[v]
        lab[i], lab[e], pos[u], pos[v] = u, v, i, e
        p.cell[v], p.end[s], p.end[e] = e, e, e + 1
        p.ncells, p.pending, p.expected = p.ncells + 1, [e], expected
        return p

    @property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(self.lab[s:self.end[s]]))
                     for s in sorted(set(self.cell)))

    @property
    def n(self) -> int:
        return len(self.lab)

    @property
    def is_discrete(self) -> bool:
        return self.ncells == len(self.lab)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ColoredPartition) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"ColoredPartition({[list(c) for c in self.cells]})"


def refine(g: Graph, partition: ColoredPartition, *, _owned: bool = False
           ) -> ColoredPartition | None:
    """Coarsest equitable refinement of the partition, as a new partition.

    Counts each queued splitter's neighbours and splits every touched cell
    by count, ascending; its subcells are queued, but for the first largest
    if the cell was not.  A singleton splitter's neighbours all count 1, so
    its neighbour set is the count, and it cuts a cell [c, e) into its
    untouched [c, tail) and touched [tail, e).  Positions and counts decide
    everything, so the result is label-invariant.  None if the trace leaves
    ``expected``; each split is checked before it moves a vertex.  The
    search hands over its root and each fresh child with ``_owned=True``,
    refined in place instead of copied.
    """
    if partition.n != g.n:
        raise ValueError("partition does not match the graph")
    p = partition if _owned else partition._copy()
    lab, pos, cell, end, trace = p.lab, p.pos, p.cell, p.end, p.trace
    expected, queue, p.pending = p.expected, list(p.pending), []
    n, ncells, k, head = len(lab), p.ncells, len(trace), 0
    queued = bytearray(n)  # 1 at the starts in the queue
    for s in queue:
        queued[s] = 1
    adj = g.adjacency
    while head < len(queue) and ncells < n:
        s = queue[head]
        head += 1
        queued[s] = 0
        single = end[s] == s + 1
        if single:
            counts = adj[lab[s]]
        else:
            counts = {}
            for u in lab[s:end[s]]:
                for w in adj[u]:
                    counts[w] = counts.get(w, 0) + 1
        touched = {}
        for w in counts:
            touched.setdefault(cell[w], []).append(w)
        for c in sorted(touched):
            members, e = touched[c], end[c]
            if single:
                if len(members) == e - c:
                    continue
                keys = (1,) * len(members)
            else:
                if len(members) > 1:
                    members.sort(key=counts.__getitem__)
                keys = tuple(map(counts.__getitem__, members))
                if len(members) == e - c and keys[0] == keys[-1]:
                    continue
            event = (s, c, keys)
            if expected is not None and (k == len(expected)
                                         or expected[k] != event):
                return None
            trace.append(event)
            k += 1
            # touched vertices go to the tail in key order; each untouched
            # one there fills the place of the next touched one before it
            tail = j = e - len(members)
            if single:  # one key: the tail is the one new cell
                starts = (c, tail)
                for i, w in enumerate(members, tail):
                    if pos[w] < tail:
                        while lab[j] in counts:
                            j += 1
                        lab[pos[w]], pos[lab[j]] = lab[j], pos[w]
                        j += 1
                    pos[w], cell[w] = i, tail
            else:
                starts, last = [c] * (tail > c), None
                for i, w, key in zip(count(tail), members, keys):
                    if key != last:
                        starts.append(i)
                        last = key
                    if pos[w] < tail:
                        while lab[j] in counts:
                            j += 1
                        lab[pos[w]], pos[lab[j]] = lab[j], pos[w]
                        j += 1
                    pos[w], cell[w] = i, starts[-1]
            lab[tail:e] = members
            ncells += len(starts) - 1
            if len(starts) == 2:  # of two equal halves the first is larger
                b = starts[1]
                end[c], end[b] = b, e
                b = b if queued[c] or b - c >= e - b else c
                queue.append(b)
                queued[b] = 1
                continue
            for a, b in zip(starts, starts[1:] + [e]):
                end[a] = b
            starts.remove(c if queued[c] else
                          max(starts, key=lambda a: end[a] - a))
            queue.extend(starts)
            for a in starts:
                queued[a] = 1
    p.ncells = ncells
    return p if expected is None or k == len(expected) else None


def _join(parent: list[int], images: Sequence[int]) -> None:
    """Join each moved point's class with its image's; roots stay least."""
    for a in compress(range(len(images)), map(ne, images, count())):
        b = images[a]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[max(a, b)] = min(a, b)  # a no-op when they are one


def _root(g: Graph) -> ColoredPartition:
    """The search's root (module docstring)."""
    def co(v: int) -> frozenset[int]:  # v's neighbours in the complement
        return everything.difference(adj[v], (v,))

    everything, cells, adj = frozenset(range(g.n)), [], g.adjacency
    root = refine(g, ColoredPartition.unit(g.n), _owned=True)
    for s in sorted(set(root.cell)):
        c = root.lab[s:root.end[s]]
        if len(c) > 1:
            nb = co if 2 * len(adj[c[0]]) > g.n - 1 else adj.__getitem__
            f = [len(reduce(ior, map(nb, nb(v)), set())) for v in c]
            if min(f) < max(f):
                runs = groupby(sorted(zip(f, c)), itemgetter(0))
                cells += ([v for _, v in run] for _, run in runs)
                continue
        cells.append(c)
    return root if len(cells) == root.ncells else refine(
        g, ColoredPartition(cells), _owned=True)


def automorphism_group(g: Graph) -> PermGroup:
    """Generators for the full automorphism group of the graph.

    The returned group is exactly the set of adjacency- and
    nonadjacency-preserving permutations of the vertex set.
    """
    n = g.n
    gens: list[Permutation] = []
    first_path: list[int] = []
    # per first-path depth: node, non-singleton vertices, their cells
    first: list[tuple[ColoredPartition, tuple[int, ...], tuple[int, ...]]] = []
    targets: list[int] = []
    orbits = list(range(n))  # of all generators found so far

    def search(part: ColoredPartition, path: tuple[int, ...],
               lead: int) -> bool:
        # ``lead`` counts the path's first-path vertices.  True iff off
        # the first path and an automorphism was found that maps the
        # first path's subtree onto the rest of this one
        depth = len(path)
        cell, end = part.cell, part.end
        if lead == depth:
            verts = tuple(v for v in part.lab if end[cell[v]] > cell[v] + 1)
            first.append((part, verts, tuple(map(cell.__getitem__, verts))))
        else:
            # the early leaf (module docstring): the trace matched, so the
            # cells have the first path's shape, and they hold its
            # vertices whenever gamma is an automorphism
            node, verts, starts = first[depth]
            if tuple(map(cell.__getitem__, verts)) == starts:
                images = list(map(part.lab.__getitem__, node.pos))
                for v in verts:
                    images[v] = v
                if g.is_automorphism(images):
                    gens.append(Permutation(images))
                    _join(orbits, images)
                    return True
        if part.is_discrete:
            return False
        if depth == len(targets):  # all nodes at a depth share the shape
            targets.append(max(sorted(set(cell)), key=lambda s: end[s] - s))
        ti = targets[depth]
        # Orbit pruning: a sibling that is not the least of its orbit
        # under the known automorphisms fixing the path is in the orbit of
        # an explored one.  Depth first, every generator found so far fixes
        # each open first-path node's path; off it, none arrives here.
        parent = orbits if lead == depth else None
        siblings = sorted(part.lab[ti:end[ti]])
        for v in siblings:
            if v != siblings[0]:  # the first sibling is always explored
                if parent is None:
                    parent = list(range(n))
                    for p in gens:
                        if all(p.images[x] == x for x in path[lead:]):
                            _join(parent, p.images)
                if parent[v] != v:  # not a root
                    continue
            extends = len(first) == depth + 1
            child = refine(g, part._individualize(
                v, None if extends else first[depth + 1][0].trace),
                _owned=True)
            if child is None:
                continue
            if extends:
                first_path.append(v)
            if search(child, path + (v,), lead + extends) and lead < depth:
                return True
        return False

    search(_root(g), (), 0)
    return PermGroup.from_strong_generators(n, gens, first_path)

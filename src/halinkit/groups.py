"""Permutation groups backed by a deterministic base and strong generating set.

Everything downstream (orders, membership, point and setwise stabilizers,
exhaustive element listings) runs through the BSGS, a chain of Schreier trees
that form each transversal element on first use.  Generators known to be strong
for a base give the chain directly; any others go through the classic
deterministic Schreier-Sims procedure, so repeated runs build identical chains.
A stabilizer query rebases the group's own chain: deterministic swaps of
adjacent base points bring the query points to the front, with no Schreier-Sims
run.  A set stabilizer comes from one bottom-up, orbit-pruned coset backtrack.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from operator import itemgetter

from .perms import (BudgetExceededError, DEFAULT_SUBSET_BUDGET,  # re-exported
                    Permutation, point_set)


class GroupTooLargeError(ValueError):
    """Raised when an exhaustive enumeration would exceed its limit."""

    def __init__(self, order: int, limit: int):
        super().__init__(f"group order {order} exceeds enumeration limit {limit}")
        self.order = order
        self.limit = limit


class _Tree(dict):
    """A Schreier tree, keys ascending: each orbit point maps to its transversal
    element or, until :meth:`u` asks, to its breadth-first edge (g, parent)."""

    __slots__ = ("points",)

    def __init__(self, point: int, gens: Sequence[Permutation], e: Permutation):
        edges, queue = {point: e}, [point]
        for a in queue:  # the queue grows while it is read
            for g in gens:
                b = g.images[a]
                if b not in edges:
                    edges[b] = g, a
                    queue.append(b)
        super().__init__(sorted(edges.items()))
        self.points = [*self]

    def u(self, b: int) -> Permutation:
        """u_b, formed with its unformed ancestors' and cached on first use."""
        u = self[b]
        if u.__class__ is tuple:
            path = []
            while u.__class__ is tuple:  # the edge (g, parent): u_b = g * u_parent
                path.append((b, u[0]))
                b, u = u[1], self[u[1]]
            for b, g in reversed(path):
                u = self[b] = g * u
        return u


class _Chain:
    """A stabilizer chain: base points plus per-level generators and trees.

    Level i holds generators of the pointwise stabilizer of base[:i] and the
    Schreier tree of base[i] under them, whose ascending keys are the order
    :meth:`walk` visits.  ``gens[m]`` generates the pointwise stabilizer of
    base[:m], for m = 0..len(base); each list holds the next one, so ``gens[0]``
    is a strong generating set.  :meth:`rebased` swaps adjacent base points to
    move given points to the front; trees it shares only gain elements.
    """

    __slots__ = ("degree", "base", "gens", "transversals")

    def __init__(self, degree: int, base: list[int],
                 gens: list[list[Permutation]], transversals: list[_Tree]):
        self.degree = degree
        self.base = base
        self.gens = gens
        self.transversals = transversals

    @classmethod
    def read(cls, degree: int, base: Sequence[int],
             strong_gens: Sequence[Permutation]) -> "_Chain":
        """The chain of strong generators for the base: level i gets those
        fixing base[:i] and their Schreier tree of base[i]; no product."""
        gens, transversals, level = [], [], list(strong_gens)
        e = Permutation.identity(degree)
        for b in base:
            gens.append(level)
            transversals.append(_Tree(b, level, e))
            level = [g for g in level if g.images[b] == b]
        return cls(degree, list(base), gens + [level], transversals)

    @property
    def strong_gens(self) -> list[Permutation]:
        return self.gens[0]

    def verified(self) -> "_Chain":
        """The chain; AssertionError unless every generator sifts through."""
        if not all(self.sift(g)[1].is_identity() for g in self.strong_gens):
            raise AssertionError("a strong generator does not sift through")
        return self

    def rebased(self, points: Sequence[int]) -> "_Chain":
        """A chain of the same group whose base starts with the distinct
        points, in order, each an int in 0..degree-1 (callers check them).
        Points not in the base enter as last levels with orbit {p}; swaps of
        adjacent base points then move each point up to its place."""
        new = [p for p in points if p not in self.base]
        e = Permutation.identity(self.degree)
        chain = _Chain(self.degree, self.base + new,
                       [list(g) for g in self.gens] + [[] for _ in new],
                       self.transversals + [_Tree(p, [], e) for p in new])
        for j, p in enumerate(points):
            for i in reversed(range(j, chain.base.index(p))):
                chain._swap(i)
        return chain

    def _swap(self, i: int) -> None:
        """Exchange base points b = base[i] and c = base[i+1] in place.

        Level i keeps its group G and takes c's tree.  Level i+1 becomes G_c,
        generated by G_{b,c} and, per point a of b's orbit not yet reached,
        u_i(a) * u_{i+1}(d) (it fixes c, maps b to a) if d = u_i(a)^-1(c) is
        in level i+1's tree.  b's orbit, grown in place, is complete at |b^G|
        * |c^(G_b)| / |c^G| points (Seress 2003, section 5.4)."""
        b, c = self.base[i], self.base[i + 1]
        t_b, t_c = self.transversals[i], self.transversals[i + 1]
        t = _Tree(c, self.gens[i], t_b[b])  # a root maps to the identity
        if len(t) == 1:  # G fixes c: G_c = G, and the levels trade places
            self.gens[i + 1] = list(self.gens[i])
        else:
            size = len(t_b) * len(t_c) // len(t)
            self.gens[i + 1] = list(self.gens[i + 2])
            orbit_b = _orbit(self.gens[i + 1], b)
            for a in t_b.points:
                if len(orbit_b) == size:
                    break
                d = -1 if a in orbit_b else t_b.u(a).images.index(c)
                if d in t_c:
                    g = t_b.u(a) * t_c.u(d)
                    for level in self.gens[:i + 2]:
                        level.append(g)
                    _orbit(self.gens[i + 1], b, orbit_b)
            t_b = _Tree(b, self.gens[i + 1], t[c])
        self.base[i:i + 2] = c, b
        self.transversals[i:i + 2] = t, t_b

    def order(self) -> int:
        return math.prod(map(len, self.transversals))

    def sift(self, p: Permutation, start: int = 0
             ) -> tuple[int, Permutation]:
        """Strip p through the levels from ``start`` on: the level it drops
        out at (or len(base)) and the residue, the identity iff p is in."""
        for j in range(start, len(self.base)):
            a, t = p(self.base[j]), self.transversals[j]
            if a not in t:
                return j, p
            if a != self.base[j]:
                p = t.u(a).inverse() * p
        return len(self.base), p

    def walk(self, keep: Callable[[int, Permutation, int], bool] | None = None,
             level: int = 0, w: Permutation | None = None,
             stop: int | None = None) -> Iterator[Permutation]:
        """The coset products w * u_level * ... * u_{stop-1}, depth first
        in :meth:`PermGroup.elements` order (w defaults to the identity,
        stop to the chain length).  The child with u_level(base[level]) = a
        is entered only if ``keep(level, w, a)``, asked before u_level or
        the product, which maps base[level] to w(a), is formed.  A stack of
        (product, unvisited tree points) pairs, one per level, stands in for
        recursion, so no chain is too deep to walk."""
        w = Permutation.identity(self.degree) if w is None else w
        stop = len(self.base) if stop is None else stop
        if level == stop:
            yield w
            return
        stack = [(w, iter(self.transversals[level].points))]
        while stack:
            j = level + len(stack) - 1
            w, points = stack[-1]
            u = self.transversals[j].u
            for a in points:
                if keep is None or keep(j, w, a):
                    child = w * u(a)
                    if j + 1 == stop:
                        yield child
                    else:
                        stack.append((child, iter(self.transversals[j + 1].points)))
                        break
            else:
                stack.pop()

    def element(self, r: int) -> Permutation:
        """Element r of the order ``walk`` lists the group in: r's mixed-radix
        digit d at level j (level 0 most significant) picks the d-th key of
        its tree, with one gather per key that is not the base point."""
        images = tuple(range(self.degree))
        for b, t in zip(reversed(self.base), reversed(self.transversals)):
            r, digit = divmod(r, len(t))  # images <- u_j * images
            a = t.points[digit]
            if a != b:  # so degree >= 2: itemgetter gives a tuple
                images = itemgetter(*images)(t.u(a).images)
        return Permutation._raw(images)

    def set_stabilizer_gens(self, m: int) -> Iterator[Permutation]:
        """Strong generators of the stabilizer of the set base[:m], yielded
        as found: level m's, then leaves for levels j = m-1 down to 0.  All
        found so far, one plain list, fix base[:j]; an image a of base[j] in
        the set is skipped if their orbit of base[j] holds a, or the orbit of
        a failed image did when it failed.  Otherwise the first coset product
        of its walk keeping every decided image in the set, if any, joins them."""
        gens = list(self.gens[m])
        yield from gens
        target = frozenset(self.base[:m])

        def keep(level: int, w: Permutation, a: int) -> bool:
            return w(a) in target

        for j in reversed(range(m)):
            skip, t = _orbit(gens, self.base[j]), self.transversals[j]
            for a in t.points:
                if a in target and a not in skip:
                    leaf = next(self.walk(keep, j + 1, t.u(a), m), None)
                    if leaf is not None:
                        yield leaf
                        gens.append(leaf)
                    skip |= _orbit(gens, a)


def _orbit(gens: Sequence[Permutation], x: int, seen: set[int] | None = None) -> set[int]:
    """The orbit of x under the generators, by closure.  Given ``seen``, x's
    orbit under all but the last, it grows that set in place from the last's
    images outside it."""
    queue = [x] if seen is None else list({gens[-1].images[y] for y in seen} - seen)
    seen = {x} if seen is None else seen
    seen.update(queue)
    for a in queue:  # the queue grows while it is read
        for g in gens:
            b = g.images[a]
            if b not in seen:
                seen.add(b)
                queue.append(b)
    return seen


def _schreier_sims(degree: int, generators: Sequence[Permutation]) -> _Chain:
    """Deterministic Schreier-Sims: a new base point is the least point
    moved by the generator that needs it."""
    sgs: list[Permutation] = []
    for g in generators:  # of the degree: PermGroup checked them
        if not g.is_identity() and g not in sgs:
            sgs.append(g)

    base: list[int] = []
    for g in sgs:
        if all(g(b) == b for b in base):
            base.append(min(g.support()))

    chain = _Chain.read(degree, base, sgs)
    i = len(base) - 1
    while i >= 0:
        stuck: tuple[int, Permutation] | None = None
        t_i = chain.transversals[i]
        for a in t_i.points:
            for g in chain.gens[i]:
                schreier = t_i.u(g.images[a]).inverse() * (g * t_i.u(a))
                if schreier.is_identity():
                    continue
                j, residue = chain.sift(schreier, i + 1)
                if not residue.is_identity():
                    stuck = (j, residue)
                    break
            if stuck:
                break
        if stuck is None:
            i -= 1
            continue
        j, residue = stuck
        sgs.append(residue)
        if j == len(base):
            base.append(min(residue.support()))
        chain = _Chain.read(degree, base, sgs)
        i = j
    return chain.verified()


class PermGroup:
    """A permutation group given by generators, with a lazily built BSGS."""

    __slots__ = ("degree", "generators", "_chain", "_last_set_stabilizer")

    def __init__(self, degree: int, generators: Iterable[Permutation] = ()):
        gens = tuple(generators)
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.degree = degree
        self.generators = gens
        self._chain: _Chain | None = None
        self._last_set_stabilizer = (frozenset(), None)  # query, answer

    @classmethod
    def from_strong_generators(cls, degree: int,
                               generators: Iterable[Permutation],
                               base: Sequence[int]) -> "PermGroup":
        """The group generated by a strong generating set for the base,
        with its chain read off them instead of built by Schreier-Sims."""
        group = cls(degree, generators)
        group._chain = _Chain.read(degree, base, group.generators).verified()
        return group

    def chain(self) -> _Chain:
        if self._chain is None:
            self._chain = _schreier_sims(self.degree, self.generators)
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def is_trivial(self) -> bool:
        return self.order() == 1

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        return self.chain().sift(p)[1].is_identity()

    def orbit(self, x: int) -> frozenset[int]:
        """The orbit of a point under the group, by closure over generators;
        ValueError unless x is an int in 0..degree-1."""
        point_set(self.degree, (x,))
        return frozenset(_orbit(self.generators, x))

    def orbits(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        out = []
        for v in range(self.degree):
            if v not in seen:
                orb = frozenset(_orbit(self.generators, v))
                seen |= orb
                out.append(orb)
        return out

    def elements(self, limit: int = 1_000_000) -> list[Permutation]:
        """Every element exactly once; refuses when the order exceeds limit.

        Element r is u_0 * ... * u_{l-1}, u_j the transversal element of
        chain level j whose point sits at r's j-th mixed-radix digit (level
        0 most significant) among the level's transversal keys, ascending.
        ``_Chain.walk`` and ``_Chain.element`` implement this order.
        """
        order = self.order()
        if order > limit:
            raise GroupTooLargeError(order, limit)
        return list(self.chain().walk())

    def point_stabilizer(self, points: Iterable[int]) -> "PermGroup":
        """Subgroup fixing every given point, read off the group's chain
        rebased on them; ValueError unless each is an int in 0..degree-1."""
        points = point_set(self.degree, points)
        if not points:
            return self
        chain, m = self.chain().rebased(sorted(points)), len(points)
        group = PermGroup(self.degree, chain.gens[m])
        group._chain = _Chain(self.degree, chain.base[m:], chain.gens[m:],
                              chain.transversals[m:])
        return group

    def set_stabilizer(self, points: Iterable[int]) -> "PermGroup":
        """Subgroup preserving the given set, with its chain read off one
        coset backtrack over the group's chain rebased on the set: the set's
        levels are visited bottom up, and images the orbits of the
        generators found so far reach or refute are never walked (see
        ``_Chain.set_stabilizer_gens``).  The group keeps its last answer,
        so asking for the same set again runs no second backtrack."""
        target = point_set(self.degree, points)
        if not target:
            return self
        if self._last_set_stabilizer[0] != target:
            chain = self.chain().rebased(sorted(target))
            self._last_set_stabilizer = target, PermGroup.from_strong_generators(
                self.degree, chain.set_stabilizer_gens(len(target)), chain.base)
        return self._last_set_stabilizer[1]

    def set_stabilizer_is_trivial(self, points: Iterable[int]) -> bool:
        """True iff only the identity preserves the set: the backtrack of
        :meth:`set_stabilizer` stops at its first non-identity generator and
        builds no group, so True means that every walk failed."""
        target = point_set(self.degree, points)
        chain = self.chain().rebased(sorted(target))
        return all(map(Permutation.is_identity, chain.set_stabilizer_gens(len(target))))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, generators={len(self.generators)})"

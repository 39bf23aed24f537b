"""Permutation groups backed by a deterministic base and strong generating set.

Everything downstream (orders, membership, point and setwise stabilizers,
exhaustive element listings) runs through the BSGS.  Generators known to be
strong for a base give the chain directly; any others go through the classic
deterministic Schreier-Sims procedure, so repeated runs build identical chains.
A stabilizer query rebases the group's own chain: Schreier-Sims seeded with
its strong generators and the query points, stopped at the known order.  The
setwise stabilizer's chain is then read off one coset backtrack.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from operator import itemgetter

from .perms import Permutation


DEFAULT_SUBSET_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """An exhaustive subset search hit its budget before finishing."""

    def __init__(self, examined: int, budget: int, size: int):
        super().__init__(f"subset search budget exhausted at size {size} "
                         f"({examined} > {budget})")
        self.examined = examined
        self.budget = budget
        self.size = size


class GroupTooLargeError(ValueError):
    """Raised when an exhaustive enumeration would exceed its limit."""

    def __init__(self, order: int, limit: int):
        super().__init__(f"group order {order} exceeds enumeration limit {limit}")
        self.order = order
        self.limit = limit


class _Chain:
    """A stabilizer chain: base points plus per-level generators/transversals.

    Level i holds generators of the pointwise stabilizer of base[:i] and the
    transversal of the orbit of base[i] under them, with the orbit sorted in
    ``orbits[i]``.  The pointwise stabilizer of the first m base points is
    generated by the level-m generator list.
    """

    __slots__ = ("degree", "base", "gens", "transversals", "orbits",
                 "strong_gens")

    def __init__(self, degree: int, base: list[int],
                 gens: list[list[Permutation]],
                 transversals: list[dict[int, Permutation]],
                 strong_gens: list[Permutation]):
        self.degree = degree
        self.base = base
        self.gens = gens
        self.transversals = transversals
        self.orbits = [sorted(t) for t in transversals]
        self.strong_gens = strong_gens

    @classmethod
    def read(cls, degree: int, base: Sequence[int],
             strong_gens: Sequence[Permutation]) -> "_Chain":
        """The chain of strong generators for the base: level i gets those
        fixing base[:i] and their orbit transversal of base[i]."""
        gens, transversals, level = [], [], list(strong_gens)
        for b in base:
            gens.append(level)
            transversals.append(_orbit_transversal(degree, b, level))
            level = [g for g in level if g(b) == b]
        return cls(degree, list(base), gens, transversals, list(strong_gens))

    def verified(self) -> "_Chain":
        """The chain; AssertionError unless every generator sifts through."""
        if not all(self.sift(g)[1].is_identity() for g in self.strong_gens):
            raise AssertionError("a strong generator does not sift through")
        return self

    def order(self) -> int:
        return math.prod(map(len, self.orbits))

    def sift(self, p: Permutation, start: int = 0
             ) -> tuple[int, Permutation]:
        """Strip p through the levels from ``start`` on: the level it drops
        out at (or len(base)) and the residue, the identity iff p is in."""
        for j in range(start, len(self.base)):
            a, t = p(self.base[j]), self.transversals[j]
            if a not in t:
                return j, p
            if a != self.base[j]:
                p = t[a].inverse() * p
        return len(self.base), p

    def walk(self, keep: Callable[[int, Permutation, int], bool] | None = None,
             level: int = 0, w: Permutation | None = None,
             stop: int | None = None) -> Iterator[Permutation]:
        """The coset products w * u_level * ... * u_{stop-1}, depth first
        in :meth:`PermGroup.elements` order (w defaults to the identity,
        stop to the chain length).  The child with u_level(base[level]) = a
        is entered only if ``keep(level, w, a)``, asked before its product,
        which maps base[level] to w(a), is formed.  A stack of (product,
        unvisited orbit points) pairs, one per level, stands in for
        recursion, so no chain is too deep to walk."""
        w = Permutation.identity(self.degree) if w is None else w
        stop = len(self.base) if stop is None else stop
        if level == stop:
            yield w
            return
        stack = [(w, iter(self.orbits[level]))]
        while stack:
            j = level + len(stack) - 1
            w, points = stack[-1]
            for a in points:
                if keep is None or keep(j, w, a):
                    child = w * self.transversals[j][a]
                    if j + 1 == stop:
                        yield child
                    else:
                        stack.append((child, iter(self.orbits[j + 1])))
                        break
            else:
                stack.pop()

    def element(self, r: int) -> Permutation:
        """Element r of the order ``walk`` lists the group in, built from
        r's mixed-radix digits (level 0 most significant) with one gather
        per level whose digit is not the base point."""
        images = tuple(range(self.degree))
        for b, t, orbit in zip(reversed(self.base), reversed(self.transversals),
                               reversed(self.orbits)):  # images <- u_j * images
            r, digit = divmod(r, len(orbit))
            if orbit[digit] != b:  # so degree >= 2: itemgetter gives a tuple
                images = itemgetter(*images)(t[orbit[digit]].images)
        return Permutation._raw(images)


def _orbit_transversal(degree: int, point: int,
                       gens: Sequence[Permutation]) -> dict[int, Permutation]:
    t = {point: Permutation.identity(degree)}
    queue = [point]
    for a in queue:  # the queue grows while it is read
        ua = t[a]
        for g in gens:
            b = g(a)
            if b not in t:
                t[b] = g * ua
                queue.append(b)
    return t


def _schreier_sims(degree: int, generators: Sequence[Permutation],
                   prefix: Sequence[int] = (),
                   order: int | None = None) -> _Chain:
    """Deterministic Schreier-Sims.

    ``prefix`` points are installed as the first base points verbatim (even
    when redundant) so stabilizer queries can read the chain directly; after
    the prefix, new base points are chosen as the least point moved by the
    offending generator.  Given the group's ``order``, the sweep stops as
    soon as the chain reaches it: basic orbits whose lengths multiply to
    |G| are the full ones, so the rest of the sweep would add nothing.
    """
    sgs: list[Permutation] = []
    for g in generators:
        if g.degree != degree:
            raise ValueError("generator degree mismatch")
        if not g.is_identity() and g not in sgs:
            sgs.append(g)

    base: list[int] = []
    for p in prefix:
        if not 0 <= p < degree:
            raise ValueError(f"base point {p} out of range")
        if p not in base:
            base.append(p)
    for g in sgs:
        if all(g(b) == b for b in base):
            base.append(min(g.support()))

    chain = _Chain.read(degree, base, sgs)
    i = len(base) - 1
    while i >= 0 and chain.order() != order:
        stuck: tuple[int, Permutation] | None = None
        t_i = chain.transversals[i]
        for a in chain.orbits[i]:
            ua = t_i[a]
            for g in chain.gens[i]:
                ub = t_i[g(a)]
                schreier = ub.inverse() * (g * ua)
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

    __slots__ = ("degree", "generators", "_chain")

    def __init__(self, degree: int, generators: Iterable[Permutation] = ()):
        gens = tuple(generators)
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.degree = degree
        self.generators = gens
        self._chain: _Chain | None = None

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

    def build_bsgs(self) -> "PermGroup":
        """Force the BSGS; afterwards order and membership queries are exact."""
        self.chain()
        return self

    def order(self) -> int:
        return self.chain().order()

    def is_trivial(self) -> bool:
        return self.order() == 1

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        return self.chain().sift(p)[1].is_identity()

    def orbit(self, x: int) -> frozenset[int]:
        """The orbit of a point under the group, by closure over generators."""
        if not 0 <= x < self.degree:
            raise ValueError(f"point {x} out of range")
        seen = {x}
        queue = [x]
        for a in queue:  # the queue grows while it is read
            for g in self.generators:
                b = g.images[a]
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        return frozenset(seen)

    def orbits(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        out = []
        for v in range(self.degree):
            if v not in seen:
                orb = self.orbit(v)
                seen |= orb
                out.append(orb)
        return out

    def elements(self, limit: int = 1_000_000) -> list[Permutation]:
        """Every element exactly once; refuses when the order exceeds limit.

        Element r is u_0 * ... * u_{l-1}, u_j the transversal element of
        chain level j whose point sits at r's j-th mixed-radix digit (level
        0 most significant) in the level's sorted orbit.  ``_Chain.walk``
        and ``_Chain.element`` implement this order.
        """
        order = self.order()
        if order > limit:
            raise GroupTooLargeError(order, limit)
        return list(self.chain().walk())

    def _prefixed(self, points: Iterable[int]
                  ) -> tuple[_Chain, list[Permutation]]:
        """The chain rebased with the sorted points as its leading base
        points, and the strong generators fixing every one of them (they
        generate the pointwise stabilizer of the points).  Every stabilizer
        query reads this; a point out of range raises ValueError."""
        ordered = sorted(set(points))
        # a rebase, not a rebuild: the group's own strong generators seed
        # Schreier-Sims, which stops once the chain reaches the known order
        chain = _schreier_sims(self.degree, self.chain().strong_gens,
                               prefix=ordered, order=self.order())
        return chain, [g for g in chain.strong_gens
                       if all(g(p) == p for p in ordered)]

    def point_stabilizer(self, points: Iterable[int]) -> "PermGroup":
        """Subgroup fixing every given point, read off a prefixed chain."""
        points = frozenset(points)
        if not points:
            return self
        chain, stab_gens = self._prefixed(points)
        m = len(points)
        group = PermGroup(self.degree, stab_gens)
        group._chain = _Chain(self.degree, chain.base[m:], chain.gens[m:],
                              chain.transversals[m:], stab_gens)
        return group

    def set_stabilizer(self, points: Iterable[int]) -> "PermGroup":
        """Subgroup preserving the given set, with its chain read off one
        backtrack over the coset products of a prefixed chain.

        The set's points lead the base.  A product u_j...u_{m-1} of
        transversal elements from level j on, with u_j(base[j]) = a and
        every decided image inside the set, preserves the set, fixes
        base[:j] and maps base[j] to a.  One such product per (j, a), the
        first the backtrack reaches, together with the pointwise stabilizer's
        generators is a strong generating set for the prefixed base.
        """
        target = frozenset(points)
        if not target:
            return self
        chain, gens = self._prefixed(target)
        m = len(target)

        def keep(level: int, w: Permutation, a: int) -> bool:
            return w(a) in target

        for j in range(m):
            t = chain.transversals[j]
            for a in chain.orbits[j]:
                if a != chain.base[j] and a in target:
                    leaf = next(chain.walk(keep, j + 1, t[a], m), None)
                    if leaf is not None:
                        gens.append(leaf)
        return PermGroup.from_strong_generators(self.degree, gens, chain.base)

    def set_stabilizer_is_trivial(self, points: Iterable[int]) -> bool:
        """True iff only the identity preserves the set."""
        return self.set_stabilizer(points).is_trivial()

    def to_json(self) -> dict:
        return {"degree": self.degree,
                "generators": [list(g.images) for g in self.generators]}

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, generators={len(self.generators)})"

"""Permutation groups backed by a deterministic base and strong generating set.

Everything downstream (orders, membership, point and setwise stabilizers,
exhaustive element listings) runs through the BSGS.  The construction is the
classic deterministic Schreier-Sims procedure: no randomization, ascending
point order everywhere, so repeated runs build identical chains.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .perms import Permutation


class GroupTooLargeError(ValueError):
    """Raised when an exhaustive enumeration would exceed its limit."""

    def __init__(self, order: int, limit: int):
        super().__init__(f"group order {order} exceeds enumeration limit {limit}")
        self.order = order
        self.limit = limit


class _Chain:
    """A stabilizer chain: base points plus per-level generators/transversals.

    Level i holds generators of the pointwise stabilizer of base[:i] and the
    transversal of the orbit of base[i] under them.  The pointwise stabilizer
    of the first m base points is generated by the level-m generator list.
    """

    __slots__ = ("degree", "base", "gens", "transversals", "strong_gens")

    def __init__(self, degree: int, base: list[int],
                 gens: list[list[Permutation]],
                 transversals: list[dict[int, Permutation]],
                 strong_gens: list[Permutation]):
        self.degree = degree
        self.base = base
        self.gens = gens
        self.transversals = transversals
        self.strong_gens = strong_gens

    def order(self) -> int:
        result = 1
        for t in self.transversals:
            result *= len(t)
        return result

    def sift(self, p: Permutation) -> Permutation:
        """Strip p through the chain; the residue is the identity iff p is a member."""
        for point, t in zip(self.base, self.transversals):
            a = p(point)
            if a not in t:
                return p
            p = t[a].inverse() * p
        return p


def _orbit_transversal(degree: int, point: int,
                       gens: Sequence[Permutation]) -> dict[int, Permutation]:
    t = {point: Permutation.identity(degree)}
    queue = [point]
    qi = 0
    while qi < len(queue):
        a = queue[qi]
        qi += 1
        ua = t[a]
        for g in gens:
            b = g(a)
            if b not in t:
                t[b] = g * ua
                queue.append(b)
    return t


def _schreier_sims(degree: int, generators: Sequence[Permutation],
                   prefix: Sequence[int] = ()) -> _Chain:
    """Deterministic Schreier-Sims.

    ``prefix`` points are installed as the first base points verbatim (even
    when redundant) so stabilizer queries can read the chain directly; after
    the prefix, new base points are chosen as the least point moved by the
    offending generator.
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

    def level_gens(i: int) -> list[Permutation]:
        return [g for g in sgs if all(g(b) == b for b in base[:i])]

    gens: list[list[Permutation]] = []
    transversals: list[dict[int, Permutation]] = []

    def rebuild(i: int) -> None:
        lg = level_gens(i)
        while len(gens) <= i:
            gens.append([])
            transversals.append({})
        gens[i] = lg
        transversals[i] = _orbit_transversal(degree, base[i], lg)

    for i in range(len(base)):
        rebuild(i)

    def strip(start: int, p: Permutation) -> tuple[int, Permutation]:
        for j in range(start, len(base)):
            a = p(base[j])
            if a not in transversals[j]:
                return j, p
            p = transversals[j][a].inverse() * p
        return len(base), p

    i = len(base) - 1
    while i >= 0:
        stuck: tuple[int, Permutation] | None = None
        t_i = transversals[i]
        for a in sorted(t_i):
            ua = t_i[a]
            for g in gens[i]:
                ub = t_i[g(a)]
                schreier = ub.inverse() * (g * ua)
                if schreier.is_identity():
                    continue
                j, residue = strip(i + 1, schreier)
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
        for k in range(j + 1):
            rebuild(k)
        i = j

    chain = _Chain(degree, base, gens, transversals, sgs)
    for g in sgs:
        if not chain.sift(g).is_identity():
            raise AssertionError("Schreier-Sims produced an incomplete chain")
    return chain


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
        return self.chain().sift(p).is_identity()

    def orbit(self, x: int) -> frozenset[int]:
        """The orbit of a point under the group, by closure over generators."""
        if not 0 <= x < self.degree:
            raise ValueError(f"point {x} out of range")
        seen = {x}
        queue = [x]
        qi = 0
        while qi < len(queue):
            a = queue[qi]
            qi += 1
            for g in self.generators:
                b = g(a)
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
        """Every element exactly once; refuses when the order exceeds limit."""
        order = self.order()
        if order > limit:
            raise GroupTooLargeError(order, limit)
        chain = self.chain()
        elems = [Permutation.identity(self.degree)]
        for t in reversed(chain.transversals):
            elems = [t[a] * e for a in sorted(t) for e in elems]
        return elems

    def _prefixed(self, points: Iterable[int]
                  ) -> tuple[_Chain, list[Permutation]]:
        """The chain rebuilt with the sorted points as its leading base
        points, and the strong generators fixing every one of them (they
        generate the pointwise stabilizer of the points).  Every stabilizer
        query reads this; a point out of range raises ValueError."""
        ordered = sorted(set(points))
        # seeding with the default chain's strong generators makes the
        # prefixed rebuild converge in few rounds
        chain = _schreier_sims(self.degree, self.chain().strong_gens,
                               prefix=ordered)
        return chain, [g for g in chain.strong_gens
                       if all(g(p) == p for p in ordered)]

    def point_stabilizer(self, points: Iterable[int]) -> "PermGroup":
        """Subgroup fixing every given point, read off a prefixed chain."""
        points = frozenset(points)
        if not points:
            return PermGroup(self.degree, self.generators)
        chain, stab_gens = self._prefixed(points)
        m = len(points)
        group = PermGroup(self.degree, stab_gens)
        group._chain = _Chain(self.degree, chain.base[m:], chain.gens[m:],
                              chain.transversals[m:], stab_gens)
        return group

    def _set_stab_reps(self, chain: _Chain, target: frozenset[int],
                       limit: int | None = None) -> list[Permutation]:
        """Coset representatives w (over the pointwise stabilizer of the
        prefix) with w(target) = target, found by backtracking; a partial
        product whose decided images leave the set is pruned."""
        m = len(target)
        reps: list[Permutation] = []

        def search(level: int, w: Permutation) -> bool:
            if level == m:
                reps.append(w)
                return limit is not None and len(reps) >= limit
            t = chain.transversals[level]
            for a in sorted(t):
                if w(a) in target:
                    if search(level + 1, w * t[a]):
                        return True
            return False

        search(0, Permutation.identity(self.degree))
        return reps

    def set_stabilizer(self, points: Iterable[int]) -> "PermGroup":
        """Subgroup preserving the given set, by backtracking over the chain.

        The chain is rebuilt with the set's points as the leading base
        points.  Every valid coset representative together with the
        pointwise stabilizer generates the setwise stabilizer.
        """
        target = frozenset(points)
        if not target:
            return PermGroup(self.degree, self.generators)
        chain, gens = self._prefixed(target)
        reps = self._set_stab_reps(chain, target)
        # Compress: distinct coset representatives can be numerous, but each
        # new generator at least doubles the group, so few survive.
        group = PermGroup(self.degree, gens)
        for rep in reps:
            if not rep.is_identity() and not group.contains(rep):
                gens.append(rep)
                group = PermGroup(self.degree, gens)
        return group

    def set_stabilizer_is_trivial(self, points: Iterable[int]) -> bool:
        """True iff only the identity preserves the set.

        Equivalent to ``set_stabilizer(points).is_trivial()`` but aborts the
        backtracking as soon as a second coset representative shows up.
        """
        target = frozenset(points)
        if not target:
            return self.order() == 1
        chain, pointwise = self._prefixed(target)
        if pointwise:
            return False  # nontrivial pointwise stabilizer
        return len(self._set_stab_reps(chain, target, limit=2)) == 1

    def to_json(self) -> dict:
        return {"degree": self.degree,
                "generators": [list(g.images) for g in self.generators]}

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, generators={len(self.generators)})"

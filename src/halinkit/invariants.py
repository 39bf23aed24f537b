"""Symmetry invariants of a finite graph's automorphism group.

All operations take the automorphism group (see
:func:`halinkit.autgroup.automorphism_group`) rather than the graph itself;
a base is a vertex set with trivial pointwise stabilizer, a distinguishing
set one with trivial setwise stabilizer.  Exhaustive searches run
size-ascending in lexicographic subset order and every tie is broken toward
the least vertex index, so results are reproducible.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations

from .groups import PermGroup
from .perms import Permutation

DEFAULT_SUBSET_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """An exhaustive subset search hit its budget before finishing."""

    def __init__(self, examined: int, budget: int):
        super().__init__(
            f"subset search budget exhausted ({examined} > {budget})")
        self.examined = examined
        self.budget = budget


@dataclass(frozen=True)
class Bounds:
    """The two size bounds attached to a base of size n.

    ``cost_bound`` caps the final distinguishing set produced by the greedy
    chain; ``chain_bound`` caps the number of strict subgroup steps, via the
    longest subgroup chain in Sym(n).  ``popcount`` is the number of 1s in
    the binary expansion of n.
    """

    n: int
    popcount: int
    cost_bound: int
    chain_bound: int

    def to_json(self) -> dict:
        return {"n": self.n, "popcount": self.popcount,
                "cost_bound": self.cost_bound,
                "chain_bound": self.chain_bound}


def bounds(n: int) -> Bounds:
    """Exact integer evaluation of the two bound formulas for base size n."""
    if n < 1:
        raise ValueError("bounds are defined for base size n >= 1")
    b = bin(n).count("1")
    cost = -(-5 * n // 2) - b - 1
    chain = -(-3 * n // 2) - b - 1
    return Bounds(n, b, cost, chain)


@dataclass(frozen=True)
class StabilizerChain:
    """Record of a greedy run Y_0 = base, Y_i = Y_{i-1} + one vertex.

    ``orders`` holds |setwise stabilizer of Y_i| for i = 0..k and must be
    strictly decreasing; the run is complete when the last order is 1 and
    ``stalled`` marks runs where no vertex could cut the stabilizer further.
    """

    base: tuple[int, ...]
    added: tuple[int, ...]
    orders: tuple[int, ...]
    stalled: bool

    @property
    def final_set(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.base) | set(self.added)))

    @property
    def completed(self) -> bool:
        return not self.stalled and self.orders[-1] == 1

    @property
    def length(self) -> int:
        return len(self.added)

    def to_json(self) -> dict:
        return {"base": sorted(self.base), "added": list(self.added),
                "orders": list(self.orders), "stalled": self.stalled,
                "final_set": list(self.final_set),
                "final_size": len(self.final_set),
                "completed": self.completed}


def is_base(group: PermGroup, points: Iterable[int]) -> bool:
    """True iff the pointwise stabilizer of the set is trivial."""
    return group.point_stabilizer(points).is_trivial()


def is_distinguishing(group: PermGroup, points: Iterable[int]) -> bool:
    """True iff the setwise stabilizer of the set is trivial."""
    return group.set_stabilizer_is_trivial(points)


def _least_subset(group: PermGroup, pred, budget: int
                  ) -> tuple[int, tuple[int, ...]] | None:
    """The first subset in size-ascending lexicographic order that satisfies
    ``pred(group, subset)``, with its size; (0, ()) for the trivial group
    and None if no subset does.  Every subset examined counts against the
    budget."""
    if group.is_trivial():
        return 0, ()
    examined = 0
    for k in range(1, group.degree + 1):
        for subset in combinations(range(group.degree), k):
            examined += 1
            if examined > budget:
                raise BudgetExceededError(examined, budget)
            if pred(group, subset):
                return k, subset
    return None


def determining_number(
        group: PermGroup,
        budget: int = DEFAULT_SUBSET_BUDGET) -> tuple[int, tuple[int, ...]]:
    """Minimum base size with its lexicographically least witness.

    Size-ascending search; the full vertex set is always a base for a
    faithful action, so the search terminates with a witness.  Returns
    (0, ()) for the trivial group.
    """
    return _least_subset(group, is_base, budget)


def distinguishing_cost(
        group: PermGroup,
        budget: int = DEFAULT_SUBSET_BUDGET) -> tuple[int, tuple[int, ...]] | None:
    """Minimum distinguishing-set size with witness, or None if none exists.

    Nonexistence (every subset has a nontrivial setwise stabilizer, as in
    complete graphs) is reported only after exhausting all subsets.
    """
    return _least_subset(group, is_distinguishing, budget)


def motion_of(p: Permutation) -> int:
    """Number of points the permutation moves."""
    return p.num_moved()


def motion(group: PermGroup) -> tuple[int, Permutation]:
    """Minimum motion over nontrivial elements, with a witness.

    Branch-and-bound over the stabilizer chain.  Partial coset products are
    visited in the order :meth:`PermGroup.elements` lists the group, a
    product whose decided base-point images already move as many points as
    the best witness is pruned, and the witness changes only on a strict
    improvement, so it is the first minimum-motion element of that listing.
    """
    if group.order() <= 1:
        raise ValueError("motion is undefined for the trivial group")
    chain = group.chain()
    base = chain.base
    identity = Permutation.identity(group.degree)
    best: list = [group.degree + 1, identity]

    def rec(level: int, w: Permutation, moved: int) -> None:
        if moved >= best[0]:
            return
        if level == len(base):
            if not w.is_identity():
                m = w.num_moved()
                if m < best[0]:
                    best[0] = m
                    best[1] = w
            return
        t = chain.transversals[level]
        for a in sorted(t):
            w2 = w * t[a]
            rec(level + 1, w2,
                moved + (1 if w2(base[level]) != base[level] else 0))

    rec(0, identity, 0)
    return best[0], best[1]


def disjoint_translate(group: PermGroup, y: Iterable[int],
                       z: Iterable[int]) -> Permutation | None:
    """Some group element mapping Z completely off Y, or None.

    Finite groups may have no such element; the search walks the stabilizer
    chain depth-first, pruning branches whose decided images of Z already
    meet Y.
    """
    yset = frozenset(y)
    zset = frozenset(z)
    if not yset or not zset:
        return Permutation.identity(group.degree)
    chain = group.chain()
    base = chain.base
    z_in_base = [b for b in base if b in zset]

    def rec(level: int, w: Permutation) -> Permutation | None:
        decided = set(base[:level])
        if zset <= decided:
            return w  # all images of Z decided and disjoint from Y
        if level == len(base):
            return w if yset.isdisjoint(w(v) for v in zset) else None
        t = chain.transversals[level]
        for a in sorted(t):
            w2 = w * t[a]
            if any(w2(b) in yset for b in z_in_base if b in decided | {base[level]}):
                continue
            found = rec(level + 1, w2)
            if found is not None:
                return found
        return None

    return rec(0, Permutation.identity(group.degree))


def reducing_vertex(group: PermGroup, y: Iterable[int]) -> int | None:
    """Least vertex whose addition strictly cuts the setwise stabilizer of Y.

    Tries the candidate filter from the subgroup-reduction argument first:
    with X = union of a(Y) over the elements a with a(Y) meeting Y, prefer
    vertices outside X that are moved by the stabilizer of Y.  Falls back
    to scanning every vertex.  Returns None ("stalled") when no vertex
    produces a proper subgroup, which finite graphs can legitimately hit.
    """
    yset = frozenset(y)
    if len(yset) < 2:
        raise ValueError("reducing vertex needs |Y| >= 2")
    stab_y = group.set_stabilizer(yset)
    order_y = stab_y.order()
    if order_y == 1:
        raise ValueError("setwise stabilizer of Y is already trivial")

    moved_by_stab: set[int] = set()
    for gen in stab_y.generators:
        moved_by_stab.update(gen.support())
    # v is in X iff some a maps a pair of Y x Y to (y, v) with y in Y, so X
    # is read off the closure of Y x Y under the generators.
    pairs = {(u, v) for u in yset for v in yset}
    queue = list(pairs)
    while queue:
        u, v = queue.pop()
        for gen in group.generators:
            image = (gen(u), gen(v))
            if image not in pairs:
                pairs.add(image)
                queue.append(image)
    filtered = sorted(moved_by_stab - {v for u, v in pairs if u in yset})

    rest = sorted(v for v in range(group.degree)
                  if v not in yset and v not in filtered)
    for v in filtered + rest:
        stab_v = group.set_stabilizer(yset | {v})
        if stab_v.order() >= order_y:
            continue
        if all(frozenset(gen(u) for u in yset) == yset
               for gen in stab_v.generators):
            return v
    return None


def greedy_distinguishing_chain(group: PermGroup,
                                base: Iterable[int]) -> StabilizerChain:
    """Grow a base one vertex at a time until its setwise stabilizer is trivial.

    Singleton bases are already distinguishing (setwise = pointwise for a
    single vertex), so the loop only ever calls the reduction step with
    |Y| >= 2.  A stalled run returns the partial chain with the flag set.
    """
    base_set = frozenset(base)
    if not is_base(group, base_set):
        raise ValueError("the starting set must be a base (trivial pointwise stabilizer)")
    orders = [group.set_stabilizer(base_set).order()]
    added: list[int] = []
    current = base_set
    stalled = False
    while orders[-1] > 1:
        v = reducing_vertex(group, current)
        if v is None:
            stalled = True
            break
        added.append(v)
        current = current | {v}
        orders.append(group.set_stabilizer(current).order())
    return StabilizerChain(tuple(sorted(base_set)), tuple(added),
                           tuple(orders), stalled)


def subdegree_report(group: PermGroup) -> list[tuple[int, int]]:
    """(vertex, largest orbit size of its point stabilizer) for every vertex.

    Finite graphs are trivially subdegree-finite; the sizes contextualize
    how truncation scales stabilizer orbits.
    """
    out = []
    for v in range(group.degree):
        stab = group.point_stabilizer({v})
        largest = max((len(o) for o in stab.orbits()), default=1)
        out.append((v, largest))
    return out

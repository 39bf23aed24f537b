"""Symmetry invariants of a finite graph's automorphism group.

All operations take the automorphism group (see
:func:`halinkit.autgroup.automorphism_group`) rather than the graph itself;
a base is a vertex set with trivial pointwise stabilizer, a distinguishing
set one with trivial setwise stabilizer.  Exhaustive searches run
size-ascending in lexicographic subset order and every tie is broken toward
the least vertex index, so results are reproducible.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .groups import BudgetExceededError, DEFAULT_SUBSET_BUDGET, PermGroup
from .perms import Permutation, point_set


class Bounds(namedtuple("Bounds", "n popcount cost_bound chain_bound")):
    """The two size bounds attached to a base of size n.

    ``cost_bound`` caps the final distinguishing set produced by the greedy
    chain; ``chain_bound`` caps the number of strict subgroup steps, via the
    longest subgroup chain in Sym(n).  ``popcount`` is the number of 1s in
    the binary expansion of n.
    """

    __slots__ = ()

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


class StabilizerChain(namedtuple("StabilizerChain",
                                 "base added orders stalled")):
    """The record of a greedy run Y_0 = base, Y_i = Y_{i-1} + one vertex.

    ``orders`` holds |setwise stabilizer of Y_i| for i = 0..k, strictly
    decreasing, and ``added`` holds k distinct vertices off the base (else
    ValueError); the run is complete when the last order is 1 and
    ``stalled`` marks runs where no vertex could cut the stabilizer further.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        orders, added = self.orders, self.added
        if (len(orders) != len(added) + 1 or len({*added} - {*self.base}) < len(added)
                or any(a <= b for a, b in zip(orders, orders[1:]))):
            raise ValueError("greedy record: orders must strictly decrease, one per "
                             "Y_i, and added vertices be distinct and off the base")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # and _replace

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


def _least_subset(group: PermGroup, pred, budget: int, largest: int
                  ) -> tuple[int, tuple[int, ...]] | None:
    """The first base of at most ``largest`` points in size-ascending
    lexicographic order that also satisfies ``pred(group, subset)`` if
    given, with its size; (0, ()) for the trivial group and None if no
    such subset does.

    Depth-first over the k-subsets with H the pointwise stabilizer of the
    prefix S; S + {x} is a base iff |x^H| = |H|.  Only the least point x of
    each H-orbit is tried: an h in H with h(x) < x maps every extension of
    S + {x} to a lexicographically smaller set, and witnesses are closed
    under the group.  Every node visited counts against the budget.
    """
    if group.is_trivial():
        return 0, ()
    visited = 0

    def bases(h: PermGroup, prefix: tuple[int, ...], k: int):
        nonlocal visited
        for orbit in h.orbits():  # ascending by least point
            x = min(orbit)
            if prefix and x <= prefix[-1] or x > group.degree - k + len(prefix):
                continue
            visited += 1
            if visited > budget:
                raise BudgetExceededError(visited, budget, k)
            if len(prefix) + 1 < k:
                yield from bases(h.point_stabilizer({x}), prefix + (x,), k)
            elif len(orbit) == h.order():
                yield prefix + (x,)

    for k in range(1, largest + 1):
        for subset in bases(group, (), k):
            if pred is None or pred(group, subset):
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
    return _least_subset(group, None, budget, group.degree)


def distinguishing_cost(
        group: PermGroup,
        budget: int = DEFAULT_SUBSET_BUDGET) -> tuple[int, tuple[int, ...]] | None:
    """Minimum distinguishing-set size with witness, or None if none exists.

    S and its complement have the same setwise stabilizer, so a least
    distinguishing set has at most n/2 points, and nonexistence (as in
    complete graphs) is reported once the search covers those sizes.
    """
    return _least_subset(group, is_distinguishing, budget, group.degree // 2)


def motion(group: PermGroup) -> tuple[int, Permutation]:
    """Minimum motion over nontrivial elements, with a witness.

    Branch-and-bound over the stabilizer chain.  Partial coset products are
    visited in the order :meth:`PermGroup.elements` lists the group, a
    child whose decided base-point images already move as many points as
    the best witness is pruned, and the witness changes only on a strict
    improvement, so it is the first minimum-motion element of that listing.
    """
    if group.order() <= 1:
        raise ValueError("motion is undefined for the trivial group")
    chain = group.chain()
    base = chain.base
    best, witness = group.degree + 1, None
    # moved[j]: points of base[:j] moved by the walk's product at level j;
    # the walk is depth first, so a child's count stands while it is walked
    moved = [0] * (len(base) + 1)

    def keep(level: int, w: Permutation, a: int) -> bool:
        moved[level + 1] = moved[level] + (w.images[a] != base[level])
        return moved[level + 1] < best

    for w in chain.walk(keep):
        m = w.num_moved()
        if 0 < m < best:
            best, witness = m, w
    return best, witness


def disjoint_translate(group: PermGroup, y: Iterable[int],
                       z: Iterable[int]) -> Permutation | None:
    """Some group element mapping Z completely off Y, or None.

    Finite groups may have no such element; the search walks the stabilizer
    chain depth-first, pruning branches whose decided images of Z already
    meet Y, and stops at the first level whose base prefix holds all of Z.
    A vertex not an int in 0..degree-1 raises ValueError.
    """
    yset = point_set(group.degree, y)
    zset = point_set(group.degree, z)
    if not yset or not zset:
        return Permutation.identity(group.degree)
    chain = group.chain()
    base = chain.base
    stop = max(map(base.index, zset)) + 1 if zset <= set(base) else len(base)

    def keep(level: int, w: Permutation, a: int) -> bool:
        return base[level] not in zset or w(a) not in yset

    return next((w for w in chain.walk(keep, stop=stop)
                 if yset.isdisjoint(map(w, zset))), None)


def reducing_vertex(group: PermGroup, y: Iterable[int]) -> int | None:
    """Least vertex whose addition strictly cuts the setwise stabilizer of Y.

    Tries the candidate filter from the subgroup-reduction argument first:
    with X = union of a(Y) over the elements a with a(Y) meeting Y, prefer
    vertices outside X that are moved by the stabilizer of Y.  Falls back
    to the other vertices that stabilizer moves: if it fixes v, it also
    preserves Y + {v}, so v cannot cut the order.  A candidate v qualifies
    when every generator of stab(Y + {v}) preserves Y.  That group is then
    stab(Y)_v, the elements of stab(Y) fixing v, a proper subgroup because
    stab(Y) moves v; so no orders are compared.  A candidate outside X
    qualifies without that test: an element preserving Y + {v} maps Y
    (|Y| >= 2) to a set meeting Y, hence inside X, hence missing v, hence
    onto Y.
    Returns None ("stalled") when no vertex produces a proper subgroup,
    which finite graphs can legitimately hit.
    """
    yset = point_set(group.degree, y)
    if len(yset) < 2:
        raise ValueError("reducing vertex needs |Y| >= 2")
    stab_y = group.set_stabilizer(yset)
    if stab_y.is_trivial():
        raise ValueError("setwise stabilizer of Y is already trivial")

    moved_by_stab = {v for gen in stab_y.generators for v in gen.support()}
    # v is in X iff some a maps a pair of Y x Y to (y, v) with y in Y, so X
    # is read off the closure of Y x Y under the generators.
    gens = [gen.images for gen in group.generators]
    queue = [(u, v) for u in yset for v in yset]
    pairs = set(queue)
    for u, v in queue:  # the queue grows while it is read
        for images in gens:
            image = images[u], images[v]
            if image not in pairs:
                pairs.add(image)
                queue.append(image)
    x = {v for u, v in pairs if u in yset}  # contains Y
    for v in sorted(moved_by_stab - yset, key=lambda v: (v in x, v)):
        if v not in x or all(frozenset(map(gen, yset)) == yset for gen
                             in group.set_stabilizer(yset | {v}).generators):
            return v
    return None


def greedy_distinguishing_chain(group: PermGroup,
                                base: Iterable[int]) -> StabilizerChain:
    """Grow a base one vertex at a time until its setwise stabilizer is trivial.

    Singleton bases are already distinguishing (setwise = pointwise), so the
    reduction step only sees |Y| >= 2.  A stalled run returns the partial
    chain, flagged.  The group keeps its last set stabilizer for reducing_vertex.
    """
    base_set = point_set(group.degree, base)
    if not is_base(group, base_set):
        raise ValueError("the starting set must be a base (trivial pointwise stabilizer)")
    orders, added, current = [group.set_stabilizer(base_set).order()], [], base_set
    while orders[-1] > 1 and (v := reducing_vertex(group, current)) is not None:
        added.append(v)
        current = current | {v}
        orders.append(group.set_stabilizer(current).order())
    return StabilizerChain(tuple(sorted(base_set)), tuple(added),
                           tuple(orders), orders[-1] > 1)


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

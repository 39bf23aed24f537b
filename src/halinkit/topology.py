"""Permutation ultrametrics from nested finite exhaustions.

Given a strictly nested sequence X_0 < X_1 < ... of finite vertex sets, the
confluent of two permutations is the least index whose set contains a point
of disagreement, and the distance is 2^(-confluent).  Distances are exact
dyadic rationals (:class:`fractions.Fraction`), never floats, so the strong
triangle inequality can be checked exactly.

When two permutations agree on every listed set the confluent is reported as
the distinct value ``None`` ("equal on all") rather than pretending the
distance separates them: agreement on a partial exhaustion proves equality
only when the last set covers the whole domain.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import itemgetter

from .perms import Permutation, point_set


class Exhaustion:
    """A strictly nested sequence of finite nonempty subsets of {0..n-1},
    with one gather per (nonempty) layer X_i - X_{i-1} for :func:`confluent`."""

    __slots__ = ("degree", "sets", "_layers")

    def __init__(self, degree: int, sets: Iterable[Iterable[int]]):
        canon = tuple(point_set(degree, s) for s in sets)
        if not canon or not canon[0]:
            raise ValueError("exhaustion needs a nonempty first set")
        for a, b in zip(canon, canon[1:]):
            if not a < b:
                raise ValueError("exhaustion sets must be strictly nested")
        self.degree = degree
        self.sets = canon
        self._layers = tuple(itemgetter(*sorted(b - a))
                             for a, b in zip((frozenset(),) + canon, canon))

    @classmethod
    def prefixes(cls, degree: int) -> "Exhaustion":
        """The covering exhaustion {0}, {0,1}, ..., {0..n-1}."""
        return cls(degree, [range(i + 1) for i in range(degree)])

    @property
    def covers(self) -> bool:
        return len(self.sets[-1]) == self.degree

    def __len__(self) -> int:
        return len(self.sets)

    def __repr__(self) -> str:
        return f"Exhaustion(degree={self.degree}, sets={len(self.sets)}, covers={self.covers})"


def confluent(e: Exhaustion, a: Permutation, b: Permutation) -> int | None:
    """Least index i with a disagreement inside X_i; None if none exists.

    That is the first layer whose gathers (a scalar for one point) differ."""
    if len(a.images) != e.degree or len(b.images) != e.degree:
        raise ValueError("permutation does not act on the exhaustion's domain")
    for i, layer in enumerate(e._layers):
        if layer(a.images) != layer(b.images):
            return i
    return None


def dist(e: Exhaustion, a: Permutation, b: Permutation) -> Fraction:
    """2^(-confluent), exactly; zero when the permutations agree on all sets."""
    from fractions import Fraction  # only distances need it, not the CLI's import
    c = confluent(e, a, b)
    return Fraction(0) if c is None else Fraction(1, 2 ** c)


def dist_star(e: Exhaustion, a: Permutation, b: Permutation) -> Fraction:
    """d(a, b) + d(a^-1, b^-1), exactly."""
    return dist(e, a, b) + dist(e, a.inverse(), b.inverse())


def check_ultrametric(
        e: Exhaustion,
        triples: Iterable[tuple[Permutation, Permutation, Permutation]],
) -> list[dict]:
    """Strong triangle inequality d(a,c) <= max(d(a,b), d(b,c)) per triple.

    Returns the violations (expected empty); each violation records the
    triple and the three distances.  The test runs on confluents, as
    d = 2^(-conf), with None ("equal on all") above every index; a triple
    stops once conf(a, c) is None or conf(a, b) <= conf(a, c) rules it out.
    """
    violations = []
    for a, b, c in triples:
        ac = confluent(e, a, c)
        if ac is None:
            continue
        ab = confluent(e, a, b)
        if ab is not None and ab <= ac:
            continue
        bc = confluent(e, b, c)
        if bc is None or ac < bc:
            violations.append({
                "triple": [list(a.images), list(b.images), list(c.images)],
                "d_ac": str(dist(e, a, c)), "d_ab": str(dist(e, a, b)),
                "d_bc": str(dist(e, b, c)),
            })
    return violations


def check_cauchy(e: Exhaustion,
                 sequence: Sequence[Permutation]) -> list[Fraction]:
    """Max tail distance per index: entry k = max over l > k of d(s_k, s_l)."""
    return [max(dist(e, sequence[k], sequence[l])
                for l in range(k + 1, len(sequence)))
            for k in range(len(sequence) - 1)]

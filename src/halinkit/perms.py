"""Permutations of {0..n-1} in image-array form.

Composition is right-to-left throughout: ``(a * b)(x) == a(b(x))``, so in a
product the rightmost factor acts first; each product is a C-level gather.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from operator import itemgetter


def point_set(degree: int, points: Iterable[int]) -> frozenset[int]:
    """The points as a set; ValueError unless each is an int (not a bool)
    in 0..degree-1."""
    points = list(points)
    if set(map(type, points)) - {int} or not all(0 <= p < degree for p in points):
        raise ValueError(f"points {points!r} out of range 0..{degree - 1}")
    return frozenset(points)


def is_permutation(images: Sequence[int]) -> bool:
    """True iff every image is an int (not a bool) and each of
    0..len(images)-1 appears exactly once."""
    return (not set(map(type, images)) - {int}
            and sorted(images) == list(range(len(images))))


class Permutation:
    """An immutable bijection of {0..n-1}, stored as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        if not is_permutation(imgs):
            raise ValueError(f"not a permutation of 0..{len(imgs) - 1}: {imgs!r}")
        self.images = imgs

    @classmethod
    def _raw(cls, images: tuple[int, ...]) -> "Permutation":
        # trusted constructor for images known to be a bijection
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._raw(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build a permutation of degree n from disjoint cycles.  Each point
        must be an int (not a bool) in 0..n-1 and appear at most once in
        all the cycles together; otherwise ValueError."""
        cycles = [tuple(cycle) for cycle in cycles]
        points = [a for cycle in cycles for a in cycle]
        if (set(map(type, points)) - {int} or len(set(points)) < len(points)
                or not all(0 <= a < n for a in points)):
            raise ValueError(f"not disjoint cycles of 0..{n - 1}: {cycles!r}")
        images = list(range(n))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls._raw(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # self after other: (self * other)(x) = self(other(x))
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        return Permutation._raw(other.gather()(self.images))

    def gather(self) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
        """The map p.images -> (p * self).images, one C-level itemgetter."""
        if len(self.images) <= 1:  # only the identity; itemgetter needs 2+
            return tuple
        return itemgetter(*self.images)

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        square = self
        while k:
            if k & 1:
                result = square * result
            square = square * square
            k >>= 1
        return result

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._raw(tuple(inv))

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def support(self) -> tuple[int, ...]:
        """Points moved by the permutation, ascending."""
        return tuple(i for i, j in enumerate(self.images) if i != j)

    def num_moved(self) -> int:
        return sum(1 for i, j in enumerate(self.images) if i != j)

    def cycle_string(self) -> str:
        seen: set[int] = set()
        parts = []
        for i in range(self.degree):
            if i in seen or self.images[i] == i:
                continue
            cycle = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self.images[j]
            parts.append("(" + " ".join(map(str, cycle)) + ")")
        return "".join(parts) or "()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, degree={self.degree})"

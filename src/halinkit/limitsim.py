"""Finite-truncation simulation of the nested fixing-automorphism construction.

On a truncated infinite graph whose every finite interior set is fixed
pointwise by some nontrivial automorphism, the construction builds rounds
(F_k, phi_k, x_k): F_k a finite vertex set, phi_k an automorphism fixing F_k
but moving x_k, and F_{k+1} the minimal closure

    F_{k+1} = alpha_k^E(F_k) + alpha_k^{-E}(F_k) + {x_k, v_{k+1}},

where alpha_k^eps = phi_0^{eps_0} o ... o phi_k^{eps_k} ranges over all sign
words eps of length k+1 (rightmost factor applied first) and v_{k+1} is the
enumeration vertex k+1.  The union over all words is built without listing
them: S <- S + phi_i(S) for i = k..0 gives the images, and
T <- T + phi_i^{-1}(T) for i = 0..k the preimages, where phi_i^{-1} =
phi_i because every fixing automorphism here is a swap.  The 2^K words of
length K then evaluate to 2^K pairwise distinct vertex maps, which the
verification helpers certify mechanically: ``verify_distinctness`` returns
a ``PairCertificate`` of one period column per level, 2^(K+1) - 2 entries
in all, whose ``witnessed()`` counts the distinct-image pairs level by
level; neither the 2^K words nor the C(2^K, 2) pairs are stored.
Minimal closures keep F_k small, maximizing the rounds a fixed truncation
depth can host.  All of this reads the family's closed forms, never its
``graph``, so ``limit-sim`` builds no graph.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import reduce
from itertools import chain, islice
from operator import eq

from .graphs import TruncatedFamily
from .perms import Permutation, point_set
from .topology import Exhaustion


class EpsilonWord(tuple):
    """A finite 0/1 sign word, the tuple of its ``bits``; prefix stand-in
    for an infinite sign sequence."""

    __slots__ = ()

    def __new__(cls, bits):
        self = super().__new__(cls, bits)
        if len(self) < 1:
            raise ValueError("sign word must have length >= 1")
        if not all(b in (0, 1) for b in self):
            raise ValueError("sign word bits must be 0 or 1")
        return self

    bits = property(tuple)

    @classmethod
    def from_int(cls, value: int, length: int) -> "EpsilonWord":
        """Bits of value, least significant bit first."""
        return cls((value >> i) & 1 for i in range(length))

    def __repr__(self) -> str:
        return f"EpsilonWord(bits={tuple(self)!r})"


class ConstructionState(namedtuple("ConstructionState",
                                   "family fsets phis xs requested")):
    """Completed rounds of the construction plus the final closure set.

    ``fsets`` holds F_0 .. F_R for R completed rounds (one more set than
    rounds: the closure after the last round is recorded so distinctness
    witnesses for the final sign bit are available).  ``requested`` is the
    round count asked for; fewer completed rounds mean the truncation was
    exhausted.
    """

    __slots__ = ()

    @property
    def rounds_completed(self) -> int:
        return len(self.phis)

    @property
    def exhausted(self) -> bool:
        return self.rounds_completed < self.requested

    @property
    def exhausted_prefix(self) -> int:
        """Count of leading enumeration vertices absorbed into the last set."""
        return min(set(range(len(self.fsets[-1]) + 1)) - self.fsets[-1])

    def inverse_consistency(self) -> bool:
        """phi_k * phi_k is the identity for every round: each phi_k is
        its own inverse, as the preimage closures assume."""
        return all((phi * phi).is_identity() for phi in self.phis)

    def exhaustion(self) -> Exhaustion:
        """The nested F_k as an exhaustion of the truncated graph's vertices."""
        return Exhaustion(self.family.n, self.fsets)

    def to_json(self) -> dict:
        return {
            "family": self.family.kind,
            "depth": self.family.depth,
            "requested_rounds": self.requested,
            "completed_rounds": self.rounds_completed,
            "exhausted": self.exhausted,
            "exhausted_prefix": self.exhausted_prefix,
            "fsets": [sorted(f) for f in self.fsets],
            "xs": list(self.xs),
            "phis": [list(p.images) for p in self.phis],
        }


def depth_budget(kind: str, rounds: int) -> int:
    """Truncation depth sufficient to host the given number of rounds.

    The closures only reach depths that grow logarithmically with the round
    count, so these linear budgets are comfortable; they are validated by
    the test suite for every round count the toolkit targets.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if kind == "binary-tree":
        return rounds + 2
    if kind == "comb":
        return 2 * rounds + 2
    raise ValueError(f"no depth budget for family {kind!r}")


# ---------------------------------------------------------------------------
# Fixing oracles: a nontrivial automorphism fixing F pointwise, found
# structurally (no group computation).
# ---------------------------------------------------------------------------

def _tree_swap(u: int, n: int) -> Permutation:
    """Exchange the two child subtrees of u in a complete tree of n
    vertices: level by level, the left child's range [a, a + w) and the
    right child's [a + w, a + 2w) trade places: a bijection by design."""
    images = list(range(n))
    a, w = 2 * u + 1, 1
    while a + 2 * w <= n:
        images[a:a + w], images[a + w:a + 2 * w] = \
            range(a + w, a + 2 * w), range(a, a + w)
        a, w = 2 * a + 1, 2 * w
    return Permutation._raw(tuple(images))


def fixing_oracle(family: TruncatedFamily,
                  fixed: frozenset[int] | set[int]) -> Permutation | None:
    """A nontrivial automorphism fixing the given interior set, or None.

    For the binary tree: swap the child subtrees of the shallowest vertex
    (least index among equals) whose subtree avoids the set, i.e. the
    least interior index that is no member's ancestor-or-self.  For the
    comb: swap the first pendant leaf pair disjoint from the set.  Both
    swaps are involutions.  None means the truncation depth has no swap
    site left ("exhausted").
    """
    n = family.n
    fset = point_set(n, fixed)
    if max(fset, default=-1) in family.boundary:  # an index suffix
        raise ValueError("fixed set touches the truncation boundary")
    if family.kind == "binary-tree":
        marked: set[int] = set()  # ancestors-or-self of the members
        for v in fset:
            while v >= 0 and v not in marked:  # the root's parent is -1
                marked.add(v)
                v = (v - 1) // 2
        u = next((u for u in range(2 ** family.depth - 1)  # interior
                  if u not in marked), None)
        return None if u is None else _tree_swap(u, n)
    for i in range(family.depth):  # the comb
        leaves = (3 * i + 2, 3 * i + 3)
        if fset.isdisjoint(leaves):
            images = list(range(n))
            images[leaves[0]], images[leaves[1]] = leaves[1], leaves[0]
            return Permutation(images)
    return None


# ---------------------------------------------------------------------------
# The inductive construction and the alpha evaluation machinery
# ---------------------------------------------------------------------------

def run_construction(family: TruncatedFamily, rounds: int) -> ConstructionState:
    """Run the inductive construction for the requested number of rounds.

    Closures are chosen minimal (exactly the mandated union), computed as
    two iterated unions of O(k) image steps, not one evaluation per sign
    word.  If the truncation cannot host another round (no swap site, or
    the closure touches the boundary) a partial state is returned; callers
    detect this via ``state.exhausted``.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    fsets: list[frozenset[int]] = [frozenset({0})]
    phis: list[Permutation] = []
    xs: list[int] = []
    for k in range(rounds):
        current = fsets[-1]
        if max(current) in family.boundary:
            break
        phi = fixing_oracle(family, current)
        if phi is None:
            break
        x_k = next((v for v, w in enumerate(phi.images) if v != w), None)
        if x_k is None:
            raise ValueError(f"round {k}'s automorphism fixes every point")
        phis.append(phi)
        xs.append(x_k)
        images, preimages = set(current), set(current)
        for i in range(k, -1, -1):
            images |= {phis[i](v) for v in images}
        for i in range(k + 1):
            preimages |= {phis[i](v) for v in preimages}  # phi_i^{-1}
        fsets.append(frozenset(images | preimages | {x_k, k + 1}))
    return ConstructionState(family, tuple(fsets), tuple(phis), tuple(xs),
                             rounds)


def _forward(phis: Sequence[Permutation], bits: Sequence[int],
             upto: int, v: int) -> int:
    for i in range(upto, -1, -1):
        if bits[i]:
            v = phis[i](v)
    return v


def alpha(state: ConstructionState, word: EpsilonWord | Sequence[int],
          v: int) -> int:
    """The stable image of vertex v under the sign word's automorphism.

    Requires enough rounds for the word, and v in the closure F_{len(word)}
    (which holds 0..len(word)), whose members are fixed by every later
    round's automorphism, so the value can no longer change.  Every word
    argument is read as an ``EpsilonWord``: bits 0 or 1, length >= 1, or
    ValueError.
    """
    bits = EpsilonWord(word)
    k = len(bits) - 1
    if k >= state.rounds_completed:
        raise ValueError(
            f"word of length {k + 1} needs {k + 1} rounds, "
            f"construction completed {state.rounds_completed}")
    if v not in state.fsets[k + 1]:
        raise ValueError(
            f"image of vertex {v} is not yet stable for a word of length {len(bits)}")
    return _forward(state.phis, bits, k, v)


def alpha_perm(state: ConstructionState,
               word: EpsilonWord | Sequence[int]) -> Permutation:
    """Materialize alpha_k^eps as a full permutation of the truncated graph
    (the word read as in ``alpha``)."""
    bits = EpsilonWord(word)
    k = len(bits) - 1
    if k >= state.rounds_completed:
        raise ValueError("not enough rounds for the word")
    factors = [state.phis[i] for i in range(k + 1) if bits[i]]
    return reduce(Permutation.__mul__, factors,
                  Permutation.identity(state.family.n))


def alpha_inverse_perm(state: ConstructionState,
                       word: EpsilonWord | Sequence[int]) -> Permutation:
    """Materialize alpha_k^{-eps}, the inverse of ``alpha_perm``'s product."""
    return alpha_perm(state, word).inverse()


class PairWitness(namedtuple("PairWitness", "word_a word_b first_diff "
                             "vertex image_a image_b")):
    """A vertex separating the maps of two sign words (an immutable tuple)."""

    __slots__ = ()


class PairCertificate:
    """The pair witnesses of ``verify_distinctness``, kept implicit: each
    level's mover (None if phi_k fixes F_{k+1}) and its images under words
    0..2^h-1 when rounds h.. fix it, a period column.  Iteration yields
    every witness, word pairs in index order; there is no indexing."""

    def __init__(self, movers, periods):
        self.movers, self.periods = movers, periods

    def __len__(self) -> int:
        K = len(self.movers)  # level k: 2^k prefixes x 2^(K-k-1) squared
        return sum(1 << (2 * K - k - 2) for k, v in enumerate(self.movers)
                   if v is not None)

    def __iter__(self) -> Iterator[PairWitness]:
        K, movers, periods = len(self.movers), self.movers, self.periods
        words = [EpsilonWord.from_int(i, K).bits for i in range(1 << K)]
        for ia, wa in enumerate(words):
            for ib in range(ia + 1, len(words)):
                diff = ia ^ ib  # word bit i is bit i of the index
                k = (diff & -diff).bit_length() - 1
                if movers[k] is not None:
                    p = periods[k]
                    yield PairWitness(wa, words[ib], k, movers[k],
                                      p[ia % len(p)], p[ib % len(p)])

    def witnessed(self) -> int:
        """Pairs with distinct images: level k pairs the words with bit k =
        0 and 1 and equal lower bits, which the rotations of its period by
        2^k + j * 2^(k+1) line up, each pair twice (one rotation when
        h = k + 1, as built).  A period entry stands for 2^(K-h) words."""
        K, total = len(self.movers), len(self)
        for k, (v, period) in enumerate(zip(self.movers, self.periods)):
            if v is not None:
                h, half = len(period).bit_length() - 1, 1 << k
                twice = sum(sum(map(eq, period, chain(islice(period, r, None),
                                                      islice(period, r))))
                            for r in range(half, len(period), 2 * half))
                total -= (twice // 2) << 2 * (K - h)
        return total


def verify_distinctness(state: ConstructionState,
                        rounds: int | None = None) -> PairCertificate:
    """Witness a separating vertex for every pair of length-K sign words.

    For words first differing at bit k the witness lives in F_{k+1} and is
    moved by phi_k; its images under the two words must differ.  The
    rounds after k fix F_{k+1}, so a level's images repeat with period
    2^(k+1) words, built by one interleave per round.  These periods,
    2^(K+1) - 2 entries, are the whole ``PairCertificate``: no word list is
    built, and its ``witnessed()`` count, which the caller should check
    covers all C(2^K, 2) pairs, reads only the periods.
    """
    K = state.rounds_completed if rounds is None else rounds
    if K < 1 or K > state.rounds_completed:
        raise ValueError("rounds out of range for this state")
    # Least vertex of F_{k+1} moved by phi_k, per k (x_k guarantees existence).
    movers = [min((v for v in state.fsets[k + 1] if state.phis[k](v) != v),
                  default=None) for k in range(K)]
    periods = []
    for v in movers:  # rounds h.. fix v, so its images repeat with period 2^h
        h = 0 if v is None else 1 + max(j for j in range(K) if state.phis[j](v) != v)
        period = [v]  # for j = h..0: v's images under bits j..h-1 of the words
        for phi in reversed(state.phis[:h]):
            period = list(chain.from_iterable(
                zip(period, map(phi.images.__getitem__, period))))
        periods.append(period)
    return PairCertificate(movers, periods)


def verify_finitary(state: ConstructionState, vertices: Sequence[int],
                    word: EpsilonWord | Sequence[int]) -> bool:
    """Check the tuple's images are already stable across later rounds.

    With N the largest enumeration index in the tuple, the images under
    alpha_m^eps must agree for every m in (N, R); R is limited by both the
    completed rounds and the word length.  Vertices not ints in 0..n-1, or a
    word that is not an ``EpsilonWord``'s bits, raise ValueError.
    """
    point_set(state.family.n, vertices)
    bits = EpsilonWord(word)
    R = min(state.rounds_completed, len(bits))
    N = max(vertices, default=-1)
    if N + 1 >= R:
        raise ValueError(
            f"need more than {N + 1} rounds/word bits to certify stability")
    reference = [_forward(state.phis, bits, N + 1, v) for v in vertices]
    for m in range(N + 2, R):
        images = [_forward(state.phis, bits, m, v) for v in vertices]
        if images != reference:
            return False
    return True

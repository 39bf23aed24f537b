"""Acceptance suite: one test per criterion, each printing a PASS line.

Shared corpus computations (brute-force element lists, IR groups) are
module-scoped fixtures so the oracle sweeps run once.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from halinkit.autgroup import automorphism_group
from halinkit.cli import main as cli_main
from halinkit.graphs import binary_tree, petersen
from halinkit.groups import PermGroup
from halinkit.invariants import (bounds, determining_number,
                                 distinguishing_cost,
                                 greedy_distinguishing_chain, is_base, motion)
from halinkit.limitsim import (EpsilonWord, alpha, alpha_inverse_perm,
                               alpha_perm, depth_budget, run_construction,
                               verify_distinctness, verify_finitary)
from halinkit.perms import Permutation
from halinkit.topology import Exhaustion, check_cauchy, dist

from corpus import small_corpus
from oracles import (brute_automorphisms, brute_determining_number,
                     brute_distinguishing_cost, brute_motion,
                     longest_subgroup_chain)


def _announce(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def corpus():
    return small_corpus()


@pytest.fixture(scope="module")
def brute_elements(corpus):
    return {name: brute_automorphisms(g) for name, g in corpus}


@pytest.fixture(scope="module")
def groups(corpus):
    return {name: automorphism_group(g) for name, g in corpus}


@pytest.fixture(scope="module")
def tree12_k3_state():
    return run_construction(binary_tree(12), 3)


def test_criterion_1_automorphism_oracle(corpus, brute_elements, groups):
    started = time.monotonic()
    checked = 0
    for name, g in corpus:
        elems = set(brute_elements[name])
        group = groups[name]
        assert group.order() == len(elems), name
        assert {p.images for p in group.elements()} == elems, name
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300
    _announce(1, f"automorphism groups equal Sym(n) brute-force filter on "
                 f"{checked} corpus graphs ({elapsed:.1f}s < 5 min)")


def test_criterion_2_invariant_oracle(corpus, brute_elements, groups):
    started = time.monotonic()
    checked = 0
    for name, g in corpus:
        elems = brute_elements[name]
        group = groups[name]
        assert determining_number(group) == \
            brute_determining_number(elems, g.n), name
        assert distinguishing_cost(group) == \
            brute_distinguishing_cost(elems, g.n), name
        if len(elems) > 1:
            assert motion(group)[0] == brute_motion(elems), name
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 600
    _announce(2, f"determining number, distinguishing cost, and motion match "
                 f"exhaustive enumeration on {checked} graphs "
                 f"({elapsed:.1f}s < 10 min)")


def test_criterion_3_greedy_bound(corpus, groups):
    started = time.monotonic()
    completed = 0
    stalled = 0
    violations = []
    for name, g in corpus:
        group = groups[name]
        size, base = determining_number(group)
        chain = greedy_distinguishing_chain(group, base)
        if chain.stalled:
            stalled += 1
            continue
        assert chain.completed, name
        completed += 1
        assert all(a > b for a, b in zip(chain.orders, chain.orders[1:])), name
        if size == 0:
            continue  # empty base: nothing to bound
        b = bounds(size)
        if len(chain.final_set) > b.cost_bound or chain.length > b.chain_bound:
            violations.append(name)
    assert violations == []
    elapsed = time.monotonic() - started
    _announce(3, f"greedy chains from minimum bases: {completed} completed "
                 f"within both bounds, {stalled} stalled, 0 violations "
                 f"({elapsed:.1f}s)")


def test_criterion_4_subgroup_chain_cross_check():
    started = time.monotonic()
    for n in (2, 3, 4, 5):
        assert longest_subgroup_chain(n) == bounds(n).chain_bound, n
    elapsed = time.monotonic() - started
    assert elapsed < 300
    _announce(4, f"longest subgroup chain equals the chain bound for "
                 f"n in {{2,3,4,5}} by lattice enumeration ({elapsed:.1f}s < 5 min)")


def test_criterion_5_limit_construction(tree12_k3_state):
    started = time.monotonic()
    state = tree12_k3_state
    assert state.rounds_completed == 3

    witnesses = verify_distinctness(state, 3)
    assert len(witnesses) == 28
    assert all(w.image_a != w.image_b for w in witnesses)

    # inverse consistency, exactly, for all 8 maps
    n = state.family.graph.n
    for m in range(8):
        word = EpsilonWord.from_int(m, 3)
        assert (alpha_perm(state, word) * alpha_inverse_perm(state, word)
                ) == Permutation.identity(n)

    # 100 random tuples/words certified finitary: half on the K=3 state
    # (admissible indices {0,1}), half on a deeper state for slack
    rng = random.Random(987)
    deep = run_construction(binary_tree(12), 6)
    for _ in range(50):
        tup = [rng.randrange(2) for _ in range(rng.randrange(1, 5))]
        word = EpsilonWord.from_int(rng.randrange(8), 3)
        assert verify_finitary(state, tup, word)
    for _ in range(50):
        tup = [rng.randrange(4) for _ in range(rng.randrange(1, 6))]
        word = EpsilonWord.from_int(rng.randrange(64), 6)
        assert verify_finitary(deep, tup, word)

    # K = 10 at the depth-budget formula: 2^10 pairwise distinct image tables
    k10 = run_construction(binary_tree(depth_budget("binary-tree", 10)), 10)
    assert k10.rounds_completed == 10
    domain = sorted(k10.fsets[-1])
    tables = {tuple(alpha(k10, EpsilonWord.from_int(m, 10), v) for v in domain)
              for m in range(2 ** 10)}
    assert len(tables) == 2 ** 10

    elapsed = time.monotonic() - started
    assert elapsed < 120
    _announce(5, f"construction at depth 12: 28/28 pairs witnessed, 100 "
                 f"finitary checks, exact inverses, 1024/1024 distinct maps "
                 f"at K=10 ({elapsed:.1f}s < 2 min)")


def _five_exhaustions(n):
    shapes = [Exhaustion.prefixes(n)]
    if n >= 2:
        shapes.append(Exhaustion(n, [set(range(min(2 * (i + 1), n)))
                                     for i in range((n + 1) // 2)]))
        shapes.append(Exhaustion(n, [set(range(n - 1 - i, n))
                                     for i in range(n)]))
        shapes.append(Exhaustion(n, [set(range(n))]))
        evens = set(range(0, n, 2))
        if evens != set(range(n)):
            shapes.append(Exhaustion(n, [evens, set(range(n))]))
    return shapes


def test_criterion_6_metric_suite(corpus, groups, tree12_k3_state):
    started = time.monotonic()
    rng = random.Random(5150)
    pool = [(name, g, groups[name]) for name, g in corpus
            if 1 < groups[name].order() <= 5000 and g.n >= 2]

    # 10^4 random strong-triangle triples across graphs and 5 exhaustions
    triples_checked = 0
    while triples_checked < 10_000:
        name, g, group = pool[rng.randrange(len(pool))]
        elems = group.elements()
        for e in _five_exhaustions(g.n):
            a, b, c = (elems[rng.randrange(len(elems))] for _ in range(3))
            assert dist(e, a, c) <= max(dist(e, a, b), dist(e, b, c)), name
            triples_checked += 1

    # ball-equals-pointwise-stabilizer, exact for every k
    ball_graphs = 0
    for name, g, group in pool[:20]:
        elems = group.elements()
        ident = Permutation.identity(g.n)
        for e in _five_exhaustions(g.n):
            for k in range(len(e.sets)):
                ball = {p for p in elems
                        if dist(e, ident, p) < Fraction(1, 2 ** k)}
                stab = set(group.point_stabilizer(e.sets[k]).elements())
                assert ball == stab, name
        ball_graphs += 1

    # left-translation isometry on 10^3 sampled (gamma, alpha, beta)
    for _ in range(1000):
        name, g, group = pool[rng.randrange(len(pool))]
        elems = group.elements()
        e = Exhaustion.prefixes(g.n)
        gamma, a, b = (elems[rng.randrange(len(elems))] for _ in range(3))
        assert dist(e, gamma * a, gamma * b) == dist(e, a, b), name

    # Cauchy table from the criterion-5 construction
    state = tree12_k3_state
    e = state.exhaustion()
    word = EpsilonWord((1, 1, 1))
    seq = [alpha_perm(state, word.bits[:k + 1]) for k in range(3)]
    table = check_cauchy(e, seq)
    for k, entry in enumerate(table):
        assert entry <= Fraction(1, 2 ** (k + 1))

    elapsed = time.monotonic() - started
    _announce(6, f"{triples_checked} ultrametric triples with zero "
                 f"violations, ball identity exact on {ball_graphs} groups x "
                 f"5 exhaustions, 1000 translation isometries, Cauchy tail "
                 f"bounded ({elapsed:.1f}s)")


def test_criterion_7_finite_halin_sanity(corpus, groups):
    started = time.monotonic()
    for name, g in corpus + [("petersen", petersen())]:
        group = groups.get(name) or automorphism_group(g)
        order = group.order()
        assert isinstance(order, int) and order >= 1  # finite by construction
        size, base = determining_number(group)
        assert is_base(group, base), name  # finite base exists

        # |Aut| = (#images of the base set) * |setwise stabilizer of base|
        # (the pointwise stabilizer of a base is trivial, so the second
        # index factor collapses to the full setwise stabilizer order)
        base_set = frozenset(base)
        seen = {base_set}
        queue = [base_set]
        while queue:
            current = queue.pop()
            for gen in group.generators:
                image = frozenset(gen(v) for v in current)
                if image not in seen:
                    seen.add(image)
                    queue.append(image)
        setwise = group.set_stabilizer(base_set)
        assert group.point_stabilizer(base_set).order() == 1, name
        assert order == len(seen) * setwise.order(), name
    elapsed = time.monotonic() - started
    _announce(7, f"finite base tautology and index factorization exact on "
                 f"the corpus plus petersen ({elapsed:.1f}s)")


DETERMINISM_COMMANDS = [
    ["aut", "--family", "petersen"],
    ["base", "--family", "cycle", "--n", "6"],
    ["cost", "--family", "cycle", "--n", "6"],
    ["motion", "--family", "complete", "--n", "5"],
    ["greedy", "--family", "cycle", "--n", "8", "--base", "0,1"],
    ["limit-sim", "--family", "binary-tree", "--depth", "12", "--k", "3"],
    ["topology", "--family", "cycle", "--n", "8",
     "--exhaustion", "0,1|0,1,2,3|0,1,2,3,4,5,6,7",
     "--triples", "200", "--seed", "9"],
]


def test_criterion_8_cli_determinism(capsys):
    started = time.monotonic()
    for argv in DETERMINISM_COMMANDS:
        outputs = set()
        for _ in range(10):
            assert cli_main(argv) == 0
            report = json.loads(capsys.readouterr().out)
            report.pop("wall_time_ms")
            outputs.add(json.dumps(report, sort_keys=True))
        assert len(outputs) == 1, argv
    elapsed = time.monotonic() - started
    _announce(8, f"{len(DETERMINISM_COMMANDS)} commands x 10 repetitions "
                 f"byte-identical with timing excluded ({elapsed:.1f}s)")

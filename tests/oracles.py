"""Brute-force oracles, deliberately independent of the library's machinery.

The brute-force ones work on raw image tuples and explicit enumeration of
Sym(n); nothing routes through the BSGS, the IR search, or the backtracking
stabilizers it is meant to check.  The ``*_by_*`` functions are the plain
forms of faster library code, kept as references for differential tests.
"""

from collections import Counter
from itertools import combinations, permutations


def brute_automorphisms(g):
    """All of Sym(n) filtered for adjacency preservation, as image tuples."""
    n = g.n
    adj = [[False] * n for _ in range(n)]
    for i, j in g.edges:
        adj[i][j] = adj[j][i] = True
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for p in permutations(range(n)):
        ok = True
        for i, j in pairs:
            if adj[i][j] != adj[p[i]][p[j]]:
                ok = False
                break
        if ok:
            out.append(p)
    return out


def networkx_automorphisms(g):
    """Every automorphism as an image tuple, listed by networkx's VF2
    matcher; for graphs past the reach of the Sym(n) filter above."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    return [tuple(m[i] for i in range(g.n))
            for m in GraphMatcher(nxg, nxg).isomorphisms_iter()]


def brute_point_stabilizer(elems, points):
    pts = list(points)
    return [p for p in elems if all(p[x] == x for x in pts)]


def brute_set_stabilizer(elems, points):
    pts = frozenset(points)
    return [p for p in elems if frozenset(p[x] for x in pts) == pts]


def brute_determining_number(elems, n):
    """Smallest set fixed pointwise only by the identity, with witness."""
    if len(elems) == 1:
        return 0, ()
    nontrivial = [p for p in elems if any(p[i] != i for i in range(n))]
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            if not any(all(p[x] == x for x in subset) for p in nontrivial):
                return k, subset
    raise AssertionError("full vertex set must be a base")


def brute_distinguishing_cost(elems, n):
    """Smallest setwise-rigid set with witness, or None."""
    if len(elems) == 1:
        return 0, ()
    nontrivial = [p for p in elems if any(p[i] != i for i in range(n))]
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            sset = frozenset(subset)
            if not any(frozenset(p[x] for x in sset) == sset
                       for p in nontrivial):
                return k, subset
    return None


def brute_motion(elems):
    """Minimum number of moved points over nontrivial elements."""
    best = None
    for p in elems:
        moved = sum(1 for i, x in enumerate(p) if i != x)
        if moved and (best is None or moved < best):
            best = moved
    if best is None:
        raise ValueError("trivial group")
    return best


def longest_subgroup_chain(n):
    """Exact longest strict subgroup chain length in Sym(n), for n <= 5.

    Enumerates the full subgroup lattice: every subgroup found is kept with
    the generators that produced it, and each element outside it gives a
    larger subgroup, closed over the generators plus that element.  The
    longest path then comes from dynamic programming over inclusion.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 5:
        raise ValueError("subgroup lattice enumeration is limited to n <= 5")
    elems = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    mul = [[index[tuple(p[x] for x in q)] for q in elems] for p in elems]
    ident = index[tuple(range(n))]

    def closure(gens):
        members = {ident}
        queue = [ident]
        while queue:
            a = queue.pop()
            for g in gens:
                c = mul[a][g]
                if c not in members:
                    members.add(c)
                    queue.append(c)
        return frozenset(members)

    trivial = frozenset({ident})
    subgroups = {trivial: ()}
    queue = [trivial]
    while queue:
        h = queue.pop()
        for g in range(len(elems)):
            if g not in h:
                gens = subgroups[h] + (g,)
                k = closure(gens)
                if k not in subgroups:
                    subgroups[k] = gens
                    queue.append(k)

    ordered = sorted(subgroups, key=len)
    longest = {}
    for h in ordered:
        longest[h] = max((longest[k] + 1 for k in ordered
                          if len(k) < len(h) and k < h), default=0)
    return longest[frozenset(range(len(elems)))]


def is_connected_by_bfs(g):
    """The breadth-first connectivity check ``graphs.is_connected`` replaced:
    one set union of neighbour sets per level (vacuously true for n <= 1)."""
    if g.n <= 1:
        return True
    seen, frontier = {0}, {0}
    while frontier:
        frontier = set().union(*map(g.neighbors, frontier)) - seen
        seen |= frontier
    return len(seen) == g.n


def coarsest_equitable(g, cells):
    """The coarsest equitable refinement of the cells, as a set of
    frozensets: split every cell by the vertices' neighbour counts against
    every cell until nothing splits."""
    cells = [frozenset(c) for c in cells if c]
    while True:
        split = []
        for cell in cells:
            groups = {}
            for v in cell:
                sig = tuple(len(g.neighbors(v) & other) for other in cells)
                groups.setdefault(sig, set()).add(v)
            split += [frozenset(s) for s in groups.values()]
        if len(split) == len(cells):
            return set(cells)
        cells = split


def sample_by_listing(group, count, seed):
    """The topology sampler by listing: element r of ``group.elements()``
    for each draw r = ``Random(seed).randrange(order)``."""
    import random

    listing = group.elements()
    rng = random.Random(seed)
    return [listing[rng.randrange(len(listing))] for _ in range(count)]


def sample_by_products(group, count, seed):
    """The topology sampler as full Permutation products, for groups too
    large to list: element r of the listing is u_0 * ... * u_{l-1}, u_j the
    transversal element at r's j-th mixed-radix digit (level 0 most
    significant) in chain level j's sorted orbit."""
    import random
    from functools import reduce
    from operator import mul

    from halinkit.perms import Permutation

    chain = group.chain()
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r, factors = rng.randrange(chain.order()), []
        for t in reversed(chain.transversals):
            r, digit = divmod(r, len(t))
            factors.append(t[sorted(t)[digit]])
        out.append(reduce(mul, reversed(factors),
                          Permutation.identity(group.degree)))
    return out


def elements_by_products(group):
    """Every element as full Permutation products, built level by level
    from the last: element r is u_0 * ... * u_{l-1} at r's mixed-radix
    digits (level 0 most significant) in each level's sorted orbit."""
    from halinkit.perms import Permutation

    elems = [Permutation.identity(group.degree)]
    for t in reversed(group.chain().transversals):
        elems = [t[a] * e for a in sorted(t) for e in elems]
    return elems


def prefixed_schreier_sims(group, points):
    """A chain of the group whose base starts with the sorted points, the
    reference for ``_Chain.rebased``: deterministic Schreier-Sims seeded
    with the group's strong generators, the points installed first as base
    points (even when redundant), new base points the least point moved by
    the offending generator, and the sweep stopped once the chain reaches
    the group's order."""
    from halinkit.groups import _Chain

    degree, order = group.degree, group.order()
    sgs = []
    for g in group.chain().strong_gens:
        if not g.is_identity() and g not in sgs:
            sgs.append(g)
    base = sorted(set(points))
    for g in sgs:
        if all(g(b) == b for b in base):
            base.append(min(g.support()))
    chain = _Chain.read(degree, base, sgs)
    i = len(base) - 1
    while i >= 0 and chain.order() != order:
        stuck = None
        t_i = chain.transversals[i]
        for a in list(chain.transversals[i]):
            for g in chain.gens[i]:
                schreier = t_i[g(a)].inverse() * (g * t_i[a])
                if not schreier.is_identity():
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


def set_stabilizer_by_first_leaf(group, points):
    """The generator list of ``group.set_stabilizer(points)`` by a
    recursive backtrack: the pointwise stabilizer's generators, then per
    level j and image a off the identity path the first coset product
    from level j on that keeps every decided image in the set."""
    target = frozenset(points)
    m = len(target)
    chain = group.chain().rebased(sorted(target))
    gens = list(chain.gens[m])

    def first_leaf(level, w):
        if level == m:
            return w
        t = chain.transversals[level]
        for a in sorted(t):
            if w(a) in target:
                leaf = first_leaf(level + 1, w * t[a])
                if leaf is not None:
                    return leaf
        return None

    for j in range(m):
        for a in sorted(chain.transversals[j]):
            if a != chain.base[j] and a in target:
                leaf = first_leaf(j + 1, chain.transversals[j][a])
                if leaf is not None:
                    gens.append(leaf)
    return gens


def motion_by_recursion(group):
    """Minimum motion with witness by a recursive branch-and-bound that
    forms every child's product before pruning it: the first element of
    ``group.elements()`` order with the least motion."""
    from halinkit.perms import Permutation

    chain = group.chain()
    base = chain.base
    best = [group.degree + 1, None]

    def rec(level, w, moved):
        if moved >= best[0]:
            return
        if level == len(base):
            m = sum(1 for i, x in enumerate(w.images) if i != x)
            if 0 < m < best[0]:
                best[:] = [m, w]
            return
        t = chain.transversals[level]
        for a in sorted(t):
            w2 = w * t[a]
            rec(level + 1, w2, moved + (w2(base[level]) != base[level]))

    rec(0, Permutation.identity(group.degree), 0)
    return best[0], best[1]


def disjoint_translate_by_recursion(group, y, z):
    """The first element in ``group.elements()`` order that maps Z off Y,
    by a recursive backtrack that stops once every image of Z is decided;
    None if no element does."""
    from halinkit.perms import Permutation

    yset, zset = frozenset(y), frozenset(z)
    if not yset or not zset:
        return Permutation.identity(group.degree)
    chain = group.chain()
    base = chain.base

    def rec(level, w):
        decided = set(base[:level])
        if zset <= decided:
            return w
        if level == len(base):
            return w if yset.isdisjoint(w(v) for v in zset) else None
        t = chain.transversals[level]
        for a in sorted(t):
            w2 = w * t[a]
            if any(w2(b) in yset for b in zset & (decided | {base[level]})):
                continue
            found = rec(level + 1, w2)
            if found is not None:
                return found
        return None

    return rec(0, Permutation.identity(group.degree))


def reducing_vertex_by_set_stabilizers(group, y):
    """``reducing_vertex`` with a set stabilizer for every candidate: the
    least v moved by stab(Y), those outside X first (X the union of the
    images a(Y) that meet Y), such that every generator of stab(Y + {v})
    preserves Y; None if none does."""
    yset = frozenset(y)
    if len(yset) < 2:
        raise ValueError("reducing vertex needs |Y| >= 2")
    stab_y = group.set_stabilizer(yset)
    if stab_y.is_trivial():
        raise ValueError("setwise stabilizer of Y is already trivial")
    moved_by_stab = {v for gen in stab_y.generators for v in gen.support()}
    pairs = {(u, v) for u in yset for v in yset}
    queue = list(pairs)
    while queue:
        u, v = queue.pop()
        for gen in group.generators:
            image = (gen(u), gen(v))
            if image not in pairs:
                pairs.add(image)
                queue.append(image)
    x = {v for u, v in pairs if u in yset}
    for v in sorted(moved_by_stab - yset, key=lambda v: (v in x, v)):
        stab_v = group.set_stabilizer(yset | {v})
        if all(frozenset(gen(u) for u in yset) == yset
               for gen in stab_v.generators):
            return v
    return None


def build_parser_by_blocks():
    """The CLI parser as seven hand-written ``add_parser`` blocks, each
    with the graph flags, its own flags and its handler."""
    import argparse

    from halinkit import cli
    from halinkit.graphs import FAMILY_NAMES

    def add_graph_args(p):
        p.add_argument("--family", choices=FAMILY_NAMES)
        p.add_argument("--n", type=int)
        p.add_argument("--depth", type=int)
        p.add_argument("--input",
                       help="graph6 or JSON edge-list file, '-' for stdin")
        p.add_argument("--pretty", action="store_true")

    parser = argparse.ArgumentParser(
        prog="halinkit",
        description="Graph symmetry toolkit: automorphism groups, bases, "
                    "distinguishing sets, greedy stabilizer chains, "
                    "truncated limit constructions, permutation ultrametrics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("aut", help="automorphism group generators and order")
    add_graph_args(p)
    p.set_defaults(func=cli._cmd_aut)

    p = sub.add_parser("base", help="determining number and least witness base")
    add_graph_args(p)
    p.set_defaults(func=cli._cmd_base)

    p = sub.add_parser("cost", help="distinguishing cost and witness")
    add_graph_args(p)
    p.set_defaults(func=cli._cmd_cost)

    p = sub.add_parser("motion", help="minimum motion over nontrivial automorphisms")
    add_graph_args(p)
    p.set_defaults(func=cli._cmd_motion)

    p = sub.add_parser("greedy", help="greedy distinguishing chain from a base")
    add_graph_args(p)
    p.add_argument("--base", required=True, help="comma-separated base vertices")
    p.set_defaults(func=cli._cmd_greedy)

    p = sub.add_parser("limit-sim", help="run the truncated limit construction")
    add_graph_args(p)
    p.add_argument("--k", type=int, required=True, help="rounds to run")
    p.set_defaults(func=cli._cmd_limit_sim)

    p = sub.add_parser("topology", help="permutation ultrametric queries")
    add_graph_args(p)
    p.add_argument("--exhaustion", help="nested sets, e.g. \"0,1|0,1,2\"")
    p.add_argument("--pair", nargs=2, action="append", metavar=("A", "B"),
                   help="two JSON image arrays to compare (repeatable)")
    p.add_argument("--triples", type=int, default=0,
                   help="random ultrametric triples to check")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cli._cmd_topology)

    return parser


def tree_swap_by_pairs(u, n):
    """The binary-tree subtree swap under u as a loop over vertex pairs:
    the children of u trade places, then each pair's left children and
    right children, while both lie below n."""
    from halinkit.perms import Permutation

    images = list(range(n))
    pairs = [(2 * u + 1, 2 * u + 2)]
    while pairs:
        a, b = pairs.pop()
        if a >= n or b >= n:
            continue
        images[a] = b
        images[b] = a
        pairs.append((2 * a + 1, 2 * b + 1))
        pairs.append((2 * a + 2, 2 * b + 2))
    return Permutation(images)


def tree_swap_site_by_scan(fixed, depth):
    """The binary-tree oracle's swap site by a scan: the first interior
    vertex u (index order) such that no member of fixed lies in u's
    subtree, found by walking each member up to u's depth; None if every
    interior vertex is blocked."""
    def level(v):
        return (v + 1).bit_length() - 1

    for u in range(2 ** depth - 1):
        for f in fixed:
            while level(f) > level(u):
                f = (f - 1) // 2
            if f == u:
                break
        else:
            return u
    return None


def confluent_by_points(e, a, b):
    """The confluent point by point: the least i with a(x) != b(x) for some
    x in X_i, or None when a and b agree on every set."""
    for i, xs in enumerate(e.sets):
        if any(a(x) != b(x) for x in xs):
            return i
    return None


def ultrametric_violations_by_fractions(e, triples, dist):
    """The strong triangle check on exact Fraction distances, three per
    triple: d(a,c) > max(d(a,b), d(b,c)) is a violation."""
    violations = []
    for a, b, c in triples:
        dac, dab, dbc = dist(e, a, c), dist(e, a, b), dist(e, b, c)
        if dac > max(dab, dbc):
            violations.append({
                "triple": [list(a.images), list(b.images), list(c.images)],
                "d_ac": str(dac), "d_ab": str(dab), "d_bc": str(dbc),
            })
    return violations


def _mover_table(state, K):
    """Per level k the least vertex of F_{k+1} moved by phi_k (or None),
    the 2^K words ordered by the integer whose bit i is the word's bit i,
    and every word's image of every mover under all K rounds."""
    def forward(bits, v):
        for i in range(K - 1, -1, -1):
            if bits[i]:
                v = state.phis[i](v)
        return v

    movers = [min((v for v in state.fsets[k + 1] if state.phis[k](v) != v),
                  default=None) for k in range(K)]
    words = [tuple((m >> i) & 1 for i in range(K)) for m in range(2 ** K)]
    images = [[None if v is None else forward(bits, v) for v in movers]
              for bits in words]
    return movers, words, images


def pair_witnesses_by_pairs(state, K):
    """Every pair of length-K sign words, listed one PairWitness at a time.

    For words first differing at bit k the witness is the least vertex of
    F_{k+1} moved by phi_k, with its images under both words; pairs whose
    level has no such vertex get no witness.  Words are ordered by the
    integer whose bit i is the word's bit i, pairs as (ia, ib), ia < ib.
    """
    from halinkit.limitsim import PairWitness

    movers, words, images = _mover_table(state, K)
    out = []
    for ia, wa in enumerate(words):
        for ib in range(ia + 1, len(words)):
            diff = ia ^ ib  # word bit i is bit i of the index
            k = (diff & -diff).bit_length() - 1
            v = movers[k]
            if v is None:
                continue
            out.append(PairWitness(wa, words[ib], k, v, images[ia][k],
                                   images[ib][k]))
    return out


def witnessed_by_counters(state, K):
    """The distinct-image pair count that ``PairCertificate.witnessed()``
    replaced, off the all-rounds image table: per level k and low bits p,
    an image shared by A words with bit k = 0 and B words with bit k = 1
    takes A * B pairs off the level's C(2^K, 2) share."""
    movers, words, images = _mover_table(state, K)
    total = 0
    for k, v in enumerate(movers):
        if v is None:
            continue
        total += 1 << (2 * K - k - 2)
        column, half = [row[k] for row in images], 1 << k
        for p in range(half):
            b = Counter(column[p + half::2 * half])
            total -= sum(n * b[x] for x, n in
                         Counter(column[p::2 * half]).items())
    return total


def refine_by_counts(g, partition):
    """Equitable refinement as a counts dict and a sorted member list per
    touched cell, for every splitter alike; each split's trace event is
    compared with ``partition.expected`` after its vertices have moved.
    Same results as ``halinkit.autgroup.refine``, including the Nones."""
    from collections import deque

    if partition.n != g.n:
        raise ValueError("partition does not match the graph")
    p = partition._copy()
    lab, pos, cell, end, trace = p.lab, p.pos, p.cell, p.end, p.trace
    expected, queue, p.pending = p.expected, deque(p.pending), []
    while queue and p.ncells < len(lab):
        s = queue.popleft()
        counts = {}
        for u in lab[s:end[s]]:
            for w in g.neighbors(u):
                counts[w] = counts.get(w, 0) + 1
        touched = {}
        for w in counts:
            touched.setdefault(cell[w], []).append(w)
        for c in sorted(touched):
            e = end[c]
            members = sorted(touched[c], key=counts.__getitem__)
            keys = [counts[w] for w in members]
            if len(members) == e - c and keys[0] == keys[-1]:
                continue
            # touched vertices go to the tail, the untouched form subcell 0
            tail = e - len(members)
            stay = [w for w in lab[tail:e] if w not in counts]
            for w, x in zip([w for w in members if pos[w] < tail], stay):
                lab[pos[w]], pos[x] = x, pos[w]
            lab[tail:e] = members
            for i, w in enumerate(members, tail):
                pos[w] = i
            starts = [c] * (tail > c) + [
                i for i in range(tail, e)
                if i == tail or keys[i - tail] != keys[i - tail - 1]]
            event = (s, c, tuple(keys))
            k = len(trace)
            if expected is not None and expected[k:k + 1] != [event]:
                return None
            trace.append(event)
            bounds = starts[1:] + [e]
            for a, b in zip(starts, bounds):
                end[a] = b
                for w in lab[a:b] if a != c else ():
                    cell[w] = a
            p.ncells += len(starts) - 1
            big = max(zip(starts, bounds), key=lambda ab: ab[1] - ab[0])[0]
            skip = c if c in queue else big
            queue.extend(a for a in starts if a != skip)
    return p if expected is None or len(trace) == len(expected) else None


def is_automorphism_by_edge_scan(g, images):
    """``Graph.is_automorphism`` by testing the image of every edge: true
    iff the image array is a bijection of ints (no bools or floats) that
    maps each edge to an edge."""
    if (set(map(type, images)) - {int}
            or sorted(images) != list(range(g.n))):
        return False
    return all((images[i], images[j]) in g.edges
               or (images[j], images[i]) in g.edges
               for i, j in g.edges)


def automorphism_group_by_full_descent(g):
    """The IR search without the early-leaf rule: every subtree off the
    first path is descended to a leaf, whose map from the first leaf is
    tested.  The library's search must list the same generators, in the
    same order, on the same base."""
    from halinkit.autgroup import _root, refine
    from halinkit.groups import PermGroup
    from halinkit.perms import Permutation

    n = g.n
    gens = []
    first_path = []
    first_traces = []
    targets = []
    first_leaf = None  # the first leaf's pos

    def search(part, path, on_first):
        # True iff off the first path and a leaf below gave an automorphism
        nonlocal first_leaf
        if part.is_discrete:
            if first_leaf is None:
                first_leaf = part.pos
                return False
            images = list(map(part.lab.__getitem__, first_leaf))
            if not is_automorphism_by_edge_scan(g, images):
                return False
            gens.append(Permutation(images))
            return True
        depth = len(path)
        if depth == len(targets):
            targets.append(max(sorted(set(part.cell)),
                               key=lambda s: part.end[s] - s))
        ti = targets[depth]
        fixing, reached, known, last = [], set(), 0, []
        for v in sorted(part.lab[ti:part.end[ti]]):
            if last:
                fresh = [p for p in gens[known:]
                         if all(p.images[x] == x for x in path)]
                known, fixing = len(gens), fixing + fresh
                queue = last + [p.images[w] for p in fresh for w in reached]
                for w in queue:
                    if w not in reached:
                        reached.add(w)
                        queue.extend(p.images[w] for p in fixing)
                if v in reached:
                    continue
            last = [v]
            extends = first_leaf is None
            child = refine(g, part._individualize(
                v, None if extends else first_traces[depth]), _owned=True)
            if child is None:
                continue
            if extends:
                first_path.append(v)
                first_traces.append(child.trace)
            if search(child, path + (v,), extends) and not on_first:
                return True
        return False

    search(_root(g), (), True)
    return PermGroup.from_strong_generators(n, gens, first_path)

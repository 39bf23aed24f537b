"""Brute-force oracles, deliberately independent of the library's machinery.

Everything here works on raw image tuples and explicit enumeration of
Sym(n); nothing routes through the BSGS, the IR search, or the backtracking
stabilizers it is meant to check.
"""

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

"""Answers computed without halinkit, and the checks of each CLI report.

Automorphism groups come from networkx (VF2++) or from closed-form orders
recorded by the request generator.  Bases, distinguishing sets, motion
and setwise stabilizer orders are brute force over the element list, with
the vertex sets as bitmasks.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations

import networkx as nx


class Oracle:
    """Caches the element list of every graph it is asked about."""

    def __init__(self):
        self._elements: dict = {}

    def elements(self, g) -> list[tuple[int, ...]]:
        """Every automorphism of g as an image tuple, identity included."""
        if g not in self._elements:
            n, edges = g
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(edges)
            self._elements[g] = [tuple(m[v] for v in range(n))
                                 for m in nx.vf2pp_all_isomorphisms(h, h)]
        return self._elements[g]

    def _fixed_masks(self, g) -> set[int]:
        """Fixed-point sets of the non-identity elements, as bitmasks."""
        n = g[0]
        full = (1 << n) - 1
        masks = {sum(1 << v for v in range(n) if e[v] == v)
                 for e in self.elements(g)}
        masks.discard(full)
        return masks

    def least_base(self, g) -> tuple[int, ...]:
        """Lexicographically least base of minimum size."""
        masks = self._fixed_masks(g)
        masks = [m for m in masks if not any(m != o and m & o == m for o in masks)]
        for k in range(g[0] + 1):
            for subset in combinations(range(g[0]), k):
                s = sum(1 << v for v in subset)
                if all(s & ~m for m in masks):
                    return subset
        raise AssertionError("the full vertex set is always a base")

    def least_distinguishing(self, g) -> tuple[int, ...] | None:
        """Lexicographically least distinguishing set of minimum size, or None."""
        n = g[0]
        partitions = set()
        for e in self.elements(g):
            cycles = []
            seen = 0
            for v in range(n):
                if e[v] == v or seen >> v & 1:
                    continue
                c = 0
                w = v
                while not c >> w & 1:
                    c |= 1 << w
                    w = e[w]
                seen |= c
                cycles.append(c)
            if cycles:
                partitions.add(tuple(cycles))
        for k in range(n + 1):
            for subset in combinations(range(n), k):
                s = sum(1 << v for v in subset)
                # g stabilizes S iff S is a union of the cycles of g
                if not any(all(s & c in (0, c) for c in cycles)
                           for cycles in partitions):
                    return subset
        return None

    def motion(self, g) -> int:
        return g[0] - max(bin(m).count("1") for m in self._fixed_masks(g))

    def setwise_order(self, g, points) -> int:
        target = frozenset(points)
        return sum(1 for e in self.elements(g)
                   if all(e[v] in target for v in target))

    def expect(self, request: dict) -> dict:
        """What the report of the request must say, before it runs."""
        op, g = request["op"], request["graph"]
        if op == "aut":
            order = request.get("order")
            return {"order": len(self.elements(g)) if order is None else order}
        if op == "base":
            return {"witness": list(self.least_base(g))}
        if op == "cost":
            found = self.least_distinguishing(g)
            return {"witness": None if found is None else list(found)}
        if op == "motion":
            return {"motion": self.motion(g)}
        return {}


# ---------------------------------------------------------------------------
# Checks of one report
# ---------------------------------------------------------------------------

class Rejected(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Rejected(message)


def is_automorphism(g, images) -> bool:
    n, edges = g
    if sorted(images) != list(range(n)):
        return False
    return all((min(images[i], images[j]), max(images[i], images[j])) in edges
               for i, j in edges)


def _digest(g) -> str:
    n, edges = g
    payload = f"{n};" + ",".join(f"{i}-{j}" for i, j in sorted(edges))
    return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()


def _check_aut(oracle, request, expected, results):
    _require(results["order"] == expected["order"],
             f"order {results['order']} != {expected['order']}")
    for images in results["generators"]:
        _require(is_automorphism(request["graph"], images),
                 "a generator is not an automorphism")


def _check_base(oracle, request, expected, results):
    _require(results["witness"] == expected["witness"]
             and results["determining_number"] == len(expected["witness"]),
             f"base {results} != least base {expected['witness']}")


def _check_cost(oracle, request, expected, results):
    w = expected["witness"]
    want = ({"rho": None, "witness": None, "exists": False} if w is None
            else {"rho": len(w), "witness": w, "exists": True})
    _require(results == want, f"cost {results} != {want}")


def _check_motion(oracle, request, expected, results):
    images = results["witness"]
    moved = sum(1 for v, w in enumerate(images) if v != w)
    _require(results["motion"] == expected["motion"],
             f"motion {results['motion']} != {expected['motion']}")
    _require(is_automorphism(request["graph"], images) and moved == results["motion"],
             "motion witness is not an automorphism moving that many points")


def _bounds(n):
    b = bin(n).count("1")
    return {"n": n, "popcount": b, "cost_bound": -(-5 * n // 2) - b - 1,
            "chain_bound": -(-3 * n // 2) - b - 1}


def _check_greedy(oracle, request, expected, results):
    g = request["graph"]
    chain = results["chain"]
    base = [int(v) for v in request["argv"][request["argv"].index("--base") + 1].split(",")]
    _require(chain["base"] == sorted(base), "greedy base not echoed")
    current = set(base)
    orders = [oracle.setwise_order(g, current)]
    for v in chain["added"]:
        current.add(v)
        orders.append(oracle.setwise_order(g, current))
    _require(chain["orders"] == orders, f"orders {chain['orders']} != {orders}")
    _require(all(a > b for a, b in zip(orders, orders[1:])),
             "orders do not decrease strictly")
    completed = not chain["stalled"] and orders[-1] == 1
    _require(chain["final_set"] == sorted(current)
             and chain["final_size"] == len(current)
             and chain["completed"] == completed, "greedy summary fields")
    bounds = _bounds(len(base))
    _require(results["bounds"] == bounds, "bounds")
    _require(results["within_bound"] == (
        completed and len(current) <= bounds["cost_bound"]
        and len(chain["added"]) <= bounds["chain_bound"]), "within_bound")


def _dist(fsets, a, b) -> Fraction:
    for i, xs in enumerate(fsets):
        if any(a[x] != b[x] for x in xs):
            return Fraction(1, 2 ** i)
    return Fraction(0)


def _check_limit_sim(oracle, request, expected, results):
    g, k = request["graph"], request["k"]
    c = results["construction"]
    _require(c["requested_rounds"] == k and c["completed_rounds"] == k
             and not c["exhausted"], "construction did not complete")
    fsets = [frozenset(f) for f in c["fsets"]]
    phis, xs = c["phis"], c["xs"]
    _require(len(fsets) == k + 1 and len(phis) == k and len(xs) == k
             and fsets[0] == {0}, "construction shape")
    # The least-mover certificate: phi_k fixes F_k and moves x_k, and
    # x_k, v_{k+1} lie in F_{k+1} with the F nested.  Then every later phi
    # fixes the least mover of phi_k in F_{k+1}, so any two sign words that
    # first differ at bit k send it to different images.
    for i, phi in enumerate(phis):
        _require(is_automorphism(g, phi), f"phi_{i} is not an automorphism")
        _require(all(phi[v] == v for v in fsets[i]), f"phi_{i} moves F_{i}")
        _require(phi[xs[i]] != xs[i], f"phi_{i} fixes x_{i}")
        _require(fsets[i] <= fsets[i + 1] and xs[i] in fsets[i + 1]
                 and i + 1 in fsets[i + 1], f"F_{i + 1} closure")
    pairs = 2 ** k * (2 ** k - 1) // 2
    _require(results["distinctness"] == {"pairs": pairs, "witnessed": pairs},
             "distinctness")
    _require(results["inverse_consistency"] is True, "inverse consistency")
    prefix = list(range(g[0]))
    seq = []
    for phi in phis:
        prefix = [prefix[v] for v in phi]
        seq.append(prefix)
    cauchy = [str(max(_dist(fsets, seq[i], seq[j]) for j in range(i + 1, k)))
              for i in range(k - 1)]
    _require(results["cauchy_table"] == cauchy, "cauchy table")


def _check_topology(oracle, request, expected, results):
    sets = request["sets"]
    triples = int(request["argv"][request["argv"].index("--triples") + 1])
    _require(results["exhaustion"] == sets, "exhaustion not echoed")
    _require(results["covers"] == (len(sets[-1]) == request["graph"][0]), "covers")
    _require(results["queries"] == [], "queries")
    _require(results["ultrametric"] == {"triples": triples, "violations": []},
             "ultrametric violations")


CHECKS = {"aut": _check_aut, "base": _check_base, "cost": _check_cost,
          "motion": _check_motion, "greedy": _check_greedy,
          "limit-sim": _check_limit_sim, "topology": _check_topology}


def verdict(oracle, request, expected, code, stdout, stderr) -> str | None:
    """None when the answer is right, else why it is rejected."""
    if code != 0:
        return f"exit {code}: {stderr.strip()[-300:]}"
    try:
        report = json.loads(stdout)
        g = request["graph"]
        _require(report["command"] == request["op"], "command")
        _require(report["input"] == {"digest": _digest(g), "n": g[0],
                                     "edges": len(g[1])}, "input digest")
        CHECKS[request["op"]](oracle, request, expected, report["results"])
    except Rejected as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {exc!r}"
    return None

"""Command-line interface: every analysis as a reproducible batch command.

Reports are JSON objects on stdout; payloads are byte-identical across runs
for fixed flags (only the wall-time field varies).  Exit codes: 0 success,
2 input error, 3 computation precondition error, 4 budget or truncation
exhaustion.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import sys
import time

from . import __version__
from .autgroup import automorphism_group
from .graphs import (Graph, Graph6Error, TruncatedFamily, from_json,
                     is_connected, make_family, parse_graph6, to_json)
from .groups import PermGroup
from .invariants import (BudgetExceededError, DEFAULT_SUBSET_BUDGET, bounds,
                         determining_number, distinguishing_cost,
                         greedy_distinguishing_chain, is_base, motion)
from .limitsim import EpsilonWord, alpha_inverse_perm, alpha_perm, \
    run_construction, verify_distinctness
from .perms import Permutation
from .topology import Exhaustion, check_cauchy, check_ultrametric, confluent, \
    dist, dist_star

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_EXHAUSTED = 4

BUDGET_ENV = "HALINKIT_BUDGET"


class InputError(Exception):
    pass


def _budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_SUBSET_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from exc


def _load_graph(args: argparse.Namespace) -> Graph | TruncatedFamily:
    if args.family is not None:
        try:
            return make_family(args.family, n=args.n, depth=args.depth)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if args.input is None:
        raise InputError("provide --family or --input")
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="ascii") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from exc
    stripped = text.strip()
    # graph6 never holds a double quote, but its size byte for n = 60 is '{'
    if stripped.startswith("{") and '"' in stripped:
        try:
            return from_json(stripped)
        except (ValueError, json.JSONDecodeError) as exc:
            raise InputError(f"bad JSON graph: {exc}") from exc
    try:
        return parse_graph6(stripped)
    except Graph6Error as exc:
        raise InputError(f"bad graph6 input: {exc}") from exc


def _as_graph(obj: Graph | TruncatedFamily) -> Graph:
    return obj.graph if isinstance(obj, TruncatedFamily) else obj


def _digest(g: Graph) -> str:
    payload = f"{g.n};" + ",".join(f"{i}-{j}" for i, j in g.edge_list())
    return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()


def _report(command: str, flags: dict, g: Graph, results: dict,
            started: float) -> dict:
    return {
        "command": command,
        "flags": flags,
        "input": {"digest": _digest(g), "n": g.n, "edges": len(g.edges)},
        "results": results,
        "versions": {"halinkit": __version__,
                     "python": platform.python_version()},
        "wall_time_ms": round((time.monotonic() - started) * 1000, 3),
    }


def _render_table(rows: list[list], header: list[str]) -> list[str]:
    table = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  " + "  ".join("-" * w for w in widths))
    return lines


def _render_pretty(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    inp = report["input"]
    lines.append(f"input: n={inp['n']} edges={inp['edges']} {inp['digest']}")
    results = report["results"]
    for key, value in results.items():
        if key == "cauchy_table":
            lines.append("cauchy table (max tail distance per round):")
            lines += _render_table([[k, d] for k, d in enumerate(value)],
                                   ["k", "max d"])
        elif key == "queries" and value:
            lines.append("distance queries:")
            lines += _render_table(
                [[q["a"], q["b"], q["conf"], q["d"], q["d_star"]]
                 for q in value], ["a", "b", "conf", "d", "d*"])
        elif key == "chain":
            lines.append("stabilizer chain:")
            lines += _render_table(
                [[i, sorted(set(value["base"]) | set(value["added"][:i])),
                  order]
                 for i, order in enumerate(value["orders"])],
                ["step", "set", "stabilizer order"])
            lines.append(f"  stalled: {value['stalled']}  "
                         f"completed: {value['completed']}")
        elif key == "generators":
            lines.append(f"generators ({len(value)}):")
            lines += [f"  {g}" for g in value]
        else:
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
    lines.append(f"wall time: {report['wall_time_ms']} ms")
    return "\n".join(lines)


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        print(_render_pretty(report))
    else:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))


def _parse_vertex_list(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok != ""]
    except ValueError as exc:
        raise InputError(f"bad vertex list {raw!r}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_aut(args) -> tuple[dict, int]:
    started = time.monotonic()
    g = _as_graph(_load_graph(args))
    group = automorphism_group(g)
    results = {"order": group.order(),
               "generators": [list(p.images) for p in group.generators]}
    return _report("aut", _echo(args), g, results, started), EXIT_OK


def _cmd_base(args) -> tuple[dict, int]:
    started = time.monotonic()
    g = _as_graph(_load_graph(args))
    group = automorphism_group(g)
    size, witness = determining_number(group, budget=_budget())
    results = {"determining_number": size, "witness": list(witness)}
    return _report("base", _echo(args), g, results, started), EXIT_OK


def _cmd_cost(args) -> tuple[dict, int]:
    started = time.monotonic()
    g = _as_graph(_load_graph(args))
    group = automorphism_group(g)
    found = distinguishing_cost(group, budget=_budget())
    if found is None:
        results = {"rho": None, "witness": None, "exists": False}
    else:
        results = {"rho": found[0], "witness": list(found[1]), "exists": True}
    return _report("cost", _echo(args), g, results, started), EXIT_OK


def _cmd_motion(args) -> tuple[dict, int]:
    started = time.monotonic()
    g = _as_graph(_load_graph(args))
    group = automorphism_group(g)
    m, witness = motion(group)
    results = {"motion": m, "witness": list(witness.images)}
    return _report("motion", _echo(args), g, results, started), EXIT_OK


def _cmd_greedy(args) -> tuple[dict, int]:
    started = time.monotonic()
    g = _as_graph(_load_graph(args))
    group = automorphism_group(g)
    base = _parse_vertex_list(args.base)
    if not all(0 <= v < g.n for v in base):
        raise InputError("base vertices out of range")
    chain = greedy_distinguishing_chain(group, base)
    results: dict = {"chain": chain.to_json()}
    if chain.base:
        b = bounds(len(chain.base))
        results["bounds"] = b.to_json()
        results["within_bound"] = (
            chain.completed and len(chain.final_set) <= b.cost_bound
            and chain.length <= b.chain_bound)
    return _report("greedy", _echo(args), g, results, started), EXIT_OK


def _cmd_limit_sim(args) -> tuple[dict, int]:
    started = time.monotonic()
    if args.family not in ("binary-tree", "comb"):
        raise InputError("limit-sim supports --family binary-tree or comb")
    if args.k < 1:
        raise InputError("--k must be >= 1")
    if args.depth is None:
        raise InputError("limit-sim needs --depth")
    family = _load_graph(args)
    assert isinstance(family, TruncatedFamily)
    state = run_construction(family, args.k)
    results: dict = {"construction": state.to_json()}
    code = EXIT_OK
    if state.exhausted:
        code = EXIT_EXHAUSTED
    else:
        witnesses = verify_distinctness(state, args.k)
        pairs = 2 ** args.k * (2 ** args.k - 1) // 2
        witnessed = sum(1 for w in witnesses if w.image_a != w.image_b)
        exhaustion = state.exhaustion()
        word = EpsilonWord(tuple([1] * args.k))
        seq = [alpha_perm(state, word.bits[:k + 1]) for k in range(args.k)]
        cauchy = [str(x) for x in check_cauchy(exhaustion, seq)]
        inverse_ok = all(
            (alpha_perm(state, EpsilonWord.from_int(m, args.k))
             * alpha_inverse_perm(state, EpsilonWord.from_int(m, args.k))
             ).is_identity()
            for m in range(2 ** args.k))
        results.update({
            "distinctness": {"pairs": pairs, "witnessed": witnessed},
            "cauchy_table": cauchy,
            "inverse_consistency": inverse_ok,
        })
    return _report("limit-sim", _echo(args), family.graph, results,
                   started), code


def _parse_exhaustion(raw: str, degree: int) -> Exhaustion:
    sets = []
    for part in raw.split("|"):
        sets.append(_parse_vertex_list(part))
    try:
        return Exhaustion(degree, sets)
    except ValueError as exc:
        raise InputError(f"bad exhaustion: {exc}") from exc


def _sample_elements(group: PermGroup, count: int, seed: int) -> list[Permutation]:
    """Seeded random words over the generators (identity when there are none)."""
    rng = random.Random(seed)
    gens = list(group.generators)
    out = []
    for _ in range(count):
        p = Permutation.identity(group.degree)
        if gens:
            for _ in range(12):
                p = p * gens[rng.randrange(len(gens))]
        out.append(p)
    return out


def _cmd_topology(args) -> tuple[dict, int]:
    started = time.monotonic()
    g = _as_graph(_load_graph(args))
    if args.exhaustion is None:
        raise InputError("topology needs --exhaustion \"i,j|i,j,k|...\"")
    exhaustion = _parse_exhaustion(args.exhaustion, g.n)
    results: dict = {
        "exhaustion": [sorted(s) for s in exhaustion.sets],
        "covers": exhaustion.covers,
    }
    queries = []
    for raw_a, raw_b in args.pair or []:
        try:
            a = Permutation(json.loads(raw_a))
            b = Permutation(json.loads(raw_b))
        except (ValueError, json.JSONDecodeError) as exc:
            raise InputError(f"bad permutation pair: {exc}") from exc
        if a.degree != g.n or b.degree != g.n:
            raise InputError("pair permutations must act on the graph's vertices")
        c = confluent(exhaustion, a, b)
        queries.append({
            "a": list(a.images), "b": list(b.images),
            "conf": "equal-on-all" if c is None else c,
            "d": str(dist(exhaustion, a, b)),
            "d_star": str(dist_star(exhaustion, a, b)),
        })
    results["queries"] = queries
    if args.triples:
        group = automorphism_group(g)
        sample = _sample_elements(group, 3 * args.triples, args.seed)
        triples = [tuple(sample[3 * i:3 * i + 3]) for i in range(args.triples)]
        violations = check_ultrametric(exhaustion, triples)
        results["ultrametric"] = {"triples": args.triples,
                                  "violations": violations}
    return _report("topology", _echo(args), g, results, started), EXIT_OK


def _echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=["path", "cycle", "complete",
                                        "complete-bipartite", "petersen",
                                        "binary-tree", "comb"])
    p.add_argument("--n", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--input", help="graph6 or JSON edge-list file, '-' for stdin")
    p.add_argument("--pretty", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halinkit",
        description="Graph symmetry toolkit: automorphism groups, bases, "
                    "distinguishing sets, greedy stabilizer chains, "
                    "truncated limit constructions, permutation ultrametrics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("aut", help="automorphism group generators and order")
    _add_graph_args(p)
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("base", help="determining number and least witness base")
    _add_graph_args(p)
    p.set_defaults(func=_cmd_base)

    p = sub.add_parser("cost", help="distinguishing cost and witness")
    _add_graph_args(p)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("motion", help="minimum motion over nontrivial automorphisms")
    _add_graph_args(p)
    p.set_defaults(func=_cmd_motion)

    p = sub.add_parser("greedy", help="greedy distinguishing chain from a base")
    _add_graph_args(p)
    p.add_argument("--base", required=True, help="comma-separated base vertices")
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("limit-sim", help="run the truncated limit construction")
    _add_graph_args(p)
    p.add_argument("--k", type=int, required=True, help="rounds to run")
    p.set_defaults(func=_cmd_limit_sim)

    p = sub.add_parser("topology", help="permutation ultrametric queries")
    _add_graph_args(p)
    p.add_argument("--exhaustion", help="nested sets, e.g. \"0,1|0,1,2\"")
    p.add_argument("--pair", nargs=2, action="append", metavar=("A", "B"),
                   help="two JSON image arrays to compare (repeatable)")
    p.add_argument("--triples", type=int, default=0,
                   help="random ultrametric triples to check")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_topology)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
    except InputError as exc:
        print(f"halinkit: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (Graph6Error,) as exc:
        print(f"halinkit: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"halinkit: resource limit: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except ValueError as exc:
        print(f"halinkit: precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(report, args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())

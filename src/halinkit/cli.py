"""Command-line interface: every analysis as a reproducible batch command.

Reports are JSON objects on stdout; payloads are byte-identical across runs
for fixed flags (only the wall-time field varies).  Exit codes: 0 success,
2 input error, 3 computation precondition error, 4 budget or truncation
exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import sys
import time

from . import __version__
from .autgroup import automorphism_group
from .graphs import (FAMILY_NAMES, Graph, Graph6Error, TruncatedFamily,
                     from_json, make_family, parse_graph6)
from .groups import BudgetExceededError, DEFAULT_SUBSET_BUDGET, PermGroup
from .perms import Permutation


def _deferred(module: str, name: str):
    """A stand-in for ``halinkit.<module>.<name>`` that imports the module on
    its first call, so that a command compiles only the modules it runs.
    Handlers call these names here, and tracing tools wrap them here."""
    def forward(*args, **kwargs):
        from importlib import import_module
        target = getattr(import_module(f".{module}", __package__), name)
        return target(*args, **kwargs)
    forward.__name__ = forward.__qualname__ = name
    return forward


determining_number, distinguishing_cost, motion, greedy_distinguishing_chain = (
    _deferred("invariants", name) for name in (
        "determining_number", "distinguishing_cost", "motion",
        "greedy_distinguishing_chain"))
run_construction, verify_distinctness, alpha_perm = (_deferred("limitsim", name)
    for name in ("run_construction", "verify_distinctness", "alpha_perm"))
check_ultrametric, check_cauchy = (_deferred("topology", name)
    for name in ("check_ultrametric", "check_cauchy"))

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_EXHAUSTED = 4

BUDGET_ENV = "HALINKIT_BUDGET"


class InputError(Exception):
    pass


class ResourceLimitError(Exception):
    """Work that would exceed the budget, refused before it starts."""


def _budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_SUBSET_BUDGET
    try:
        budget = int(raw)
    except ValueError as exc:
        raise InputError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if budget < 0:
        raise InputError(f"{BUDGET_ENV} must be >= 0, got {budget}")
    return budget


def _family_size(args: argparse.Namespace) -> tuple[int, int]:
    """(vertices, edges) of the --family graph in closed form.  A missing or
    negative size counts as 0, which the family then rejects."""
    n, d = max(args.n or 0, 0), max(args.depth or 0, 0)
    tree = 2 ** (min(d, 62) + 1)  # a tree deeper than 62 is over any limit
    return {"path": (n, n - 1), "cycle": (n, n),
            "complete": (n, n * (n - 1) // 2),
            "complete-bipartite": (n, n // 2 * (n - n // 2)),
            "petersen": (10, 15), "binary-tree": (tree - 1, tree - 2),
            "comb": (3 * d + 1, 3 * d)}[args.family]


def _check_size(vertices: int, edges: int) -> None:
    if vertices + edges > DEFAULT_SUBSET_BUDGET:
        raise ResourceLimitError(
            f"graph has {vertices} vertices and {edges} edges, more than "
            f"{DEFAULT_SUBSET_BUDGET} together")


def _load_graph(args: argparse.Namespace) -> Graph | TruncatedFamily:
    # a family is refused by its size before it is built, --input after
    if args.family is not None:
        _check_size(*_family_size(args))
        try:
            return make_family(args.family, n=args.n, depth=args.depth)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if args.input is None:
        raise InputError("provide --family or --input")
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="ascii") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {args.input}: {exc}") from exc
    stripped = text.strip()
    # graph6 never holds a double quote, but its size byte for n = 60 is '{'
    if stripped.startswith("{") and '"' in stripped:
        try:
            g = from_json(stripped)
        except (ValueError, json.JSONDecodeError) as exc:
            raise InputError(f"bad JSON graph: {exc}") from exc
    else:
        try:
            g = parse_graph6(stripped)
        except Graph6Error as exc:
            raise InputError(f"bad graph6 input: {exc}") from exc
    _check_size(g.n, len(g.edges))
    return g


def _as_graph(obj: Graph | TruncatedFamily) -> Graph:
    return obj.graph if isinstance(obj, TruncatedFamily) else obj


def _digest(n: int, edges: list[tuple[int, int]]) -> str:
    payload = f"{n};" + ",".join(f"{i}-{j}" for i, j in edges)
    return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()


def _report(args: argparse.Namespace, g: Graph | TruncatedFamily,
            results: dict, started: float) -> dict:
    edges = g.edge_list()  # sorted; a family's from its closed forms
    return {
        "command": args.subcommand,
        "flags": _echo(args),
        "input": {"digest": _digest(g.n, edges), "n": g.n, "edges": len(edges)},
        "results": results,
        "versions": {"halinkit": __version__,
                     "python": sys.version.split()[0]},
        "wall_time_ms": round((time.monotonic() - started) * 1000, 3),
    }


def _render_table(rows: list[list], header: list[str]) -> list[str]:
    table = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    table.insert(1, ["-" * w for w in widths])  # the rule under the header
    return ["  " + "  ".join(c.ljust(w) for c, w in zip(row, widths))
            for row in table]


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

# Each handler returns (graph, results, exit code); main builds the report.

def _loaded_group(args) -> tuple[Graph, PermGroup]:
    g = _as_graph(_load_graph(args))
    return g, automorphism_group(g)


def _cmd_aut(args) -> tuple[Graph, dict, int]:
    g, group = _loaded_group(args)
    return g, {"order": group.order(),
               "generators": [list(p.images) for p in group.generators]}, EXIT_OK


def _cmd_base(args) -> tuple[Graph, dict, int]:
    g, group = _loaded_group(args)
    size, witness = determining_number(group, budget=_budget())
    return g, {"determining_number": size, "witness": list(witness)}, EXIT_OK


def _cmd_cost(args) -> tuple[Graph, dict, int]:
    g, group = _loaded_group(args)
    found = distinguishing_cost(group, budget=_budget())
    if found is None:
        return g, {"rho": None, "witness": None, "exists": False}, EXIT_OK
    return g, {"rho": found[0], "witness": list(found[1]), "exists": True}, EXIT_OK


def _cmd_motion(args) -> tuple[Graph, dict, int]:
    g, group = _loaded_group(args)
    m, witness = motion(group)
    return g, {"motion": m, "witness": list(witness.images)}, EXIT_OK


def _cmd_greedy(args) -> tuple[Graph, dict, int]:
    g, group = _loaded_group(args)
    base = _parse_vertex_list(args.base)
    if not all(0 <= v < g.n for v in base):
        raise InputError("base vertices out of range")
    chain = greedy_distinguishing_chain(group, base)
    results: dict = {"chain": chain.to_json()}
    if chain.base:
        from .invariants import bounds
        b = bounds(len(chain.base))
        results["bounds"] = b.to_json()
        results["within_bound"] = (
            chain.completed and len(chain.final_set) <= b.cost_bound
            and chain.length <= b.chain_bound)
    return g, results, EXIT_OK


def _cmd_limit_sim(args) -> tuple[TruncatedFamily, dict, int]:
    if args.family not in ("binary-tree", "comb"):
        raise InputError("limit-sim supports --family binary-tree or comb")
    if args.k < 1:
        raise InputError("--k must be >= 1")
    if args.depth is None:
        raise InputError("limit-sim needs --depth")
    family = _load_graph(args)
    budget = _budget()  # charges the certificate's 2^(K+1) - 2 period
    # entries; a K past the budget's bit length is over it without 2^K
    if args.k > budget.bit_length() or 2 ** (args.k + 1) - 2 > budget:
        raise ResourceLimitError(
            f"pair certificate for --k {args.k} needs 2^{args.k + 1} - 2 "
            f"period entries, budget {budget}")
    state = run_construction(family, args.k)
    results: dict = {"construction": state.to_json()}
    if state.exhausted:
        return family, results, EXIT_EXHAUSTED
    pairs = 2 ** args.k * (2 ** args.k - 1) // 2
    witnessed = verify_distinctness(state, args.k).witnessed()
    exhaustion = state.exhaustion()
    seq = list(itertools.accumulate(  # alpha_k = alpha_{k-1} * phi_k
        state.phis[1:], Permutation.__mul__, initial=alpha_perm(state, (1,))))
    cauchy = [str(x) for x in check_cauchy(exhaustion, seq)]
    results.update({
        "distinctness": {"pairs": pairs, "witnessed": witnessed},
        "cauchy_table": cauchy,
        "inverse_consistency": state.inverse_consistency(),
    })
    return family, results, EXIT_OK


def _sample_elements(group: PermGroup, count: int, seed: int) -> list[Permutation]:
    """``count`` seeded, uniformly random group elements: for each draw
    r = ``randrange(|G|)``, element r of :meth:`PermGroup.elements`, built
    by the chain on first use.  Equal draws share one object.  r is the first
    ``getrandbits(|G|.bit_length())`` below |G|, as in CPython 3.10-3.13."""
    import random  # only --triples samples
    chain = group.chain()
    order, rng = chain.order(), random.Random(seed)
    bits = map(rng.getrandbits, itertools.repeat(order.bit_length()))
    draws = itertools.islice(filter(order.__gt__, bits), count)
    return list(map(functools.cache(chain.element), draws))


def _parse_images(raw: str) -> list:
    images = json.loads(raw)  # Permutation checks the entries
    if not isinstance(images, list):
        raise ValueError(f"{raw!r} is not a JSON list")
    return images


def _cmd_topology(args) -> tuple[Graph, dict, int]:
    g = _as_graph(_load_graph(args))
    if args.exhaustion is None:
        raise InputError("topology needs --exhaustion \"i,j|i,j,k|...\"")
    if args.triples < 0:
        raise InputError(f"--triples must be >= 0, got {args.triples}")
    from .topology import Exhaustion, confluent, dist, dist_star
    try:
        exhaustion = Exhaustion(g.n, map(_parse_vertex_list,
                                         args.exhaustion.split("|")))
    except ValueError as exc:
        raise InputError(f"bad exhaustion: {exc}") from exc
    results: dict = {
        "exhaustion": [sorted(s) for s in exhaustion.sets],
        "covers": exhaustion.covers,
    }
    queries = []
    for raw_a, raw_b in args.pair or []:
        try:
            a = Permutation(_parse_images(raw_a))
            b = Permutation(_parse_images(raw_b))
        except ValueError as exc:  # json.JSONDecodeError is a ValueError
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
        budget = _budget()
        if 3 * args.triples > budget:
            raise ResourceLimitError(
                f"ultrametric check needs {3 * args.triples} samples, budget {budget}")
        group = automorphism_group(g)
        sample = _sample_elements(group, 3 * args.triples, args.seed)
        violations = check_ultrametric(exhaustion, zip(*[iter(sample)] * 3))
        results["ultrametric"] = {"triples": args.triples,
                                  "violations": violations}
    return g, results, EXIT_OK


def _echo(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k != "func" and v is not None}


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=FAMILY_NAMES)
    p.add_argument("--n", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--input", help="graph6 or JSON edge-list file, '-' for stdin")
    p.add_argument("--pretty", action="store_true")


_COMMANDS = (  # (name, help, handler) in the order --help lists them
    ("aut", "automorphism group generators and order", _cmd_aut),
    ("base", "determining number and least witness base", _cmd_base),
    ("cost", "distinguishing cost and witness", _cmd_cost),
    ("motion", "minimum motion over nontrivial automorphisms", _cmd_motion),
    ("greedy", "greedy distinguishing chain from a base", _cmd_greedy),
    ("limit-sim", "run the truncated limit construction", _cmd_limit_sim),
    ("topology", "permutation ultrametric queries", _cmd_topology),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halinkit",
        description="Graph symmetry toolkit: automorphism groups, bases, "
                    "distinguishing sets, greedy stabilizer chains, "
                    "truncated limit constructions, permutation ultrametrics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    subparsers = {}
    for name, help_text, handler in _COMMANDS:
        p = subparsers[handler] = sub.add_parser(name, help=help_text)
        _add_graph_args(p)
        p.set_defaults(func=handler)
    subparsers[_cmd_greedy].add_argument(
        "--base", required=True, help="comma-separated base vertices")
    subparsers[_cmd_limit_sim].add_argument(
        "--k", type=int, required=True, help="rounds to run")
    p = subparsers[_cmd_topology]
    p.add_argument("--exhaustion", help="nested sets, e.g. \"0,1|0,1,2\"")
    p.add_argument("--pair", nargs=2, action="append", metavar=("A", "B"),
                   help="two JSON image arrays to compare (repeatable)")
    p.add_argument("--triples", type=int, default=0,
                   help="random ultrametric triples to check")
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        g, results, code = args.func(args)
    except InputError as exc:
        print(f"halinkit: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetExceededError, ResourceLimitError, RecursionError,
            MemoryError) as exc:
        # a recursive search deeper than the stack limit, or out of memory
        print(f"halinkit: resource limit: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return EXIT_EXHAUSTED
    except ValueError as exc:
        print(f"halinkit: precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(_report(args, g, results, started), args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counts at halinkit's layer boundaries, for the traced run.

The tracer replaces public names at the place the code looks them up
(``halinkit.cli.automorphism_group``, ``halinkit.autgroup.refine``,
``PermGroup.point_stabilizer`` ...) with wrappers, and restores them on
uninstall.  A wrapped name records either a span (name, start, end,
parent span, request id) or a bare count; the hottest primitives are only
counted.  Spans stay in memory until the run ends, and self times are
derived from them afterwards.  A name the program no longer has is
skipped, so its metrics are absent rather than the run failing.  Private
names are never wrapped.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import process_time

# (module, attribute path, kind, span or counter name, result counter)
WRAPS = [
    ("halinkit.cli", "main", "span", "cli", None),
    ("halinkit.cli", "parse_graph6", "span", "graphs.load", None),
    ("halinkit.cli", "from_json", "span", "graphs.load", None),
    ("halinkit.cli", "make_family", "span", "graphs.load", None),
    ("halinkit.graphs", "Graph.is_automorphism", "count",
     "graphs.is_automorphism.calls", None),
    ("halinkit.perms", "Permutation.__mul__", "count", "perms.mul.calls", None),
    ("halinkit.perms", "Permutation.inverse", "count", "perms.inverse.calls", None),
    ("halinkit.perms", "Permutation.__init__", "count", "perms.new.calls", None),
    ("halinkit.cli", "automorphism_group", "span", "autgroup.search",
     ("autgroup.generators", lambda group: len(group.generators))),
    ("halinkit.autgroup", "refine", "span", "autgroup.refine", None),
    ("halinkit.groups", "PermGroup.chain", "build", "groups.chain", None),
    ("halinkit.groups", "PermGroup.point_stabilizer", "span",
     "groups.point_stabilizer", None),
    ("halinkit.groups", "PermGroup.set_stabilizer", "span",
     "groups.set_stabilizer", None),
    ("halinkit.groups", "PermGroup.set_stabilizer_is_trivial", "span",
     "groups.set_stabilizer_is_trivial", None),
    ("halinkit.groups", "PermGroup.contains", "count", "groups.contains.calls", None),
    ("halinkit.groups", "PermGroup.elements", "span", "groups.elements",
     ("groups.elements.listed", len)),
    ("halinkit.invariants", "is_base", "count", "invariants.subsets_examined", None),
    ("halinkit.invariants", "is_distinguishing", "count",
     "invariants.subsets_examined", None),
    ("halinkit.invariants", "reducing_vertex", "count",
     "invariants.reducing_vertex.calls", None),
    ("halinkit.cli", "determining_number", "span",
     "invariants.determining_number", None),
    ("halinkit.cli", "distinguishing_cost", "span",
     "invariants.distinguishing_cost", None),
    ("halinkit.cli", "motion", "span", "invariants.motion", None),
    ("halinkit.cli", "greedy_distinguishing_chain", "span", "invariants.greedy", None),
    ("halinkit.cli", "run_construction", "span", "limitsim.run_construction", None),
    ("halinkit.limitsim", "fixing_oracle", "count",
     "limitsim.fixing_oracle.calls", None),
    ("halinkit.cli", "verify_distinctness", "span",
     "limitsim.verify_distinctness", ("limitsim.pair_witnesses", len)),
    ("halinkit.cli", "alpha_perm", "span", "limitsim.alpha_perm", None),
    # traced so that its time is not booked as cli self time
    ("halinkit.cli", "alpha_inverse_perm", "span", "limitsim.alpha_inverse_perm", None),
    ("halinkit.topology", "dist", "count", "topology.dist.calls", None),
    ("halinkit.cli", "dist", "count", "topology.dist.calls", None),
    ("halinkit.cli", "check_ultrametric", "span", "topology.check_ultrametric", None),
    ("halinkit.cli", "check_cauchy", "span", "topology.check_cauchy", None),
]

# (metric, unit, source): "calls:<span>", "self:<span>" or "count:<counter>"
METRICS = [
    ("perms.mul.calls", "count", "count:perms.mul.calls"),
    ("perms.inverse.calls", "count", "count:perms.inverse.calls"),
    ("perms.new.calls", "count", "count:perms.new.calls"),
    ("graphs.load_s", "s", "self:graphs.load"),
    ("graphs.is_automorphism.calls", "count", "count:graphs.is_automorphism.calls"),
    ("autgroup.refine.calls", "count", "calls:autgroup.refine"),
    ("autgroup.refine_s", "s", "self:autgroup.refine"),
    ("autgroup.search_s", "s", "self:autgroup.search"),
    ("autgroup.generators", "count", "count:autgroup.generators"),
    ("autgroup.leaf_yield", "ratio", None),
    ("groups.chain.builds", "count", "calls:groups.chain"),
    ("groups.chain_s", "s", "self:groups.chain"),
    ("groups.point_stabilizer.calls", "count", "calls:groups.point_stabilizer"),
    ("groups.point_stabilizer_s", "s", "self:groups.point_stabilizer"),
    ("groups.set_stabilizer.calls", "count", "calls:groups.set_stabilizer"),
    ("groups.set_stabilizer_s", "s", "self:groups.set_stabilizer"),
    ("groups.set_stabilizer_is_trivial.calls", "count",
     "calls:groups.set_stabilizer_is_trivial"),
    ("groups.set_stabilizer_is_trivial_s", "s", "self:groups.set_stabilizer_is_trivial"),
    ("groups.contains.calls", "count", "count:groups.contains.calls"),
    ("groups.elements.listed", "count", "count:groups.elements.listed"),
    ("groups.elements_s", "s", "self:groups.elements"),
    ("invariants.subsets_examined", "count", "count:invariants.subsets_examined"),
    ("invariants.determining_number_s", "s", "self:invariants.determining_number"),
    ("invariants.distinguishing_cost_s", "s", "self:invariants.distinguishing_cost"),
    ("invariants.motion_s", "s", "self:invariants.motion"),
    ("invariants.greedy_s", "s", "self:invariants.greedy"),
    ("invariants.reducing_vertex.calls", "count",
     "count:invariants.reducing_vertex.calls"),
    ("limitsim.run_construction_s", "s", "self:limitsim.run_construction"),
    ("limitsim.fixing_oracle.calls", "count", "count:limitsim.fixing_oracle.calls"),
    ("limitsim.verify_distinctness_s", "s", "self:limitsim.verify_distinctness"),
    ("limitsim.pair_witnesses", "count", "count:limitsim.pair_witnesses"),
    ("limitsim.alpha_perm.calls", "count", "calls:limitsim.alpha_perm"),
    ("limitsim.alpha_perm_s", "s", "self:limitsim.alpha_perm"),
    ("topology.dist.calls", "count", "count:topology.dist.calls"),
    ("topology.check_ultrametric_s", "s", "self:topology.check_ultrametric"),
    ("topology.check_cauchy_s", "s", "self:topology.check_cauchy"),
    ("cli.self_s", "s", "self:cli"),
    ("cli.output_bytes", "bytes", None),
    ("trace.overhead_frac", "ratio", None),
]

SPAN_FIELDS = ("name", "start", "end", "parent", "request")


def _resolve(module: str, path: str):
    """(owner, attribute) of a dotted name, or None if it does not exist."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span(self, name, fn, result_counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, process_time(), None,
                          stack[-1] if stack else -1, self.request])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = process_time()
                stack.pop()
            if result_counter is not None:
                counts[result_counter[0]] += result_counter[1](result)
            return result
        return wrapper

    def _wrap(self, kind, name, fn, result_counter):
        counts = self.counts
        if kind == "count":
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        traced = self._span(name, fn, result_counter)
        if kind == "span":
            return traced

        def build(group):
            # Only a call that has to build the lazy chain is a span.  The
            # cached chain is read, never wrapped; without that attribute
            # every call would count as a build.
            if getattr(group, "_chain", None) is not None:
                return fn(group)
            return traced(group)
        return build

    def install(self) -> None:
        for module, path, kind, name, result_counter in WRAPS:
            target = _resolve(module, path)
            if target is None:
                continue
            owner, attr = target
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(kind, name, original, result_counter))
            self._undo.append((owner, attr, original))
            self.installed.add(name)
            if result_counter is not None:
                self.installed.add(result_counter[0])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> tuple[dict, Counter]:
        """Per span name: summed self time, and the number of spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        own: dict = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            own[name] += end - start - child
            calls[name] += 1
        return own, calls

    def metrics(self, output_bytes: int, overhead: float) -> dict:
        own, calls = self.self_times()
        derived = {"cli.output_bytes": output_bytes,
                   "trace.overhead_frac": overhead}
        if {"autgroup.generators", "graphs.is_automorphism.calls"} <= self.installed:
            leaves = self.counts["graphs.is_automorphism.calls"]
            derived["autgroup.leaf_yield"] = (
                self.counts["autgroup.generators"] / leaves if leaves else 0.0)
        out = {}
        for metric, unit, source in METRICS:
            if source is None:
                if metric not in derived:
                    continue
                value = derived[metric]
            else:
                how, name = source.split(":", 1)
                if name not in self.installed:
                    continue
                value = {"calls": calls[name], "self": own[name],
                         "count": self.counts[name]}[how]
            out[metric] = {"value": value, "unit": unit}
        return out

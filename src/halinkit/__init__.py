"""halinkit: graph symmetry toolkit.

Automorphism groups of finite graphs, determining and distinguishing
invariants with the greedy stabilizer-chain procedure and its exact size
bounds, finite-truncation simulations of infinite-graph fixing
constructions, and exact permutation ultrametrics.  Each submodule is
imported on first use of it or of a name it exports (PEP 562).
"""

__version__ = "0.1.0"

_EXPORTS = {  # each submodule but cli: the names it exports, in __all__ order
    "autgroup": "ColoredPartition automorphism_group refine",
    "graphs": "Graph Graph6Error TruncatedFamily binary_tree comb complete "
              "complete_bipartite cycle encode_graph6 from_json is_connected "
              "make_family parse_graph6 path petersen to_json",
    "groups": "GroupTooLargeError PermGroup BudgetExceededError",
    "invariants": "Bounds StabilizerChain bounds determining_number "
                  "disjoint_translate distinguishing_cost "
                  "greedy_distinguishing_chain is_base is_distinguishing "
                  "motion reducing_vertex subdegree_report",
    "limitsim": "ConstructionState EpsilonWord PairCertificate alpha "
                "alpha_inverse_perm alpha_perm depth_budget fixing_oracle "
                "run_construction verify_distinctness verify_finitary",
    "perms": "Permutation",
    "topology": "Exhaustion check_cauchy check_ultrametric confluent dist "
                "dist_star",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    from importlib import import_module
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:  # importing binds it here as well
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})

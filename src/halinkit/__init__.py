"""halinkit: graph symmetry toolkit.

Automorphism groups of finite graphs, determining and distinguishing
invariants with the greedy stabilizer-chain procedure and its exact size
bounds, finite-truncation simulations of infinite-graph fixing
constructions, and exact permutation ultrametrics.
"""

__version__ = "0.1.0"

from .autgroup import ColoredPartition, automorphism_group, refine
from .graphs import (Graph, Graph6Error, TruncatedFamily, binary_tree, comb,
                     complete, complete_bipartite, cycle, encode_graph6,
                     from_json, is_connected, make_family, parse_graph6, path,
                     petersen, to_json)
from .groups import GroupTooLargeError, PermGroup
from .invariants import (Bounds, BudgetExceededError, StabilizerChain, bounds,
                         determining_number, disjoint_translate,
                         distinguishing_cost, greedy_distinguishing_chain,
                         is_base, is_distinguishing, motion, motion_of,
                         reducing_vertex, subdegree_report)
from .limitsim import (ConstructionState, EpsilonWord, alpha,
                       alpha_inverse_perm, alpha_perm, depth_budget,
                       fixing_oracle, run_construction, verify_distinctness,
                       verify_finitary)
from .perms import Permutation
from .topology import (Exhaustion, check_cauchy, check_ultrametric, confluent,
                       dist, dist_star)

__all__ = [
    "__version__",
    "ColoredPartition", "automorphism_group", "refine",
    "Graph", "Graph6Error", "TruncatedFamily", "binary_tree", "comb",
    "complete", "complete_bipartite", "cycle", "encode_graph6", "from_json",
    "is_connected", "make_family", "parse_graph6", "path", "petersen",
    "to_json",
    "GroupTooLargeError", "PermGroup",
    "Bounds", "BudgetExceededError", "StabilizerChain", "bounds",
    "determining_number", "disjoint_translate", "distinguishing_cost",
    "greedy_distinguishing_chain", "is_base", "is_distinguishing", "motion",
    "motion_of", "reducing_vertex", "subdegree_report",
    "ConstructionState", "EpsilonWord", "alpha", "alpha_inverse_perm",
    "alpha_perm", "depth_budget", "fixing_oracle", "run_construction",
    "verify_distinctness", "verify_finitary",
    "Permutation",
    "Exhaustion", "check_cauchy", "check_ultrametric", "confluent", "dist",
    "dist_star",
]

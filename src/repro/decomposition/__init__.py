"""Decomposition data structures, validators and transformations
(Definitions 2.4-2.6, 4.5, 5.18, 5.20, 6.2, 6.3 and Appendix A)."""

from .base import Decomposition, DecompositionNode
from .io import (
    decomposition_from_dict,
    decomposition_from_json,
    decomposition_to_dot,
    decomposition_to_json,
)
from .stitch import (
    TreeBuilder,
    replay_reductions,
    reroot,
    stitch_blocks,
)
from .transform import (
    make_bag_maximal,
    normalize,
    project_to_original,
    prune_redundant_nodes,
    repair_special_violations,
    special_condition_violations,
)
from .validation import (
    check_bag_covers,
    check_connectedness,
    check_edge_coverage,
    check_fnf,
    check_fractional_part_bounded,
    check_special_condition,
    check_weak_special_condition,
    is_bag_maximal,
    is_fhd,
    is_ghd,
    is_hd,
    is_strict,
    is_tree_decomposition,
    treecomp,
    validate,
    violations,
)

__all__ = [
    "Decomposition",
    "decomposition_to_json",
    "decomposition_from_json",
    "decomposition_from_dict",
    "decomposition_to_dot",
    "DecompositionNode",
    "violations",
    "validate",
    "is_tree_decomposition",
    "is_ghd",
    "is_hd",
    "is_fhd",
    "check_edge_coverage",
    "check_connectedness",
    "check_bag_covers",
    "check_special_condition",
    "check_weak_special_condition",
    "check_fractional_part_bounded",
    "check_fnf",
    "is_strict",
    "is_bag_maximal",
    "treecomp",
    "make_bag_maximal",
    "prune_redundant_nodes",
    "normalize",
    "special_condition_violations",
    "repair_special_violations",
    "project_to_original",
    "TreeBuilder",
    "reroot",
    "stitch_blocks",
    "replay_reductions",
]

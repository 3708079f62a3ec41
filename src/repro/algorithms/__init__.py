"""Decomposition algorithms: Check(HD/GHD/FHD, k), exact oracles, and the
Section 6 approximation schemes."""

from .approx import (
    FHWApproximationResult,
    fhw_approximation,
    frac_decomp,
    fractional_part_bound,
    integralize,
    oklogk_decomposition,
)
from .elimination import (
    decomposition_from_ordering,
    fractional_hypertree_width_exact,
    generalized_hypertree_width_exact,
    treewidth_exact,
    width_by_elimination,
)
from .fhd import (
    StrictFHDSearch,
    check_fhd,
    fractional_hypertree_decomposition_bounded_degree,
    fractional_hypertree_width,
)
from .ghd import (
    GHD_METHODS,
    augmented_hypergraph,
    check_ghd,
    generalized_hypertree_decomposition,
    generalized_hypertree_width,
)
from .hd import HDSearch, check_hd, hypertree_decomposition, hypertree_width
from .heuristics import (
    clique_lower_bound,
    heuristic_decomposition,
    min_degree_ordering,
    min_fill_ordering,
    minor_width_lower_bound,
    width_bounds,
    width_lower_bound,
)
from .report import WidthReport, width_report
from .separators import (
    balanced_separator,
    ghw_balance_lower_bound,
    is_balanced_separator,
)
from .subedges import (
    IntersectionForestNode,
    UnionIntersectionNode,
    bip_subedges,
    bmip_subedges,
    critical_path,
    fhd_subedges,
    forest_fringe,
    ghd_subedges,
    intersection_forest,
    limit_subedges,
    subedge_name,
    union_intersection_tree,
)

__all__ = [
    "hypertree_decomposition",
    "min_degree_ordering",
    "min_fill_ordering",
    "heuristic_decomposition",
    "clique_lower_bound",
    "minor_width_lower_bound",
    "width_lower_bound",
    "width_bounds",
    "balanced_separator",
    "is_balanced_separator",
    "ghw_balance_lower_bound",
    "WidthReport",
    "width_report",
    "check_hd",
    "hypertree_width",
    "HDSearch",
    "generalized_hypertree_decomposition",
    "check_ghd",
    "generalized_hypertree_width",
    "augmented_hypergraph",
    "GHD_METHODS",
    "fractional_hypertree_decomposition_bounded_degree",
    "check_fhd",
    "fractional_hypertree_width",
    "StrictFHDSearch",
    "width_by_elimination",
    "decomposition_from_ordering",
    "generalized_hypertree_width_exact",
    "fractional_hypertree_width_exact",
    "treewidth_exact",
    "frac_decomp",
    "fractional_part_bound",
    "fhw_approximation",
    "FHWApproximationResult",
    "integralize",
    "oklogk_decomposition",
    "subedge_name",
    "ghd_subedges",
    "fhd_subedges",
    "bip_subedges",
    "bmip_subedges",
    "limit_subedges",
    "union_intersection_tree",
    "UnionIntersectionNode",
    "critical_path",
    "intersection_forest",
    "IntersectionForestNode",
    "forest_fringe",
]

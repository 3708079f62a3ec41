"""repro — General and Fractional Hypertree Decompositions: Hard and Easy
Cases (Fischl, Gottlob, Pichler; PODS 2018).

A complete reproduction of the paper's systems:

* hypergraphs, [C]-components, duality, structural restrictions
  (BIP / BMIP / BDP / VC dimension)                     — :mod:`repro.hypergraph`
* (fractional) edge covers, transversals, LP certificates — :mod:`repro.covers`
* HD / GHD / FHD objects, validators, transformations,
  block stitching                                        — :mod:`repro.decomposition`
* Check(HD,k), Check(GHD,k), Check(FHD,k), exact oracles,
  the Section 6 approximation schemes                    — :mod:`repro.algorithms`
* the reduce → split → solve → stitch instance pipeline
  behind every width query (:class:`WidthSolver`), plus
  batched multi-instance serving (:func:`solve_many`)    — :mod:`repro.pipeline`
* a crash-tolerant persistent result store (settled
  verdicts, witnesses and oracle caches survive restarts) — :mod:`repro.store`
* the always-on ``repro serve`` daemon: HTTP front-end
  with admission control and request coalescing           — :mod:`repro.serve`
* the Theorem 3.2 NP-hardness reduction + certificates   — :mod:`repro.hardness`
* conjunctive queries and CSPs (the applications)        — :mod:`repro.cqcsp`

Quickstart::

    from repro import Hypergraph, hypertree_width, fractional_hypertree_width

    h = Hypergraph({"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]})
    hw, hd = hypertree_width(h)            # 2 and a witness HD
    fhw, fhd = fractional_hypertree_width(h)   # 1.5 and a witness FHD
"""

from .algorithms import (
    FHWApproximationResult,
    check_fhd,
    check_ghd,
    check_hd,
    fhw_approximation,
    frac_decomp,
    fractional_hypertree_decomposition_bounded_degree,
    fractional_hypertree_width,
    fractional_hypertree_width_exact,
    generalized_hypertree_decomposition,
    generalized_hypertree_width,
    generalized_hypertree_width_exact,
    hypertree_decomposition,
    hypertree_width,
    integralize,
    treewidth_exact,
)
from .covers import (
    FractionalCover,
    edge_cover_number,
    fractional_edge_cover,
    fractional_edge_cover_number,
)
from .cqcsp import (
    CSP,
    ConjunctiveQuery,
    QueryPlanner,
    Relation,
    answer_query,
    parse_cq,
)
from .decomposition import Decomposition, is_fhd, is_ghd, is_hd, validate
from .hardness import CNF, build_reduction
from .hypergraph import (
    Hypergraph,
    degree,
    intersection_width,
    multi_intersection_width,
    vc_dimension,
)
from .paper_artifacts import (
    example_4_3_hypergraph,
    figure_5_hd,
    figure_6a_ghd,
    figure_6b_ghd,
)
from .pipeline import (
    BatchRequest,
    BatchResult,
    BatchScheduler,
    BatchStats,
    WidthSolver,
    solve_many,
    solve_width,
)
from .store import ResultStore

#: Single source of truth for the package version: ``pyproject.toml``
#: reads this attribute at build time (``[tool.setuptools.dynamic]``)
#: and ``tests/test_docs.py`` pins the agreement, so the version can
#: never fork between the package, the build metadata and the docs.
__version__ = "1.7.0"

__all__ = [
    "__version__",
    "WidthSolver",
    "solve_width",
    "solve_many",
    "BatchRequest",
    "BatchResult",
    "BatchScheduler",
    "BatchStats",
    "ResultStore",
    "Hypergraph",
    "degree",
    "intersection_width",
    "multi_intersection_width",
    "vc_dimension",
    "FractionalCover",
    "fractional_edge_cover",
    "fractional_edge_cover_number",
    "edge_cover_number",
    "Decomposition",
    "validate",
    "is_ghd",
    "is_hd",
    "is_fhd",
    "hypertree_decomposition",
    "hypertree_width",
    "check_hd",
    "generalized_hypertree_decomposition",
    "generalized_hypertree_width",
    "generalized_hypertree_width_exact",
    "check_ghd",
    "fractional_hypertree_decomposition_bounded_degree",
    "fractional_hypertree_width",
    "fractional_hypertree_width_exact",
    "check_fhd",
    "treewidth_exact",
    "frac_decomp",
    "fhw_approximation",
    "FHWApproximationResult",
    "integralize",
    "CNF",
    "build_reduction",
    "ConjunctiveQuery",
    "parse_cq",
    "Relation",
    "QueryPlanner",
    "answer_query",
    "CSP",
    "example_4_3_hypergraph",
    "figure_5_hd",
    "figure_6a_ghd",
    "figure_6b_ghd",
]

"""Check(GHD, k) via subedge augmentation (Section 4).

The tractable cases of Theorem 4.11 / Corollary 4.14 / Theorem 4.15 all
follow one recipe:

1. compute a subedge set ``f(H,k)`` that contains ``e ∩ B_u`` for every
   cover edge e and bag ``B_u`` of every bag-maximal width-k GHD of H;
2. run Check(HD,k) on ``H' = (V, E ∪ f(H,k))``;
3. map the HD's cover edges back to originator edges of H — bags are
   untouched, so the result is a GHD of H of the same width.

Soundness of a returned decomposition is certified by re-validation;
completeness holds whenever the subedge generator is complete, which the
fixpoint generator is under BIP/BMIP-style boundedness (see
:mod:`repro.algorithms.subedges`).
"""

from __future__ import annotations

from ..decomposition import Decomposition, project_to_original, validate
from ..hypergraph import Hypergraph
from ..pipeline.batch import GHD_CAPS, request_params, solve_many
from .hd import _hypertree_decomposition_direct
from .subedges import bip_subedges, bmip_subedges, ghd_subedges, limit_subedges

__all__ = [
    "generalized_hypertree_decomposition",
    "check_ghd",
    "generalized_hypertree_width",
    "augmented_hypergraph",
    "GHD_METHODS",
]

#: Valid ``method=`` arguments of the Check(GHD, k) subedge generators.
GHD_METHODS = tuple(GHD_CAPS)


def augmented_hypergraph(
    hypergraph: Hypergraph, k: int, method: str = "fixpoint", **caps
) -> Hypergraph:
    """``H' = (V(H), E(H) ∪ f(H,k))`` for the chosen subedge generator.

    Methods: ``"fixpoint"`` (exact under bounded multi-intersections,
    default), ``"bip"`` (the closed form of Theorem 4.15), ``"bmip"``
    (the depth-truncated Theorem 4.11 construction; pass ``c``),
    ``"limit"`` (f⁺ of [3, 28]; exact for any H but exponential in edge
    sizes).
    """
    if method == "fixpoint":
        subedges = ghd_subedges(hypergraph, k, **caps)
    elif method == "bip":
        subedges = bip_subedges(hypergraph, k, **caps)
    elif method == "bmip":
        subedges = bmip_subedges(hypergraph, k, **caps)
    elif method == "limit":
        subedges = limit_subedges(hypergraph, **caps)
    else:
        raise ValueError(f"method must be one of {GHD_METHODS}")
    return hypergraph.with_edges(subedges)


def _generalized_hypertree_decomposition_direct(
    hypergraph: Hypergraph, k: int, method: str = "fixpoint", **caps
) -> Decomposition | None:
    """Check(GHD,k) on one block: the pipeline's ``check-ghd`` core."""
    if k == 1:
        # ghw = 1 iff H is α-acyclic: the GYO fast path answers directly.
        from ..hypergraph.acyclicity import join_tree

        tree = join_tree(hypergraph)
        if tree is not None:
            validate(hypergraph, tree, kind="ghd", width=1)
        return tree
    augmented = augmented_hypergraph(hypergraph, k, method=method, **caps)
    hd = _hypertree_decomposition_direct(augmented, k)
    if hd is None:
        return None
    ghd = project_to_original(hypergraph, augmented, hd)
    validate(hypergraph, ghd, kind="ghd", width=k)
    return ghd


def generalized_hypertree_decomposition(
    hypergraph: Hypergraph,
    k: int,
    method: str = "fixpoint",
    preprocess: str = "full",
    jobs: int | None = None,
    bounds: str = "portfolio",
    **caps,
) -> Decomposition | None:
    """Solve Check(GHD,k): a GHD of H of width <= k, or None.

    Runs the reduce → split → solve → stitch pipeline
    (``preprocess="none"`` solves one unreduced block; ``jobs=N``
    solves biconnected blocks in parallel).  A non-None
    result is re-validated against Definition 2.4 on the original
    hypergraph, so "yes" answers are certified unconditionally.  "No"
    answers are correct whenever the chosen subedge generator is
    complete for H (always for ``"limit"``; for ``"fixpoint"`` whenever
    it terminates within its cap, which the BIP/BMIP guarantees).
    """
    params = request_params("check-ghd", {"k": k, "method": method, **caps})
    if k == 1 and hypergraph.num_edges:
        # Keep the GYO fast path on the whole hypergraph: the join tree
        # itself (one node per edge) is the canonical witness.
        return _generalized_hypertree_decomposition_direct(hypergraph, k)
    return solve_many(
        [(hypergraph, "check-ghd", params)],
        preprocess=preprocess, jobs=jobs, bounds=bounds,
    )[0].unwrap()


def check_ghd(
    hypergraph: Hypergraph, k: int, method: str = "fixpoint", **options
) -> bool:
    """Decision version of Check(GHD,k)."""
    return (
        generalized_hypertree_decomposition(hypergraph, k, method, **options)
        is not None
    )


def generalized_hypertree_width(
    hypergraph: Hypergraph,
    kmax: int | None = None,
    method: str = "fixpoint",
    preprocess: str = "full",
    jobs: int | None = None,
    bounds: str = "portfolio",
    **caps,
) -> tuple[int, Decomposition]:
    """``ghw(H)`` with a witness, iterating Check(GHD,k) for k = 1, 2, ...

    For k = 1 this is hypergraph acyclicity (ghw(H) = 1 iff H is acyclic),
    handled by the same machinery since hw = ghw = 1 coincide.  The
    pipeline reduces the instance and iterates k per biconnected block
    (``jobs=N`` adds cross-block and cross-k parallelism;
    ``preprocess="none"`` iterates on one unreduced block).
    """
    return solve_many(
        [(hypergraph, "ghw", {"kmax": kmax, "method": method, **caps})],
        preprocess=preprocess, jobs=jobs, bounds=bounds,
    )[0].unwrap()

"""Check(FHD, k) for bounded-degree hypergraphs (Section 5, Theorem 5.2).

Theorem 5.22 reduces Check(FHD,k) on a degree-d hypergraph H to a search
for a *strict* HD of ``H' = H ∪ h_{d,k}(H)`` of width <= k·d whose cover
hypergraphs ``H_{λ_u}`` all satisfy ``ρ*(H_{λ_u}) <= k``:

* Lemma 5.6 (via Füredi / Corollary 5.5) bounds optimal cover supports by
  k·d, so covers can be guessed as plain edge sets;
* Lemma 5.17's subedge function ``h_{d,k}`` makes strict FHDs (bags equal
  to ``⋃ supp(γ_u)``) exist whenever any width-k FHD does;
* the modified ``k-decomp`` of the Theorem 5.2 proof adds two per-guess
  checks: strictness ``⋃S ⊆ B(λ_r) ∪ treecomp(u)`` and ``ρ*(H_λ) <= k``.

On success the strict HD is converted back to an FHD of H: each node's γ
is the optimal fractional cover of ``⋃S`` by the edges of S, with subedge
weights moved to originator edges of H.
"""

from __future__ import annotations

import math

from ..covers import EPS
from ..decomposition import Decomposition, project_to_original, validate
from ..engine import oracle_for
from ..hypergraph import Hypergraph, degree as degree_of
from ..pipeline.batch import solve_many
from .elimination import fractional_hypertree_width_exact
from .hd import HDSearch
from .subedges import fhd_subedges

__all__ = [
    "StrictFHDSearch",
    "fractional_hypertree_decomposition_bounded_degree",
    "check_fhd",
    "fractional_hypertree_width",
]


class StrictFHDSearch(HDSearch):
    """The modified ``k-decomp`` of the Theorem 5.2 proof.

    Runs on the augmented hypergraph H' with cover-size bound ``k·d`` and
    two extra admissibility checks per guessed S:

    * strictness — ``⋃S ⊆ V(R) ∪ C_r`` (so bags equal ``⋃S``);
    * ``ρ*`` check — the vertex set ``⋃S`` has a fractional cover of
      weight <= k using only the edges of S (answered by the shared
      :class:`~repro.engine.oracle.CoverOracle`, so repeated guesses
      never re-solve the LP).

    States are memoized on ``(C_r, R)`` because strictness genuinely
    depends on the parent's cover, not just the frontier.
    """

    def __init__(
        self, augmented: Hypergraph, k: float, max_support: int
    ) -> None:
        super().__init__(augmented, max(1, int(math.floor(max_support))))
        self.k_fractional = float(k)
        # Per-search memo, keyed by the cover int: one ρ* check per
        # distinct cover set is part of the polynomial-time guarantee and
        # must hold even when the shared oracle cache is disabled or
        # evicting.  With the cache enabled the oracle additionally
        # shares verdict LPs across searches.
        self._rho_cache: dict[int, bool] = {}

    def state_key(self, component, parent_cover, frontier):
        return (component, parent_cover)

    def admissible(self, cover, component, frontier, parent_cover):
        ctx = self.context
        union = ctx.union(cover)
        if union & ~(ctx.union(parent_cover) | component):
            return False  # strictness would fail: B_u must be ⋃S
        verdict = self._rho_cache.get(cover)
        if verdict is None:
            verdict = self._rho_cache[cover] = self.oracle.cover_feasible_within(
                ctx.vertices_in(union),
                self.k_fractional,
                allowed_edges=ctx.edges_in(cover),
            )
        return verdict


def _fractional_hypertree_decomposition_bounded_degree_direct(
    hypergraph: Hypergraph,
    k: float,
    d: int | None = None,
    **caps,
) -> Decomposition | None:
    """Check(FHD,k) on one block: the pipeline's ``check-fhd-bd`` core."""
    if d is None:
        d = degree_of(hypergraph)
    augmented = hypergraph.with_edges(
        fhd_subedges(hypergraph, int(math.ceil(k)), d=d, **caps)
    )
    search = StrictFHDSearch(augmented, k, max_support=k * d)
    strict_hd = search.run()
    if strict_hd is None:
        return None

    # Replace each λ_u by the optimal fractional cover of ⋃S_u using S_u,
    # then push subedge weights to originators of H (Theorem 5.22, 2 ⇒ 1).
    oracle = oracle_for(augmented)
    nodes = []
    for nid in strict_hd.node_ids:
        support = strict_hd.cover(nid).support
        bag = strict_hd.bag(nid)
        gamma = oracle.fractional_cover(bag, allowed_edges=support)
        assert gamma is not None and gamma.weight <= k + EPS
        nodes.append((nid, bag, gamma))
    fractional = Decomposition(
        nodes,
        parent={
            nid: strict_hd.parent(nid)
            for nid in strict_hd.node_ids
            if strict_hd.parent(nid) is not None
        },
        root=strict_hd.root,
    )
    fhd = project_to_original(hypergraph, augmented, fractional)
    validate(hypergraph, fhd, kind="fhd", width=k + EPS)
    return fhd


def fractional_hypertree_decomposition_bounded_degree(
    hypergraph: Hypergraph,
    k: float,
    d: int | None = None,
    preprocess: str = "full",
    jobs: int | None = None,
    bounds: str = "portfolio",
    **caps,
) -> Decomposition | None:
    """Solve Check(FHD,k) under the BDP (Theorem 5.2): an FHD of width
    <= k, or None.

    ``d`` defaults to ``degree(H)`` (per block under the pipeline, which
    never exceeds the input's degree).  A non-None answer is
    re-validated as an FHD of the original H of width <= k.  The subedge
    generator ``h_{d,k}`` is parameterized by caps (see
    :func:`repro.algorithms.subedges.fhd_subedges`); within those caps
    the search is complete per Lemmas 5.6/5.17/5.21.
    ``preprocess="none"`` runs the strict-HD search on one unreduced
    block.
    """
    return solve_many(
        [(hypergraph, "check-fhd-bd", {"k": k, "d": d, **caps})],
        preprocess=preprocess, jobs=jobs, bounds=bounds,
    )[0].unwrap()


def check_fhd(hypergraph: Hypergraph, k: float, **options) -> bool:
    """Decision version of Check(FHD,k) under bounded degree."""
    return (
        fractional_hypertree_decomposition_bounded_degree(
            hypergraph, k, **options
        )
        is not None
    )


def fractional_hypertree_width(
    hypergraph: Hypergraph, vertex_limit: int = 18, **options
) -> tuple[float, Decomposition]:
    """``fhw(H)`` with a witness FHD.

    Delegates to the exact elimination oracle — the general problem is
    NP-hard even for fixed k = 2 (Theorem 3.2, Main Result 1), so exact
    computation is exponential by necessity (though the pipeline applies
    the 2^n limit per biconnected block).  Use
    :func:`fractional_hypertree_decomposition_bounded_degree` for the
    polynomial bounded-degree special case.
    """
    return fractional_hypertree_width_exact(hypergraph, vertex_limit, **options)

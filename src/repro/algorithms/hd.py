"""Check(HD, k): the ``k-decomp`` algorithm of Gottlob, Leone & Scarcello.

The paper's positive results (Theorems 4.11, 4.15, 5.2, 6.1) all reduce the
problem at hand to hypertree decomposition search, which is polynomial for
fixed k [27].  The search itself is the generic Check(X, k) skeleton of
:class:`repro.engine.search.CheckSearch` — a deterministic, memoized
version of the alternating ``k-decomp`` algorithm running on the shared
:class:`~repro.engine.context.SearchContext` (memoized components,
frontiers and edge unions):

* a search state is a pair ``(C_r, R)`` of an open component and the
  parent's cover edges;
* at each state a set ``S`` of at most k edges is guessed such that
  (a) every edge e of the component satisfies ``e ∩ V(R) ⊆ V(S)``
  (equivalently the *frontier* ``V(R) ∩ ⋃ edges(C_r)`` is inside ``V(S)``)
  and (b) ``V(S)`` meets the component;
* the ``[V(S)]``-components inside ``C_r`` are solved recursively.

For plain HDs the acceptance of a state depends on ``R`` only through the
frontier, so states are memoized on ``(C_r, frontier)``; subclasses that
need the full parent cover (the strict search of Theorem 5.22) override
:meth:`CheckSearch.state_key`.

On acceptance the witness tree is rebuilt top-down with bags
``B_u = V(S_u) ∩ (B_r ∪ C_u)`` — this makes the special condition hold by
construction — and re-validated by :mod:`repro.decomposition.validation`.
"""

from __future__ import annotations

from ..decomposition import Decomposition, validate
from ..engine import CheckSearch
from ..hypergraph import Hypergraph
from ._pipeline import via_pipeline

__all__ = [
    "hypertree_decomposition",
    "check_hd",
    "hypertree_width",
    "HDSearch",
]


class HDSearch(CheckSearch):
    """Check(HD, k): the plain instantiation of the engine skeleton.

    All the machinery lives in :class:`repro.engine.search.CheckSearch`;
    this subclass exists as the named HD entry point and the base of the
    strict FHD search (Theorem 5.22), which overrides the hooks
    :meth:`~CheckSearch.admissible` and :meth:`~CheckSearch.state_key`.
    """


def _hypertree_decomposition_direct(
    hypergraph: Hypergraph, k: int
) -> Decomposition | None:
    """Check(HD,k) on the raw hypergraph (no preprocessing pipeline)."""
    result = HDSearch(hypergraph, k).run()
    if result is not None:
        validate(hypergraph, result, kind="hd", width=k)
    return result


def hypertree_decomposition(
    hypergraph: Hypergraph,
    k: int,
    preprocess: str = "full",
    jobs: int | None = None,
    bounds: str | None = None,
) -> Decomposition | None:
    """Solve Check(HD,k): an HD of width <= k, or None.

    Runs through the reduce → split → solve → stitch pipeline
    (hd-safe rules, connected-component splitting) unless
    ``preprocess="none"``.  The returned decomposition
    is re-validated against Definition 2.5 (including the special
    condition) on the original hypergraph, so a non-None result is a
    certified "yes" instance.
    """
    if k < 1:
        raise ValueError("width bound k must be >= 1")
    return via_pipeline(
        hypergraph,
        "hypertree_decomposition",
        _hypertree_decomposition_direct,
        preprocess,
        jobs,
        k,
        bounds=bounds,
    )


def check_hd(hypergraph: Hypergraph, k: int, **options) -> bool:
    """Decision version of Check(HD,k)."""
    return hypertree_decomposition(hypergraph, k, **options) is not None


def _hypertree_width_direct(
    hypergraph: Hypergraph, kmax: int | None = None
) -> tuple[int, Decomposition]:
    """The raw k = 1, 2, ... loop on the whole hypergraph."""
    cap = hypergraph.num_edges if kmax is None else kmax
    for k in range(1, cap + 1):
        decomposition = _hypertree_decomposition_direct(hypergraph, k)
        if decomposition is not None:
            return k, decomposition
    raise ValueError(f"no HD of width <= {cap} found (cap too small?)")


def hypertree_width(
    hypergraph: Hypergraph,
    kmax: int | None = None,
    preprocess: str = "full",
    jobs: int | None = None,
    bounds: str | None = None,
) -> tuple[int, Decomposition]:
    """``hw(H)`` with a witness, by iterating Check(HD,k) for k = 1, 2, ...

    ``kmax`` defaults to ``|E(H)|`` (always sufficient: a single node with
    all edges is an HD).  Raises if no width within the cap is found.
    By default each connected component is reduced and solved separately
    through the pipeline (``preprocess="none"`` restores the raw loop;
    ``jobs=N`` parallelizes across components and candidate widths).
    """
    return via_pipeline(
        hypergraph,
        "hypertree_width",
        _hypertree_width_direct,
        preprocess,
        jobs,
        kmax,
        bounds=bounds,
    )

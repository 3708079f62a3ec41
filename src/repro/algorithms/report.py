"""One-call width reports: every width, bound and property of a hypergraph.

``width_report(H)`` routes to the right engine per measure and instance
size: exact oracles on small instances, heuristic sandwiches beyond them,
the GYO fast path for acyclicity — and returns a plain dataclass that the
CLI, the experiments and downstream users can render or serialize.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..hypergraph import (
    Hypergraph,
    degree,
    intersection_width,
    is_alpha_acyclic,
    multi_intersection_width,
    rank,
    vc_dimension,
)
from .elimination import (
    fractional_hypertree_width_exact,
    generalized_hypertree_width_exact,
)
from .hd import hypertree_width
from .heuristics import width_bounds
from .separators import ghw_balance_lower_bound

__all__ = ["WidthReport", "width_report"]

#: Above this many vertices, the exponential exact oracles give way to bounds.
EXACT_LIMIT = 14


@dataclass(frozen=True)
class WidthReport:
    """Structural profile plus widths (exact or bracketed).

    ``ghw`` / ``fhw`` carry exact values when ``exact`` is True, else the
    midpoint of the (lower, upper) brackets, which are always populated.
    ``hw`` is exact whenever it was computed (None beyond the cap).
    """

    name: str | None
    vertices: int
    edges: int
    rank: int
    degree: int
    iwidth: int
    miwidth3: int
    vc: int | None
    acyclic: bool
    exact: bool
    hw: int | None
    ghw_lower: float
    ghw_upper: float
    fhw_lower: float
    fhw_upper: float

    @property
    def ghw(self) -> float:
        return (self.ghw_lower + self.ghw_upper) / 2

    @property
    def fhw(self) -> float:
        return (self.fhw_lower + self.fhw_upper) / 2

    def as_dict(self) -> dict:
        return asdict(self)


def width_report(
    hypergraph: Hypergraph,
    exact_limit: int = EXACT_LIMIT,
    hw_cap: int = 4,
    compute_vc: bool = True,
) -> WidthReport:
    """The full profile of a hypergraph, sized to the instance.

    * ``|V| <= exact_limit``: ghw and fhw from the exact oracles
      (brackets collapse), hw from ``k-decomp`` up to ``hw_cap``.
    * larger instances: clique + balance lower bounds and heuristic upper
      bounds; hw is skipped (None) unless the instance is acyclic.
    """
    acyclic = is_alpha_acyclic(hypergraph)
    vc = (
        vc_dimension(hypergraph)
        if compute_vc and hypergraph.num_vertices <= 24
        else None
    )
    common = dict(
        name=hypergraph.name,
        vertices=hypergraph.num_vertices,
        edges=hypergraph.num_edges,
        rank=rank(hypergraph),
        degree=degree(hypergraph),
        iwidth=intersection_width(hypergraph),
        miwidth3=multi_intersection_width(hypergraph, 3),
        vc=vc,
        acyclic=acyclic,
    )

    if acyclic:
        return WidthReport(
            **common, exact=True, hw=1,
            ghw_lower=1.0, ghw_upper=1.0, fhw_lower=1.0, fhw_upper=1.0,
        )

    if hypergraph.num_vertices <= exact_limit:
        ghw, _g = generalized_hypertree_width_exact(hypergraph)
        fhw, _f = fractional_hypertree_width_exact(hypergraph)
        try:
            hw, _h = hypertree_width(hypergraph, kmax=hw_cap)
        except ValueError:
            hw = None
        return WidthReport(
            **common, exact=True, hw=hw,
            ghw_lower=float(ghw), ghw_upper=float(ghw),
            fhw_lower=fhw, fhw_upper=fhw,
        )

    fhw_lower, fhw_upper, _w = width_bounds(hypergraph, cost="fractional")
    ghw_lower, ghw_upper, _w2 = width_bounds(hypergraph, cost="integral")
    ghw_lower = float(
        max(ghw_balance_lower_bound(hypergraph, kmax=3), ghw_lower)
    )
    return WidthReport(
        **common, exact=False, hw=None,
        ghw_lower=ghw_lower, ghw_upper=float(ghw_upper),
        fhw_lower=fhw_lower, fhw_upper=fhw_upper,
    )

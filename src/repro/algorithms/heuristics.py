"""Heuristic width bounds for hypergraphs beyond the exact oracles' range.

The exact elimination search of :mod:`repro.algorithms.elimination` is
limited to 18 vertices by default ([42]-style exactness may cost 2^n).  Real CQ/CSP
workloads are larger, so practical systems (detkdecomp, BalancedGo, the
paper's own experiments in [23]) pair exact methods with elimination
*heuristics*.  This module provides:

* :func:`min_degree_ordering` / :func:`min_fill_ordering` — the two
  classic elimination heuristics on the primal graph (``min_degree``
  optionally with a seeded random tiebreak, the cheap restart knob the
  bounds pre-pass portfolio in :mod:`repro.pipeline.bounds` turns);
* :func:`portfolio_orderings` — the ordering portfolio: both classics
  plus deterministic randomized-tiebreak restarts;
* :func:`evaluate_ordering` — one ordering turned into a decomposition
  with measure-specific covers through a shared
  :class:`~repro.engine.oracle.CoverOracle`;
* :func:`heuristic_decomposition` — a valid GHD/FHD built from a
  heuristic ordering (an *upper* bound on ghw/fhw, always re-validated);
* :func:`clique_lower_bound` — Lemma 2.8 turned into a *lower* bound:
  every clique of the primal graph must fit in one bag, so
  ``fhw(H) >= max_C ρ*_H(C)`` over cliques C (greedily grown cliques
  give a cheap, sound bound);
* :func:`minor_width_lower_bound` — the minor-min-width treewidth lower
  bound (Gogate & Dechter 2004): every GHD/FHD is a tree decomposition
  of the primal graph, so some bag holds ``tw + 1`` vertices, and an
  edge covers at most ``r`` (the rank) of them — that bag costs at
  least ``(tw + 1) / r``;
* :func:`width_lower_bound` — the combined lower bound every consumer
  reports: clique cover ∨ (minor-width + 1) / r, rounded up for the
  integral measures;
* :func:`width_bounds` — the sandwich (lower, upper) a practical system
  reports when exactness is out of reach.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterator

from ..covers import FractionalCover
from ..decomposition import Decomposition, validate
from ..engine import CoverOracle, oracle_for
from ..hypergraph import Hypergraph, Vertex, rank
from ..pipeline.batch import solve_many
from .elimination import decomposition_from_ordering

__all__ = [
    "min_degree_ordering",
    "min_fill_ordering",
    "portfolio_orderings",
    "evaluate_ordering",
    "heuristic_decomposition",
    "clique_lower_bound",
    "minor_width_lower_bound",
    "width_lower_bound",
    "width_bounds",
    "DEFAULT_RESTARTS",
]

#: Randomized-tiebreak restarts the ordering portfolio runs on top of
#: the two deterministic classics (seeds are fixed, so the portfolio
#: stays reproducible).
DEFAULT_RESTARTS = 2


def _eliminate(adjacency: dict[Vertex, set], vertex: Vertex) -> None:
    """Remove ``vertex``, connecting its neighbours into a clique."""
    neighbours = adjacency.pop(vertex)
    for u in neighbours:
        adjacency[u].discard(vertex)
    for u in neighbours:
        for w in neighbours:
            if u != w:
                adjacency[u].add(w)


def min_degree_ordering(
    hypergraph: Hypergraph, rng: random.Random | None = None
) -> list[Vertex]:
    """Eliminate a minimum-degree vertex of the fill graph at each step.

    With ``rng`` the tie between equal-degree vertices is broken
    randomly instead of lexicographically — the restart knob of the
    ordering portfolio (a seeded ``random.Random`` keeps the ordering
    reproducible).
    """
    adjacency = {
        v: set(nbrs) for v, nbrs in hypergraph.primal_graph().items()
    }
    order: list[Vertex] = []
    if rng is None:
        tiebreak = lambda u: (len(adjacency[u]), str(u))  # noqa: E731
    else:
        tiebreak = lambda u: (len(adjacency[u]), rng.random(), str(u))  # noqa: E731
    while adjacency:
        v = min(adjacency, key=tiebreak)
        order.append(v)
        _eliminate(adjacency, v)
    return order


def min_fill_ordering(hypergraph: Hypergraph) -> list[Vertex]:
    """Eliminate the vertex adding the fewest fill edges at each step."""
    adjacency = {
        v: set(nbrs) for v, nbrs in hypergraph.primal_graph().items()
    }

    def fill_cost(v: Vertex) -> int:
        nbrs = sorted(adjacency[v], key=str)
        return sum(
            1
            for i, u in enumerate(nbrs)
            for w in nbrs[i + 1:]
            if w not in adjacency[u]
        )

    order: list[Vertex] = []
    while adjacency:
        v = min(adjacency, key=lambda u: (fill_cost(u), str(u)))
        order.append(v)
        _eliminate(adjacency, v)
    return order


_ORDERINGS: dict[str, Callable[[Hypergraph], list[Vertex]]] = {
    "min-degree": min_degree_ordering,
    "min-fill": min_fill_ordering,
}


def portfolio_orderings(
    hypergraph: Hypergraph,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> Iterator[tuple[str, list[Vertex]]]:
    """The ordering portfolio: classics first, then seeded restarts.

    Yields ``(name, ordering)`` pairs — ``min-degree`` and ``min-fill``
    followed by ``restarts`` randomized-tiebreak min-degree orderings.
    The restarts draw from ``random.Random`` seeded deterministically
    from ``seed``, so the portfolio (and everything built on it, like
    the bounds pre-pass) is reproducible run to run.
    """
    yield "min-degree", min_degree_ordering(hypergraph)
    yield "min-fill", min_fill_ordering(hypergraph)
    for restart in range(max(0, int(restarts))):
        rng = random.Random(f"{seed}:{restart}")
        yield f"min-degree-r{restart}", min_degree_ordering(hypergraph, rng)


def evaluate_ordering(
    hypergraph: Hypergraph,
    order: list[Vertex],
    cost: str = "fractional",
    oracle: CoverOracle | None = None,
) -> tuple[float, Decomposition]:
    """Finish one elimination ordering with measure-specific covers.

    Builds the clique-tree decomposition induced by ``order`` and
    covers every bag through ``oracle`` (the hypergraph's shared
    :class:`~repro.engine.oracle.CoverOracle` when not given, so
    repeated bags — across orderings, across the exact search that
    follows — hit one cache domain instead of re-deriving covers).
    ``cost`` selects the measure: ``"fractional"`` (fhw) or
    ``"integral"`` (ghw/hw).  The result is *not* validated here;
    callers pick the validation kind.
    """
    if cost not in ("fractional", "integral"):
        raise ValueError("cost must be 'fractional' or 'integral'")
    if oracle is None:
        oracle = oracle_for(hypergraph)

    def cover_for_bag(bag: frozenset) -> FractionalCover:
        if cost == "fractional":
            cover = oracle.fractional_cover(bag)
        else:
            cover = oracle.integral_cover(bag)
        assert cover is not None  # bags contain no isolated vertices
        return cover

    decomposition = decomposition_from_ordering(
        hypergraph, order, cover_for_bag
    )
    return decomposition.width(), decomposition


def _heuristic_decomposition_direct(
    hypergraph: Hypergraph,
    cost: str = "fractional",
    ordering: str = "min-fill",
    oracle: CoverOracle | None = None,
) -> tuple[float, Decomposition]:
    """Heuristic decomposition of one block (the pipeline's core)."""
    order = _ORDERINGS[ordering](hypergraph)
    width, decomposition = evaluate_ordering(
        hypergraph, order, cost=cost, oracle=oracle
    )
    kind = "fhd" if cost == "fractional" else "ghd"
    validate(hypergraph, decomposition, kind=kind, width=width + 1e-9)
    return width, decomposition


def heuristic_decomposition(
    hypergraph: Hypergraph,
    cost: str = "fractional",
    ordering: str = "min-fill",
    preprocess: str = "full",
    jobs: int | None = None,
) -> tuple[float, Decomposition]:
    """A valid decomposition from a heuristic elimination ordering.

    ``cost`` selects the bag covers: ``"fractional"`` (FHD; width is an
    upper bound on fhw) or ``"integral"`` (GHD; upper bound on ghw).
    The pipeline (default) reduces the instance and runs the ordering
    per biconnected block — smaller fill graphs, tighter bags —
    and the stitched result is re-validated against the original
    hypergraph, so the width really is achieved.
    """
    return solve_many(
        [(hypergraph, "heuristic-decomposition",
          {"cost": cost, "ordering": ordering})],
        preprocess=preprocess, jobs=jobs,
    )[0].unwrap()


def clique_lower_bound(
    hypergraph: Hypergraph,
    cost: str = "fractional",
    attempts: int = 8,
    oracle: CoverOracle | None = None,
) -> float:
    """A sound lower bound on fhw (or ghw) from primal-graph cliques.

    By Lemma 2.8 every clique lies inside some bag, and bag covers cost
    at least the clique's (fractional) edge cover number.  Cliques are
    grown greedily from several seed vertices; the best value is
    returned.  Always <= the true width; equals it on cliques and the
    hardness gadgets (where forced cliques drive the construction).
    Cover queries go through ``oracle`` (the hypergraph's shared oracle
    when not given).
    """
    if cost not in ("fractional", "integral"):
        raise ValueError("cost must be 'fractional' or 'integral'")
    adjacency = hypergraph.primal_graph()
    if oracle is None:
        oracle = oracle_for(hypergraph)
    seeds = sorted(
        hypergraph.vertices, key=lambda v: (-len(adjacency[v]), str(v))
    )[:attempts]
    best = 1.0
    for seed in seeds:
        clique = {seed}
        candidates = set(adjacency[seed])
        while candidates:
            v = max(
                candidates,
                key=lambda u: (len(adjacency[u] & candidates), str(u)),
            )
            clique.add(v)
            candidates &= adjacency[v]
        if cost == "fractional":
            cover = oracle.fractional_cover(clique)
        else:
            cover = oracle.integral_cover(clique)
        if cover is not None:
            best = max(best, cover.weight)
    return best


def minor_width_lower_bound(hypergraph: Hypergraph) -> int:
    """The minor-min-width lower bound on the primal graph's treewidth.

    Repeatedly takes a minimum-degree vertex, records its degree and
    contracts it into a neighbour (Gogate & Dechter, UAI 2004).  The
    neighbour is the one sharing the fewest neighbours with it — the
    "least-c" rule, which keeps the most edges (Bodlaender & Koster,
    "Treewidth computations II. Lower bounds", 2011) — then the one of
    smallest degree.  Treewidth never grows under contraction and is at
    least the minimum degree of every graph, so the largest degree
    recorded is a sound lower bound on ``tw``.  Remaining ties break on
    ``str``, so the bound is deterministic.
    """
    adjacency = {
        v: set(nbrs) for v, nbrs in hypergraph.primal_graph().items()
    }
    best = 0
    while adjacency:
        v = min(adjacency, key=lambda u: (len(adjacency[u]), str(u)))
        neighbours = adjacency.pop(v)
        best = max(best, len(neighbours))
        if not neighbours:
            continue
        into = min(
            neighbours,
            key=lambda u: (
                len(adjacency[u] & neighbours), len(adjacency[u]), str(u)
            ),
        )
        for u in neighbours:
            adjacency[u].discard(v)
            if u != into:
                adjacency[u].add(into)
                adjacency[into].add(u)
    return best


def width_lower_bound(
    hypergraph: Hypergraph,
    cost: str = "fractional",
    oracle: CoverOracle | None = None,
) -> float:
    """The combined lower bound on fhw (or ghw, with integral ``cost``).

    ``max(clique, (minor_width_lower_bound + 1) / r)`` where ``r`` is
    the largest edge size: some bag of every GHD/FHD holds at least
    ``tw + 1`` vertices, and each edge covers at most ``r`` of them.
    The integral measures take the ceiling of the second term (ghw is
    an integer).  The bounds pre-pass of :mod:`repro.pipeline.bounds`
    seeds from the same value.
    """
    lower = clique_lower_bound(hypergraph, cost=cost, oracle=oracle)
    if hypergraph.num_edges == 0:
        return lower
    treewidth = minor_width_lower_bound(hypergraph)
    largest_bag = (treewidth + 1) / rank(hypergraph)
    if cost == "integral":
        largest_bag = math.ceil(largest_bag - 1e-9)
    return max(lower, float(largest_bag))


def _width_bounds_direct(
    hypergraph: Hypergraph, cost: str = "fractional"
) -> tuple[float, float, Decomposition]:
    """Heuristic sandwich of one block (the pipeline's core).

    One shared oracle answers every cover query of the sandwich — the
    lower bound's cliques and both ordering finishes — so bags the two
    orderings agree on (and bags a later exact search re-asks) are
    derived once per cache domain.
    """
    oracle = oracle_for(hypergraph)
    lower = width_lower_bound(hypergraph, cost=cost, oracle=oracle)
    best_width = float("inf")
    best_decomposition: Decomposition | None = None
    for ordering in _ORDERINGS:
        width, decomposition = _heuristic_decomposition_direct(
            hypergraph, cost=cost, ordering=ordering, oracle=oracle
        )
        if width < best_width:
            best_width, best_decomposition = width, decomposition
    assert best_decomposition is not None
    return lower, best_width, best_decomposition


def width_bounds(
    hypergraph: Hypergraph,
    cost: str = "fractional",
    preprocess: str = "full",
    jobs: int | None = None,
) -> tuple[float, float, Decomposition]:
    """``(lower, upper, witness)`` for fhw or ghw on large instances.

    Lower bound from :func:`width_lower_bound`, upper from the better
    of the two elimination heuristics; the witness achieves the upper
    bound.  The pipeline (default) computes both per biconnected block
    — each block is width-preserving, so the max of the block lower
    bounds stays a sound lower bound and the stitched witness achieves
    the upper one.
    """
    return solve_many(
        [(hypergraph, "bounds", {"cost": cost})],
        preprocess=preprocess, jobs=jobs,
    )[0].unwrap()

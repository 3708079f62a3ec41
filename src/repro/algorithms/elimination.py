"""Exact ghw / fhw via elimination orderings (the route of [42]).

Both ``ghw`` and ``fhw`` are *monotone* width measures of tree
decompositions of the primal graph: the cost of a bag B is ``ρ_H(B)``
(resp. ``ρ*_H(B)``), which never decreases when B grows.  For any monotone
bag-cost f, an optimal tree decomposition can be taken to be the clique
tree of a chordal completion, and chordal completions correspond to vertex
elimination orderings.  Hence

    f-width(H) = min over orderings π of  max_v  f(bag_π(v)),

where ``bag_π(v)`` is v plus its neighbours among later vertices in the
fill-in graph.  The minimum is computed by the Bodlaender-style dynamic
program over vertex subsets — exponential in |V(H)|, as any exact method
must be by the paper's Theorem 3.2, but exact.  These oracles
cross-validate every polynomial special-case algorithm in this library.

Condition (1) of Definition 2.4 holds automatically: each hyperedge is a
clique of the primal graph, so by the Helly property of subtrees some bag
contains it (Lemma 2.8).
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable

from ..covers import EPS, FractionalCover
from ..decomposition import Decomposition, validate
from ..engine import oracle_for
from ..hypergraph import Hypergraph, Vertex
from ..pipeline.batch import solve_many

__all__ = [
    "width_by_elimination",
    "decomposition_from_ordering",
    "generalized_hypertree_width_exact",
    "fractional_hypertree_width_exact",
    "treewidth_exact",
]

#: Safety cap: 2^18 subsets is the largest DP we allow by default.
DEFAULT_VERTEX_LIMIT = 18


def _reachable_bag(
    adjacency: dict[Vertex, frozenset],
    eliminated: frozenset,
    vertex: Vertex,
) -> frozenset:
    """``{v} ∪ {u ∉ eliminated : path v→u with interior ⊆ eliminated}``.

    This is the bag created when ``vertex`` is eliminated after the set
    ``eliminated`` (its neighbourhood in the fill-in graph).
    """
    bag = {vertex}
    seen = {vertex}
    queue = deque([vertex])
    while queue:
        cur = queue.popleft()
        for nbr in adjacency[cur]:
            if nbr in seen:
                continue
            seen.add(nbr)
            if nbr in eliminated:
                queue.append(nbr)
            else:
                bag.add(nbr)
    return frozenset(bag)


def width_by_elimination(
    hypergraph: Hypergraph,
    bag_cost: Callable[[frozenset], float],
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
    upper: float | None = None,
) -> tuple[float, list[Vertex]]:
    """Minimum over orderings of the max bag cost, plus a witness ordering.

    ``bag_cost`` maps a bag (frozenset of vertices) to its cost; it must
    be monotone under set inclusion for the result to be the true width.
    Raises for hypergraphs above ``vertex_limit`` vertices (2^n DP).

    ``upper`` — a known achievable width, e.g. a validated heuristic
    witness — caps the DP: a prefix costing more than ``upper`` is
    dropped, and so is a bag B with ``|B| > upper · max_e |e ∩ B|``
    without calling ``bag_cost`` (no edge cover of B weighs less than
    ``|B| / max_e |e ∩ B|``, so ``upper`` requires ``bag_cost`` to be an
    edge cover weight: ρ or ρ*).  Every prefix of an optimal ordering
    stays within the cap, so the width and ordering are those of the
    uncapped DP; when the cap is below the width (nothing survives),
    the DP reruns uncapped.
    """
    n = hypergraph.num_vertices
    if n == 0:
        raise ValueError("hypergraph has no vertices")
    if n > vertex_limit:
        raise ValueError(
            f"{n} vertices exceeds the exact-DP limit {vertex_limit}; "
            "raise vertex_limit explicitly if you really want to wait"
        )
    if upper is not None:
        width, ordering = _eliminate_all(hypergraph, bag_cost, upper + EPS)
        if width < math.inf:
            return width, ordering
    return _eliminate_all(hypergraph, bag_cost, math.inf)


def _eliminate_all(
    hypergraph: Hypergraph,
    bag_cost: Callable[[frozenset], float],
    cap: float,
) -> tuple[float, list[Vertex]]:
    """The subset DP of :func:`width_by_elimination`, costs above ``cap``
    counted as infinite (``math.inf``: uncapped)."""
    vertices = sorted(hypergraph.vertices, key=str)
    n = len(vertices)
    adjacency = hypergraph.primal_graph()
    edges = list(hypergraph.edges.values())

    # Per-run memo: the DP revisits the same bag across many masks, and
    # bag_cost may be arbitrarily expensive (an LP or set-cover solve).
    # Oracle-backed callers additionally share results across runs and
    # algorithms, but correctness of this guarantee must not depend on
    # the engine cache being enabled.
    cost_cache: dict[frozenset, float] = {}

    def cached_cost(bag: frozenset) -> float:
        if bag not in cost_cache:
            if cap < math.inf and len(bag) > cap * max(
                len(e & bag) for e in edges
            ):
                cost_cache[bag] = math.inf
            else:
                cost_cache[bag] = bag_cost(bag)
        return cost_cache[bag]

    # best[mask] = minimal possible max-bag-cost of eliminating exactly the
    # vertex set `mask` first (as a prefix of the ordering).
    best: dict[int, float] = {0: 0.0}
    choice: dict[int, int] = {}
    full = (1 << n) - 1

    # Iterate masks in increasing popcount order so predecessors exist.
    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1, full + 1):
        masks_by_size[mask.bit_count()].append(mask)

    for size in range(1, n + 1):
        for mask in masks_by_size[size]:
            best_cost = math.inf
            best_vertex = -1
            for vi in range(n):
                bit = 1 << vi
                if not mask & bit:
                    continue
                prev = mask & ~bit
                prev_cost = best.get(prev, math.inf)
                if prev_cost >= best_cost:
                    continue
                eliminated = frozenset(
                    vertices[j] for j in range(n) if prev & (1 << j)
                )
                bag = _reachable_bag(adjacency, eliminated, vertices[vi])
                total = max(prev_cost, cached_cost(bag))
                if total < best_cost - EPS and total <= cap:
                    best_cost = total
                    best_vertex = vi
            best[mask] = best_cost
            choice[mask] = best_vertex

    if best[full] == math.inf:
        return math.inf, []
    ordering: list[Vertex] = []
    mask = full
    while mask:
        vi = choice[mask]
        ordering.append(vertices[vi])
        mask &= ~(1 << vi)
    ordering.reverse()
    return best[full], ordering


def decomposition_from_ordering(
    hypergraph: Hypergraph,
    ordering: list[Vertex],
    cover_for_bag: Callable[[frozenset], FractionalCover],
) -> Decomposition:
    """Build the clique-tree decomposition induced by an elimination order.

    Node i's bag is ``bag_π(v_i)``; its parent is the node of the earliest
    later-eliminated vertex in its bag (the standard clique-tree link).
    ``cover_for_bag`` supplies λ/γ for each bag (integral or fractional).
    """
    if set(ordering) != set(hypergraph.vertices):
        raise ValueError("ordering must enumerate exactly V(H)")
    adjacency = hypergraph.primal_graph()
    position = {v: i for i, v in enumerate(ordering)}
    bags: list[frozenset] = []
    for i, v in enumerate(ordering):
        eliminated = frozenset(ordering[:i])
        bags.append(_reachable_bag(adjacency, eliminated, v))

    nodes = []
    parent: dict[str, str] = {}
    for i, bag in enumerate(bags):
        nodes.append((f"n{i}", bag, cover_for_bag(bag)))
        later = [position[u] for u in bag if position[u] > i]
        if later:
            parent[f"n{i}"] = f"n{min(later)}"
        elif i != len(bags) - 1:
            # Disconnected hypergraph: attach component roots to the last
            # node so the structure stays a tree (bags are disjoint, so
            # connectedness is unaffected).
            parent[f"n{i}"] = f"n{len(bags) - 1}"
    return Decomposition(nodes, parent=parent, root=f"n{len(bags) - 1}")


def _generalized_hypertree_width_exact_direct(
    hypergraph: Hypergraph,
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
    upper: float | None = None,
) -> tuple[int, Decomposition]:
    """Exact ghw on one block: the pipeline's ``ghw-exact`` core.

    ``upper`` (a known achievable ghw) caps the DP; see
    :func:`width_by_elimination`.
    """
    oracle = oracle_for(hypergraph)

    def cost(bag: frozenset) -> float:
        cover = oracle.integral_cover(bag)
        assert cover is not None  # bags consist of non-isolated vertices
        return cover.weight

    width, ordering = width_by_elimination(
        hypergraph, cost, vertex_limit, upper
    )

    def cover_for_bag(bag: frozenset) -> FractionalCover:
        cover = oracle.integral_cover(bag)
        assert cover is not None
        return cover

    decomposition = decomposition_from_ordering(
        hypergraph, ordering, cover_for_bag
    )
    validate(hypergraph, decomposition, kind="ghd", width=width)
    return int(round(width)), decomposition


def generalized_hypertree_width_exact(
    hypergraph: Hypergraph,
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
    preprocess: str = "full",
    jobs: int | None = None,
    bounds: str = "portfolio",
) -> tuple[int, Decomposition]:
    """Exact ``ghw(H)`` with a witness GHD (exponential-time oracle).

    Under the pipeline (default) the reduction rules shrink the instance
    and the 2^n elimination DP runs per biconnected block, so
    ``vertex_limit`` bounds the largest *block*, not the whole
    hypergraph.  ``preprocess="none"`` runs the DP on one unreduced block.
    """
    return solve_many(
        [(hypergraph, "ghw-exact", {"vertex_limit": vertex_limit})],
        preprocess=preprocess, jobs=jobs, bounds=bounds,
    )[0].unwrap()


def _fractional_hypertree_width_exact_direct(
    hypergraph: Hypergraph,
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
    upper: float | None = None,
) -> tuple[float, Decomposition]:
    """Exact fhw on one block: the pipeline's ``fhw-exact`` core.

    ``upper`` (a known achievable fhw) caps the DP; see
    :func:`width_by_elimination`.
    """
    oracle = oracle_for(hypergraph)

    def cost(bag: frozenset) -> float:
        cover = oracle.fractional_cover(bag)
        assert cover is not None
        return cover.weight

    width, ordering = width_by_elimination(
        hypergraph, cost, vertex_limit, upper
    )

    def cover_for_bag(bag: frozenset) -> FractionalCover:
        cover = oracle.fractional_cover(bag)
        assert cover is not None
        return cover

    decomposition = decomposition_from_ordering(
        hypergraph, ordering, cover_for_bag
    )
    validate(hypergraph, decomposition, kind="fhd", width=width + EPS)
    return width, decomposition


def fractional_hypertree_width_exact(
    hypergraph: Hypergraph,
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
    preprocess: str = "full",
    jobs: int | None = None,
    bounds: str = "portfolio",
) -> tuple[float, Decomposition]:
    """Exact ``fhw(H)`` with a witness FHD (exponential-time oracle).

    Under the pipeline (default) the reduction rules shrink the instance
    and the 2^n elimination DP runs per biconnected block, so
    ``vertex_limit`` bounds the largest *block*, not the whole
    hypergraph.  ``preprocess="none"`` runs the DP on one unreduced block.
    """
    return solve_many(
        [(hypergraph, "fhw", {"vertex_limit": vertex_limit})],
        preprocess=preprocess, jobs=jobs, bounds=bounds,
    )[0].unwrap()


def treewidth_exact(
    hypergraph: Hypergraph, vertex_limit: int = DEFAULT_VERTEX_LIMIT
) -> int:
    """Exact treewidth of the primal graph (|bag| - 1 cost), for context.

    The paper contrasts hypergraph widths with treewidth in Section 1;
    this oracle lets experiments report all of them side by side.
    """
    width, _ordering = width_by_elimination(
        hypergraph, lambda bag: float(len(bag)), vertex_limit
    )
    return int(round(width)) - 1

"""Exact ghw / fhw via elimination orderings (the route of [42]).

Both ``ghw`` and ``fhw`` are *monotone* width measures of tree
decompositions of the primal graph: the cost of a bag B is ``ρ_H(B)``
(resp. ``ρ*_H(B)``), which never decreases when B grows.  For any monotone
bag-cost f, an optimal tree decomposition can be taken to be the clique
tree of a chordal completion, and chordal completions correspond to vertex
elimination orderings.  Hence

    f-width(H) = min over orderings π of  max_v  f(bag_π(v)),

where ``bag_π(v)`` is v plus its neighbours among later vertices in the
fill-in graph.  The minimum is found by a best-first search over the
sets of vertices eliminated so far — exponential in |V(H)| in the worst
case, as any exact method must be by the paper's Theorem 3.2, but exact,
and it expands only the sets that cost at most the width.  These
oracles cross-validate every polynomial special-case algorithm in this
library.

Condition (1) of Definition 2.4 holds automatically: each hyperedge is a
clique of the primal graph, so by the Helly property of subtrees some bag
contains it (Lemma 2.8).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable

from ..covers import EPS, FractionalCover
from ..decomposition import Decomposition, validate
from ..engine import oracle_for
from ..hypergraph import Hypergraph, Vertex
from ..pipeline.batch import DEFAULT_VERTEX_LIMIT, solve_many

__all__ = [
    "width_by_elimination",
    "decomposition_from_ordering",
    "generalized_hypertree_width_exact",
    "fractional_hypertree_width_exact",
    "treewidth_exact",
]


def _bag_routine(
    hypergraph: Hypergraph,
) -> tuple[list[Vertex], dict[Vertex, int], Callable[[int, int], int]]:
    """``(vertices, bit, bag)``: elimination over vertex masks.

    ``vertices`` is ``V(H)`` sorted by name and ``bit[v]`` the one-bit
    mask of ``v`` (bit i for ``vertices[i]``).  ``bag(eliminated, b)``
    is the mask of the bag created when the vertex of bit ``b`` is
    eliminated after the mask ``eliminated``: that vertex plus every
    vertex outside ``eliminated`` that a path through ``eliminated``
    reaches from it (its neighbourhood in the fill-in graph).
    """
    vertices = sorted(hypergraph.vertices, key=str)
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    adjacency = hypergraph.primal_graph()
    neighbours = [sum(bit[u] for u in adjacency[v]) for v in vertices]

    def bag(eliminated: int, b: int) -> int:
        reached = frontier = b
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = neighbours[low.bit_length() - 1] & ~reached
            reached |= new
            frontier |= new & eliminated
        return reached & ~eliminated

    return vertices, bit, bag


def width_by_elimination(
    hypergraph: Hypergraph,
    bag_cost: Callable[[frozenset], float],
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
    upper: float | None = None,
) -> tuple[float, list[Vertex]]:
    """Minimum over orderings of the max bag cost, plus a witness ordering.

    ``bag_cost`` maps a bag (frozenset of vertices) to its cost; it must
    be monotone under set inclusion for the result to be the true width.
    Raises for hypergraphs above ``vertex_limit`` vertices: the search
    may visit all 2^n vertex sets.

    ``upper`` — a known achievable width, e.g. a validated heuristic
    witness — caps the search: a prefix costing more than ``upper`` is
    dropped, and so is a bag B with ``|B| > upper · max_e |e ∩ B|``
    without calling ``bag_cost`` (no edge cover of B weighs less than
    ``|B| / max_e |e ∩ B|``, so ``upper`` requires ``bag_cost`` to be an
    edge cover weight: ρ or ρ*).  Every prefix of an optimal ordering
    stays within the cap, so the width and ordering are those of the
    uncapped search; when the cap is below the width (nothing survives),
    the search reruns uncapped.
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
    """The search of :func:`width_by_elimination`, costs above ``cap``
    counted as infinite (``math.inf``: uncapped).

    A state is the mask of the vertices eliminated so far; eliminating
    one more vertex costs max(the state's cost, the new bag's cost).
    The cost never falls along a path, so popping states cheapest first
    (Dijkstra on bottleneck costs; Dow and Korf, "Best-First Search for
    Treewidth", AAAI 2007) reaches the full mask first at the width.
    Among equal costs the deeper state pops first, so a plateau is
    walked down to the full mask instead of across.
    """
    vertices, bit, bag_of = _bag_routine(hypergraph)
    full = (1 << len(vertices)) - 1
    edges = [sum(bit[v] for v in e) for e in hypergraph.edges.values()]

    # Per-run memo: many states create the same bag, and bag_cost may
    # be arbitrarily expensive (an LP or set-cover solve).
    # Oracle-backed callers additionally share results across runs and
    # algorithms, but correctness of this guarantee must not depend on
    # the engine cache being enabled.
    cost_cache: dict[int, float] = {}

    def cached_cost(bag: int) -> float:
        if bag not in cost_cache:
            if cap < math.inf and bag.bit_count() > cap * max(
                (e & bag).bit_count() for e in edges
            ):
                cost_cache[bag] = math.inf
            else:
                cost_cache[bag] = bag_cost(
                    frozenset(v for v in vertices if bit[v] & bag)
                )
        return cost_cache[bag]

    # best[mask]: the cheapest known cost of eliminating exactly mask
    # first; last[mask]: the vertex eliminated last on that path.
    best = {0: 0.0}
    last: dict[int, Vertex] = {}
    heap = [(0.0, 0, 0)]
    while heap:
        cost, _depth, mask = heapq.heappop(heap)
        if mask == full:
            ordering: list[Vertex] = []
            while mask:
                ordering.append(last[mask])
                mask ^= bit[last[mask]]
            return cost, ordering[::-1]
        if cost > best[mask]:
            continue  # superseded by a cheaper push
        for v in vertices:
            if mask & bit[v]:
                continue
            total = max(cost, cached_cost(bag_of(mask, bit[v])))
            nxt = mask | bit[v]
            if total <= cap and total < best.get(nxt, math.inf):
                best[nxt] = total
                last[nxt] = v
                heapq.heappush(heap, (total, -nxt.bit_count(), nxt))
    return math.inf, []


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
    vertices, bit, bag_of = _bag_routine(hypergraph)
    position = {v: i for i, v in enumerate(ordering)}
    bags: list[frozenset] = []
    eliminated = 0
    for v in ordering:
        bag = bag_of(eliminated, bit[v])
        bags.append(frozenset(u for u in vertices if bit[u] & bag))
        eliminated |= bit[v]

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


def _width_by_covers(
    hypergraph: Hypergraph,
    cover_of: Callable[[frozenset], FractionalCover | None],
    vertex_limit: int,
    upper: float | None,
) -> tuple[float, Decomposition]:
    """The width and witness of the bag costs ``cover_of(bag).weight``."""

    def cover_for_bag(bag: frozenset) -> FractionalCover:
        cover = cover_of(bag)
        assert cover is not None  # bags consist of non-isolated vertices
        return cover

    width, ordering = width_by_elimination(
        hypergraph, lambda bag: cover_for_bag(bag).weight, vertex_limit, upper
    )
    return width, decomposition_from_ordering(
        hypergraph, ordering, cover_for_bag
    )


def _generalized_hypertree_width_exact_direct(
    hypergraph: Hypergraph,
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
    upper: float | None = None,
) -> tuple[int, Decomposition]:
    """Exact ghw on one block: the pipeline's ``ghw-exact`` core.

    ``upper`` (a known achievable ghw) caps the search; see
    :func:`width_by_elimination`.
    """
    width, decomposition = _width_by_covers(
        hypergraph, oracle_for(hypergraph).integral_cover, vertex_limit, upper
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
    and the elimination search runs per biconnected block, so
    ``vertex_limit`` bounds the largest *block*, not the whole
    hypergraph.  ``preprocess="none"`` searches one unreduced block.
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

    ``upper`` (a known achievable fhw) caps the search; see
    :func:`width_by_elimination`.
    """
    width, decomposition = _width_by_covers(
        hypergraph, oracle_for(hypergraph).fractional_cover, vertex_limit,
        upper,
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
    and the elimination search runs per biconnected block, so
    ``vertex_limit`` bounds the largest *block*, not the whole
    hypergraph.  ``preprocess="none"`` searches one unreduced block.
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

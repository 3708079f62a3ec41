"""An independent elimination-width oracle for the differential suite.

The subset dynamic program over elimination prefixes (Bodlaender et
al., "On exact algorithms for treewidth", ESA 2006): for a monotone bag
cost f,

    best(S) = min over v ∈ S of max(best(S - {v}), f(bag(S - {v}, v)))

is the least bottleneck cost of eliminating exactly the set S first,
where ``bag(P, v)`` is v plus every vertex outside P that a path
through P reaches from v.  ``best(V)`` is the f-width.  It walks all
2^n subsets in popcount order, with no cap and no pruning, and builds
each bag with a frozenset BFS over the primal graph, so nothing here
shares code with :mod:`repro.algorithms.elimination`.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable

from repro.hypergraph import Hypergraph, Vertex


def reachable_bag(
    adjacency: dict[Vertex, frozenset], eliminated: frozenset, vertex: Vertex
) -> frozenset:
    """The bag created when ``vertex`` is eliminated after ``eliminated``."""
    bag = {vertex}
    seen = {vertex}
    queue = deque([vertex])
    while queue:
        for nbr in adjacency[queue.popleft()]:
            if nbr not in seen:
                seen.add(nbr)
                if nbr in eliminated:
                    queue.append(nbr)
                else:
                    bag.add(nbr)
    return frozenset(bag)


def reference_width(
    hypergraph: Hypergraph, bag_cost: Callable[[frozenset], float]
) -> float:
    """``min over orderings of max bag cost``, by the 2^n subset DP."""
    vertices = sorted(hypergraph.vertices, key=str)
    n = len(vertices)
    adjacency = hypergraph.primal_graph()
    costs: dict[frozenset, float] = {}
    best = {0: 0.0}
    for mask in sorted(range(1, 1 << n), key=int.bit_count):
        best[mask] = math.inf
        for i in range(n):
            if mask >> i & 1:
                prev = mask & ~(1 << i)
                eliminated = frozenset(
                    vertices[j] for j in range(n) if prev >> j & 1
                )
                bag = reachable_bag(adjacency, eliminated, vertices[i])
                if bag not in costs:
                    costs[bag] = bag_cost(bag)
                best[mask] = min(best[mask], max(best[prev], costs[bag]))
    return best[(1 << n) - 1]

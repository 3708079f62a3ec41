"""An independent hypertree-width oracle for the differential suite.

A memoised, deterministic rendering of the alternating k-decomp
procedure of Gottlob, Leone and Scarcello (JCSS 2002).  hw(H) <= k iff
every connected component C of H is decomposable from the empty
connector, where ``decomposable(C, connector)`` asks for at most k
edges λ such that

* the connector (the parent's vertices that touch C) lies inside ∪λ,
* ∪λ contains at least one vertex of C, and
* every [∪λ]-component inside C is decomposable from its own
  connector, the vertices of ∪λ that its edges touch.

The answer depends on λ only through ∪λ, so the recursion is memoised
on ``(component, connector)``.  Nothing here touches the
branch-and-bound engine or the pipeline: it is a few bitmask loops over
the definition, small enough to check by eye.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from repro.hypergraph import Hypergraph


def _components(vertices: int, edges: tuple[int, ...]) -> list[int]:
    """Vertex bitmasks of the connected parts of ``vertices`` under
    ``edges`` (two vertices touch when some edge holds both)."""
    parts = []
    while vertices:
        part = vertices & -vertices
        grown = True
        while grown:
            grown = False
            for edge in edges:
                if edge & part and edge & vertices & ~part:
                    part |= edge & vertices
                    grown = True
        parts.append(part)
        vertices &= ~part
    return parts


def hw_at_most(hypergraph: Hypergraph, k: int) -> bool:
    """Whether hw(``hypergraph``) <= ``k``, by k-decomp."""
    index = {v: i for i, v in enumerate(sorted(hypergraph.vertices, key=str))}
    edges = tuple(
        sum(1 << index[v] for v in members)
        for members in hypergraph.edges.values()
    )
    unions = sorted(
        {
            _union(chosen)
            for size in range(1, k + 1)
            for chosen in combinations(edges, size)
        }
    )

    @lru_cache(maxsize=None)
    def decomposable(component: int, connector: int) -> bool:
        for union in unions:
            if connector & ~union or not union & component:
                continue
            if all(
                decomposable(part, union & _touched(part, edges))
                for part in _components(component & ~union, edges)
            ):
                return True
        return False

    covered = _union(edges)
    return all(
        decomposable(part, 0) for part in _components(covered, edges)
    )


def reference_hypertree_width(hypergraph: Hypergraph) -> int:
    """hw(``hypergraph``): the smallest k that :func:`hw_at_most` accepts."""
    k = 1
    while not hw_at_most(hypergraph, k):
        k += 1
    return k


def _union(masks) -> int:
    """The bitwise union of ``masks``."""
    union = 0
    for mask in masks:
        union |= mask
    return union


def _touched(part: int, edges: tuple[int, ...]) -> int:
    """Every vertex of an edge that meets ``part``."""
    return _union(edge for edge in edges if edge & part)

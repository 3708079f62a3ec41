"""Generic Check(X, k) branch-and-bound skeleton (the ``k-decomp`` shape).

Every positive result in the paper (Theorems 4.11, 4.15, 5.2, 6.1)
reduces to the same alternating search: a state is a pair ``(C_r, R)``
of an open component and the parent's cover edges; at each state a cover
``S`` of bounded size is guessed subject to (a) the frontier
``V(R) ∩ ⋃ edges(C_r)`` lies inside ``V(S)`` and (b) ``V(S)`` meets the
component; the ``[V(S)]``-components inside ``C_r`` are then solved
recursively, and on acceptance the witness tree is rebuilt top-down with
bags ``B_u = V(S_u) ∩ (B_r ∪ C_u)``.

:class:`CheckSearch` implements that skeleton once, on top of the shared
:class:`~repro.engine.context.SearchContext` (bitmask tables, memoized
components and edge unions) and :class:`~repro.engine.oracle.CoverOracle`
(memoized cover LPs).  What varies between width measures is expressed
through hooks:

* :meth:`max_cover_size` — the cardinality bound on ``S`` (k for HD/GHD,
  k·d for the Theorem 5.2 FHD search);
* :meth:`admissible` — extra per-guess checks (strictness, ρ* <= k);
* :meth:`state_key` — the memoization key (frontier-summarized for plain
  HDs, full parent cover when strictness depends on it);
* :meth:`node_cover` — the λ/γ recorded at a witness node.

The search runs on the context's bitmasks only: components, frontiers and
bags are vertex masks, covers are edge-bit ints (see
:mod:`repro.engine.context`), and the hooks receive them as such.  The
witness is decoded to vertex and edge-name sets in :meth:`_rebuild`.

Candidate edges are ordered by how many vertices of ``C_r ∪ frontier``
they cover (most first, ties by edge name), so the search commits to
large separators early.  Guesses are enumerated by a depth-first search
that cuts every prefix which can no longer cover the frontier
(det-k-decomp's guided λ-search, Gottlob & Samer, JEA 2009), in
``combinations()`` order, so witnesses and ``states_explored`` match a
plain enumeration.

``HDSearch`` (and through it the GHD subedge-augmentation path) and
``StrictFHDSearch`` are thin instantiations in the algorithms layer.
"""

from __future__ import annotations

from typing import Hashable

from ..covers import FractionalCover
from ..decomposition import Decomposition
from ..hypergraph import Hypergraph
from .context import SearchContext, get_context
from .oracle import CoverOracle, oracle_for

__all__ = ["CheckSearch"]


class CheckSearch:
    """Reusable Check(X, k) search over ``(component, parent cover)`` states.

    Parameters
    ----------
    hypergraph:
        The hypergraph to decompose (possibly subedge-augmented).
    k:
        The integral cover-size budget (see :meth:`max_cover_size`).
    context / oracle:
        Shared engine services; default to the hypergraph's registered
        context and the configured oracle, so concurrent searches on the
        same hypergraph share caches.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        k: int,
        *,
        context: SearchContext | None = None,
        oracle: CoverOracle | None = None,
    ) -> None:
        if k < 1:
            raise ValueError("width bound k must be >= 1")
        self.hypergraph = hypergraph
        self.k = k
        self.context = context if context is not None else get_context(hypergraph)
        self.oracle = oracle if oracle is not None else oracle_for(self.context)
        self._memo: dict[Hashable, tuple | None] = {}
        self.states_explored = 0

    # -- hooks (vertex masks and cover ints) ---------------------------
    def max_cover_size(self) -> int:
        """The cardinality bound on a guessed cover S (default: k)."""
        return self.k

    def admissible(
        self, cover: int, component: int, frontier: int, parent_cover: int
    ) -> bool:
        """Extra acceptance test for a guessed cover (default: none)."""
        return True

    def state_key(
        self, component: int, parent_cover: int, frontier: int
    ) -> Hashable:
        """Memo key; for plain HDs the frontier summarizes the parent."""
        return (component, frontier)

    def node_cover(self, cover: frozenset, bag: frozenset) -> FractionalCover:
        """The λ/γ recorded at a witness node (default: all-ones λ = S).

        ``cover`` holds the node's edge names and ``bag`` its vertices.
        """
        return FractionalCover({e: 1.0 for e in cover})

    # -- search --------------------------------------------------------
    def run(self) -> Decomposition | None:
        """Search for a decomposition of width <= k; None when none exists."""
        if self.hypergraph.num_vertices == 0:
            raise ValueError("hypergraph has no vertices")
        root = (1 << len(self.context.vertex_order)) - 1
        if not self._solve(root, 0, 0):
            return None
        return self._rebuild(root)

    def _guesses(self, component: int, frontier: int, parent_cover: int):
        """All admissible covers S for this state as ``(S, V(S))`` ints.

        Candidates are the edges meeting ``C_r ∪ frontier`` (normal-form
        decompositions never need cover edges disjoint from the bag, and
        bags live inside ``B_r ∪ C_r``), in the context's coverage order
        (:meth:`~repro.engine.context.SearchContext.candidates`).  Size by
        size, a depth-first search picks increasing candidate indices, so
        it visits index tuples in the lexicographic order of
        ``combinations(candidates, size)``.  A prefix with union mask
        ``covered`` and ``slots`` edges still to pick is cut when
        ``rest = frontier & ~covered`` cannot be finished: with one slot
        left the next edge must contain ``rest``; otherwise when
        ``max_{j >= start} |m_j & rest| * slots < |rest|``.  A cut drops
        only tuples that fail ``frontier <= V(S)``, so the tuples that
        pass it and ``V(S) ∩ C_r ≠ ∅`` come out in plain-enumeration
        order.
        """
        edge_masks = self.context.edge_masks
        order = self.context.candidates(component | frontier)
        masks = [edge_masks[j] for j in order]
        bits = [1 << j for j in order]
        n = len(masks)

        def extend(start: int, slots: int, covered: int, picked: int):
            rest = frontier & ~covered
            if slots == 1:
                for j in range(start, n):
                    if not rest & ~masks[j] and (covered | masks[j]) & component:
                        yield picked | bits[j], covered | masks[j]
                return
            need = rest.bit_count()
            if need and need > slots * max(
                ((m & rest).bit_count() for m in masks[start:]), default=0
            ):
                return
            for j in range(start, n - slots + 1):
                yield from extend(
                    j + 1, slots - 1, covered | masks[j], picked | bits[j]
                )

        for size in range(1, self.max_cover_size() + 1):
            for cover, covered in extend(0, size, 0, 0):
                if self.admissible(cover, component, frontier, parent_cover):
                    yield cover, covered

    def _solve(self, component: int, parent_cover: int, parent_covered: int) -> bool:
        """Decide the state ``(C_r, R)``; ``parent_covered`` is ``V(R)``."""
        ctx = self.context
        frontier = parent_covered & ctx.incident_union(component)
        key = self.state_key(component, parent_cover, frontier)
        if key in self._memo:
            return self._memo[key] is not None
        self._memo[key] = None
        self.states_explored += 1
        for cover, covered in self._guesses(component, frontier, parent_cover):
            child_components = ctx.split(component & ~covered)
            if all(
                self._solve(child, cover, covered) for child in child_components
            ):
                self._memo[key] = (cover, child_components)
                return True
        return False

    def _rebuild(self, root: int) -> Decomposition:
        ctx = self.context
        nodes: list[tuple[str, frozenset, FractionalCover]] = []
        parent: dict[str, str] = {}

        def build(
            component: int,
            parent_cover: int,
            parent_covered: int,
            parent_id: str | None,
            parent_bag: int,
        ) -> None:
            frontier = parent_covered & ctx.incident_union(component)
            entry = self._memo[self.state_key(component, parent_cover, frontier)]
            assert entry is not None
            cover, child_components = entry
            node_id = f"n{len(nodes)}"
            covered = ctx.union(cover)
            bag = covered & (parent_bag | component)
            vertices = ctx.vertices_in(bag)
            nodes.append(
                (node_id, vertices, self.node_cover(ctx.edges_in(cover), vertices))
            )
            if parent_id is not None:
                parent[node_id] = parent_id
            for child in child_components:
                build(child, cover, covered, node_id, bag)

        build(root, 0, 0, None, 0)
        return Decomposition(nodes, parent=parent, root="n0")

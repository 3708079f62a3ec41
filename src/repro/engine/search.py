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
:class:`~repro.engine.context.SearchContext` (memoized components,
frontiers and edge unions) and :class:`~repro.engine.oracle.CoverOracle`
(memoized cover LPs).  What varies between width measures is expressed
through hooks:

* :meth:`max_cover_size` — the cardinality bound on ``S`` (k for HD/GHD,
  k·d for the Theorem 5.2 FHD search);
* :meth:`admissible` — extra per-guess checks (strictness, ρ* <= k);
* :meth:`state_key` — the memoization key (frontier-summarized for plain
  HDs, full parent cover when strictness depends on it);
* :meth:`guess_order` — the guess-ordering strategy (named strategies in
  :data:`GUESS_STRATEGIES`).

Guesses are enumerated on int vertex masks by a depth-first search that
cuts every prefix which can no longer cover the frontier (det-k-decomp's
guided λ-search, Gottlob & Samer, JEA 2009), in ``combinations()``
order, so witnesses and ``states_explored`` match a plain enumeration.

``HDSearch`` (and through it the GHD subedge-augmentation path) and
``StrictFHDSearch`` are thin instantiations in the algorithms layer.
"""

from __future__ import annotations

from typing import Callable, Hashable

from ..covers import FractionalCover
from ..decomposition import Decomposition
from ..hypergraph import Hypergraph
from .context import SearchContext, get_context
from .oracle import CoverOracle, oracle_for

__all__ = ["CheckSearch", "GUESS_STRATEGIES"]


def _order_by_coverage(search: "CheckSearch", candidates: list, target: frozenset):
    """Best-first: single edges ordered by coverage of component ∪ frontier.

    Lets the search commit to large separators early (the seed library's
    behaviour, kept as the default).
    """
    hg = search.hypergraph
    return sorted(candidates, key=lambda e: (-len(hg.edge(e) & target), e))


def _order_lexicographic(search: "CheckSearch", candidates: list, target: frozenset):
    """Plain sorted order — deterministic baseline for ablations."""
    return sorted(candidates)


#: Named guess-ordering strategies selectable per search.
GUESS_STRATEGIES: dict[str, Callable] = {
    "coverage": _order_by_coverage,
    "lexicographic": _order_lexicographic,
}


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
    guess_strategy:
        A key of :data:`GUESS_STRATEGIES` (default ``"coverage"``).
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        k: int,
        *,
        context: SearchContext | None = None,
        oracle: CoverOracle | None = None,
        guess_strategy: str = "coverage",
    ) -> None:
        if k < 1:
            raise ValueError("width bound k must be >= 1")
        self.hypergraph = hypergraph
        self.k = k
        self.context = context if context is not None else get_context(hypergraph)
        self.oracle = oracle if oracle is not None else oracle_for(self.context)
        if guess_strategy not in GUESS_STRATEGIES:
            raise ValueError(
                f"guess_strategy must be one of {sorted(GUESS_STRATEGIES)}"
            )
        self.guess_strategy = guess_strategy
        self._order = GUESS_STRATEGIES[guess_strategy]
        self._memo: dict[Hashable, tuple | None] = {}
        self._edge_names = sorted(hypergraph.edge_names)
        self._bit = {v: 1 << i for i, v in enumerate(hypergraph.vertices)}
        self._masks = {e: self._mask(hypergraph.edge(e)) for e in self._edge_names}
        self.states_explored = 0

    # -- hooks ---------------------------------------------------------
    def max_cover_size(self) -> int:
        """The cardinality bound on a guessed cover S (default: k)."""
        return self.k

    def admissible(
        self,
        cover_edges: frozenset,
        component: frozenset,
        frontier: frozenset,
        parent_cover: frozenset,
    ) -> bool:
        """Extra acceptance test for a guessed cover (default: none)."""
        return True

    def state_key(
        self, component: frozenset, parent_cover: frozenset, frontier: frozenset
    ) -> Hashable:
        """Memo key; for plain HDs the frontier summarizes the parent."""
        return (component, frontier)

    def guess_order(self, candidates: list[str], target: frozenset) -> list[str]:
        """Candidate ordering for the configured strategy."""
        return self._order(self, candidates, target)

    # -- search --------------------------------------------------------
    def run(self) -> Decomposition | None:
        """Search for a decomposition of width <= k; None when none exists."""
        hg = self.hypergraph
        if hg.num_vertices == 0:
            raise ValueError("hypergraph has no vertices")
        root = self.context.intern(hg.vertices)
        if not self._solve(root, frozenset()):
            return None
        return self._rebuild()

    def _frontier(self, component: frozenset, parent_cover: frozenset) -> frozenset:
        """``V(R) ∩ ⋃ edges(C_r)``: the parent-cover part seen by C_r."""
        return self.context.frontier(component, parent_cover)

    def _mask(self, vertex_set) -> int:
        """The vertex set as an int with bit ``i`` set for vertex ``i``."""
        bit = self._bit
        return sum(bit[v] for v in vertex_set)

    def _candidate_edges(self, relevant: int) -> list[str]:
        """Edges that can usefully appear in S: those meeting C_r ∪ frontier.

        Normal-form decompositions never need cover edges disjoint from
        the bag, and bags live inside ``B_r ∪ C_r`` — see module docs.
        """
        masks = self._masks
        return [e for e in self._edge_names if masks[e] & relevant]

    def _guesses(
        self, component: frozenset, frontier: frozenset, parent_cover: frozenset
    ):
        """All admissible covers S for this state, strategy-ordered.

        Size by size, a depth-first search picks increasing candidate
        indices, so it visits index tuples in the lexicographic order of
        ``combinations(candidates, size)``.  A prefix with union mask
        ``covered`` and ``slots`` edges still to pick is cut when
        ``rest = frontier & ~covered`` cannot be finished: with one slot
        left the next edge must contain ``rest``; otherwise when
        ``max_{j >= start} |m_j & rest| * slots < |rest|``.  A cut drops
        only tuples that fail ``frontier <= V(S)``, so the tuples that
        pass it and ``V(S) ∩ C_r ≠ ∅`` come out in the old order, and
        only they are interned and unioned.
        """
        ctx = self.context
        fmask, cmask = self._mask(frontier), self._mask(component)
        candidates = self.guess_order(
            self._candidate_edges(fmask | cmask), component | frontier
        )
        masks = [self._masks[e] for e in candidates]
        n = len(masks)

        def extend(start: int, slots: int, covered: int, picked: tuple):
            rest = fmask & ~covered
            if slots == 1:
                for j in range(start, n):
                    if not rest & ~masks[j] and (covered | masks[j]) & cmask:
                        yield picked + (candidates[j],)
                return
            need = rest.bit_count()
            if need and need > slots * max(
                ((m & rest).bit_count() for m in masks[start:]), default=0
            ):
                return
            for j in range(start, n - slots + 1):
                yield from extend(
                    j + 1, slots - 1, covered | masks[j], picked + (candidates[j],)
                )

        for size in range(1, self.max_cover_size() + 1):
            for picked in extend(0, size, 0, ()):
                cover = ctx.intern(frozenset(picked))
                if self.admissible(cover, component, frontier, parent_cover):
                    yield cover, ctx.vertices_of(cover)

    def _solve(self, component: frozenset, parent_cover: frozenset) -> bool:
        frontier = self._frontier(component, parent_cover)
        key = self.state_key(component, parent_cover, frontier)
        if key in self._memo:
            return self._memo[key] is not None
        self._memo[key] = None
        self.states_explored += 1
        ctx = self.context
        for cover, covered in self._guesses(component, frontier, parent_cover):
            child_components = ctx.components_within(
                ctx.intern(component - covered)
            )
            if all(self._solve(child, cover) for child in child_components):
                self._memo[key] = (cover, child_components)
                return True
        return False

    def _rebuild(self) -> Decomposition:
        ctx = self.context
        nodes: list[tuple[str, frozenset, FractionalCover]] = []
        parent: dict[str, str] = {}
        counter = 0

        def build(
            component: frozenset,
            parent_cover: frozenset,
            parent_id: str | None,
            parent_bag: frozenset,
        ) -> None:
            nonlocal counter
            frontier = self._frontier(component, parent_cover)
            entry = self._memo[self.state_key(component, parent_cover, frontier)]
            assert entry is not None
            cover, child_components = entry
            node_id = f"n{counter}"
            counter += 1
            covered = ctx.vertices_of(cover)
            bag = covered & (parent_bag | component)
            nodes.append((node_id, bag, self.node_cover(cover, bag)))
            if parent_id is not None:
                parent[node_id] = parent_id
            for child in child_components:
                build(child, cover, node_id, bag)

        build(ctx.intern(self.hypergraph.vertices), frozenset(), None, frozenset())
        return Decomposition(nodes, parent=parent, root="n0")

    def node_cover(self, cover: frozenset, bag: frozenset) -> FractionalCover:
        """The λ/γ recorded at a witness node (default: all-ones λ = S)."""
        return FractionalCover({e: 1.0 for e in cover})

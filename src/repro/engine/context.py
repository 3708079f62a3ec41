"""Per-hypergraph ``SearchContext``: vertex-set bitmasks for width searches.

Every Check(HD/GHD/FHD, k) search in this library spends its inner loop
on the same handful of structural queries — the ``[C]``-components of a
region, the union of a cover's edges, the vertices of the edges incident
to a component, the frontier a parent cover shows a child component.  A
:class:`SearchContext` answers them on int bitmasks, the one vertex-set
representation of the exact engine:

* a **vertex mask** has bit ``i`` set for the ``i``-th vertex of
  ``hypergraph.vertices`` in iteration order (:attr:`vertex_order`), the
  order :func:`repro.hypergraph.components` walks, so components come out
  lowest set bit first, in the order that function returns them;
* a **cover** is an edge-bit int, bit ``j`` set for the ``j``-th edge in
  sorted name order (:attr:`edge_names`), so equal covers are equal ints.

Searches convert at the :class:`~repro.hypergraph.Hypergraph` boundary
only: :meth:`mask` in, :meth:`vertices_in` / :meth:`edges_in` out.  The
bit tables are built on first use, so a context fetched only to reach its
cover oracle (the bounds pre-pass, the elimination search) never pays for
them.  The memo tables (incident-edge unions per component, component
splits per region) are shared *across* searches: the HD search warms the
tables the GHD and FHD searches then hit.

Contexts are handed out by :func:`get_context`, which keeps a small LRU
registry keyed by the (immutable, hashable) hypergraph, so independent
call sites computing on the same hypergraph transparently share one
context.

Sharing trades memory for solves: memo tables live as long as their
context, i.e. until the registry's LRU (64 hypergraphs) evicts it.
Long-lived processes that churn through many hard instances should call
:func:`clear_context_registry` between batches (benchmarks do, via
``measure_engine``), and the oracle's LRU is bounded by ``cache_size``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from functools import cached_property

from ..hypergraph import Hypergraph, Vertex

__all__ = ["SearchContext", "get_context", "clear_context_registry"]

#: How many hypergraphs the global context registry keeps alive.
_REGISTRY_CAPACITY = 64


def _indices(mask: int):
    """The set bit positions of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union_over(table, mask: int) -> int:
    """The OR of ``table[i]`` over the set bits ``i`` of ``mask``."""
    out = 0
    for i in _indices(mask):
        out |= table[i]
    return out


class SearchContext:
    """Bitmask tables and memoized structural queries for one hypergraph.

    Tables (built on first use): :attr:`vertex_order` and :attr:`bit`
    (vertex ↔ bit), :attr:`edge_names` and :attr:`edge_masks` (edge bit
    ``j`` ↔ name and vertex mask), :attr:`neighbours` (per vertex bit, the
    union of the edges containing it).  :meth:`union` and
    :meth:`candidates` (the edges meeting a mask, in coverage order) are
    computed per call.  Memoized queries:

    * :meth:`incident_union` — ``⋃ edges(C)`` for a component mask (the
      frontier a parent cover R shows C is
      ``union(R) & incident_union(C)``);
    * :meth:`split` — the connected components of the subhypergraph
      induced on a region mask, lowest set bit first.

    All results are immutable ints and tuples, so sharing them across
    searches (and threads) is safe.
    """

    def __init__(self, hypergraph: Hypergraph) -> None:
        self.hypergraph = hypergraph
        self._incident: dict[int, int] = {}
        self._split: dict[int, tuple[int, ...]] = {}
        self.stats = {"hits": 0, "misses": 0}
        # CoverOracles attached to this context, keyed by configuration;
        # managed by repro.engine.oracle.oracle_for.
        self._oracles: dict = {}

    # ------------------------------------------------------------------
    # Bit tables
    # ------------------------------------------------------------------
    @cached_property
    def vertex_order(self) -> tuple[Vertex, ...]:
        """``V(H)`` in iteration order: vertex mask bit ``i`` is entry ``i``."""
        return tuple(self.hypergraph.vertices)

    @cached_property
    def bit(self) -> dict[Vertex, int]:
        """Vertex → its single-bit mask."""
        return {v: 1 << i for i, v in enumerate(self.vertex_order)}

    @cached_property
    def edge_names(self) -> tuple[str, ...]:
        """Edge names in sorted order: cover bit ``j`` is entry ``j``."""
        return tuple(sorted(self.hypergraph.edge_names))

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        """The vertex mask of each edge, aligned with :attr:`edge_names`."""
        return tuple(self.mask(self.hypergraph.edge(e)) for e in self.edge_names)

    @cached_property
    def neighbours(self) -> tuple[int, ...]:
        """Per vertex bit: the union of the edges containing the vertex.

        That is the closed primal neighbourhood of the vertex (0 for an
        isolated one).
        """
        out = [0] * len(self.vertex_order)
        for m in self.edge_masks:
            for i in _indices(m):
                out[i] |= m
        return tuple(out)

    # ------------------------------------------------------------------
    # Conversion at the Hypergraph boundary
    # ------------------------------------------------------------------
    def mask(self, vertex_set: Iterable[Vertex]) -> int:
        """The vertex mask of ``vertex_set``."""
        bit = self.bit
        out = 0
        for v in vertex_set:
            out |= bit[v]
        return out

    def vertices_in(self, mask: int) -> frozenset:
        """The vertices of a vertex mask."""
        order = self.vertex_order
        return frozenset(order[i] for i in _indices(mask))

    def edges_in(self, cover: int) -> frozenset:
        """The edge names of a cover int."""
        names = self.edge_names
        return frozenset(names[j] for j in _indices(cover))

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    def union(self, cover: int) -> int:
        """``V(S) = ⋃ S``: the vertex mask of a cover int."""
        return _union_over(self.edge_masks, cover)

    def candidates(self, target: int) -> list[int]:
        """Bit positions of the edges meeting ``target``, in coverage order.

        Edges covering more of ``target`` come first (ties by name), so a
        search over covers commits to large separators early.
        """
        masks = self.edge_masks
        return sorted(
            (j for j, m in enumerate(masks) if m & target),
            key=lambda j: (-(masks[j] & target).bit_count(), j),
        )

    def incident_union(self, component: int) -> int:
        """``⋃ edges(C)``: the vertices of the edges meeting C, memoized.

        A search's frontier ``V(R) ∩ ⋃ edges(C_r)`` is this masked by the
        parent cover's union.
        """
        cached = self._incident.get(component)
        if cached is not None:
            self.stats["hits"] += 1
            return cached
        self.stats["misses"] += 1
        result = self._incident[component] = _union_over(self.neighbours, component)
        return result

    def split(self, region: int) -> tuple[int, ...]:
        """Connected components of the subhypergraph induced on ``region``.

        Two region vertices are connected iff some edge contains both, so
        a BFS over :attr:`neighbours` restricted to the region finds the
        same partition as ``components(H.induced(region), ())``.  Each
        component starts at the lowest unassigned bit, which is the order
        :func:`repro.hypergraph.components` yields them.  Memoized.
        """
        cached = self._split.get(region)
        if cached is not None:
            self.stats["hits"] += 1
            return cached
        self.stats["misses"] += 1
        neighbours = self.neighbours
        out = []
        todo = region
        while todo:
            component = reach = todo & -todo
            todo ^= component
            while reach:
                low = reach & -reach
                reach ^= low
                new = neighbours[low.bit_length() - 1] & todo
                todo ^= new
                component |= new
                reach |= new
            out.append(component)
        result = tuple(out)
        self._split[region] = result
        return result


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_registry: OrderedDict[Hypergraph, SearchContext] = OrderedDict()


def get_context(hypergraph: Hypergraph) -> SearchContext:
    """The shared :class:`SearchContext` for ``hypergraph``.

    Contexts are kept in a bounded LRU registry keyed by the hypergraph
    itself (hashable and immutable, with a cached hash), so equal
    hypergraphs — even ones constructed independently — share one context
    and therefore one set of caches.

    Parameters
    ----------
    hypergraph : Hypergraph
        The instance whose context to fetch or create.

    Returns
    -------
    SearchContext
        The (possibly freshly registered) shared context.
    """
    ctx = _registry.get(hypergraph)
    if ctx is None:
        ctx = SearchContext(hypergraph)
        _registry[hypergraph] = ctx
        while len(_registry) > _REGISTRY_CAPACITY:
            try:
                _registry.popitem(last=False)
            except KeyError:
                break  # concurrently cleared (parallel block solver)
    else:
        try:
            _registry.move_to_end(hypergraph)
        except KeyError:
            _registry[hypergraph] = ctx
    return ctx


def clear_context_registry() -> None:
    """Drop all shared contexts (used by tests and benchmarks)."""
    _registry.clear()

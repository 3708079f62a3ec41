"""The ``CoverOracle``: one memoized cover service for all algorithms.

Width searches ask the same cover questions over and over — "what is the
optimal fractional cover of this bag using these edges?", "does this bag
admit a cover of weight <= k?", "give me an integral cover of this bag".
Before the engine, each algorithm answered them with its own ad-hoc LP
calls (and its own private caches, when it cached at all).  The oracle
centralizes them behind an LRU cache keyed on ``(kind, bag,
allowed_edges)`` and a pluggable LP backend, so

* repeated queries — within one search *and across algorithms sharing a
  hypergraph* — hit the cache instead of the solver;
* LP-solve counts and hit rates are observable (CLI ``--cache-stats``,
  benchmark tables);
* the solver is swappable (default ``auto``: the pure-Python simplex
  for bag-sized LPs, scipy-HiGHS above a size cutoff).

Use :func:`oracle_for` to get the shared oracle of a hypergraph under the
current engine configuration; construct :class:`CoverOracle` directly
only when you need private caching or a specific backend.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from contextlib import contextmanager
from contextvars import ContextVar

from ..covers import EPS, FractionalCover
from ..covers.fractional import solve_fractional_cover
from ..covers.integral import edge_cover_of, greedy_edge_cover_of
from ..hypergraph import Hypergraph, Vertex
from .backends import LPBackend, get_backend
from .context import SearchContext, get_context

__all__ = [
    "CoverOracle",
    "OracleStats",
    "counting",
    "counted",
    "oracle_for",
    "DEFAULT_CACHE_SIZE",
]

#: Default LRU capacity per oracle (0 disables caching entirely).
DEFAULT_CACHE_SIZE = 100_000

#: Cap used for "purely fractional" covers (Algorithm 3's check 2.a): the
#: LP is solved with per-edge weights strictly below 1 so the resulting γ
#: has an empty integral part; see ``fractional_cover_capped``.
CAP_BELOW_ONE = 1.0 - 1e-6


class OracleStats:
    """LP-solve and cover-cache counters: of one oracle
    (``oracle.stats``) or of the work in progress (:func:`counting`)."""

    __slots__ = ("lp_solves", "set_cover_solves", "hits", "misses")

    def __init__(self) -> None:
        self.lp_solves = 0
        self.set_cover_solves = 0
        self.hits = 0
        self.misses = 0

    def add(self, other: "OracleStats") -> None:
        """Add ``other``'s counters into these."""
        self.lp_solves += other.lp_solves
        self.set_cover_solves += other.set_cover_solves
        self.hits += other.hits
        self.misses += other.misses

    @property
    def hit_rate(self) -> float:
        """Cache hits over lookups (0.0 when there were no lookups)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """The counters as a JSON-ready dictionary."""
        return {
            "lp_solves": self.lp_solves,
            "set_cover_solves": self.set_cover_solves,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }


#: The counter set of the work in progress; None outside any scope.
_CURRENT: ContextVar[OracleStats | None] = ContextVar(
    "repro_engine_counts", default=None
)


@contextmanager
def counting():
    """Count the engine work of a ``with`` block in a fresh set, which
    it yields; on exit the set is added into the one it replaced, so
    nested scopes add up.  Work handed to another thread or process
    counts only through :func:`counted`."""
    counts = OracleStats()
    token = _CURRENT.set(counts)
    try:
        yield counts
    finally:
        _CURRENT.reset(token)
        if (outer := _CURRENT.get()) is not None:
            outer.add(counts)


def counted(fn, /, *args, **kwargs) -> tuple:
    """``(fn(*args, **kwargs), counts)``: a call and its engine work,
    counted in a fresh set that is *not* added into the caller's, so
    whoever collects the value adds the counts once, wherever it ran."""
    counts = OracleStats()
    token = _CURRENT.set(counts)
    try:
        return fn(*args, **kwargs), counts
    finally:
        _CURRENT.reset(token)


class CoverOracle:
    """Memoized fractional/integral cover queries for one hypergraph.

    All queries are keyed on ``(kind, bag, allowed_edges)`` where ``bag``
    and ``allowed_edges`` are frozensets, and answered through
    the configured :class:`~repro.engine.backends.LPBackend`.  Covers are
    deterministic for a fixed backend (edge order is sorted), so caching
    never changes results — property tests in ``tests/test_engine.py``
    verify agreement with the uncached covers-layer functions.
    """

    def __init__(
        self,
        context: SearchContext | Hypergraph,
        backend: LPBackend | str | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if isinstance(context, Hypergraph):
            context = get_context(context)
        self.context = context
        self.hypergraph = context.hypergraph
        self.backend = (
            backend if isinstance(backend, LPBackend) else get_backend(backend)
        )
        self.cache_size = max(0, int(cache_size))
        self._cache: OrderedDict = OrderedDict()
        self.stats = OracleStats()

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _lookup(self, key):
        if not self.cache_size:
            return None
        hit = self._cache.get(key, _MISS)
        if hit is _MISS:
            return None
        try:
            self._cache.move_to_end(key)
        except KeyError:
            # Concurrently evicted by another thread of the parallel
            # block solver; the value we already read stays valid.
            pass
        self.stats.hits += 1
        if (counts := _CURRENT.get()) is not None:
            counts.hits += 1
        return hit

    def _store(self, key, value):
        self.stats.misses += 1
        if (counts := _CURRENT.get()) is not None:
            counts.misses += 1
        if self.cache_size:
            self._cache[key] = value
            while len(self._cache) > self.cache_size:
                try:
                    self._cache.popitem(last=False)
                except KeyError:
                    break  # another thread emptied it first
        return value

    def _key(self, kind: str, bag: frozenset, allowed: frozenset | None):
        return (kind, bag, allowed)

    def _normalize(
        self,
        vertex_set: Iterable[Vertex],
        allowed_edges: Iterable[str] | None,
    ) -> tuple[frozenset, frozenset | None]:
        # frozenset() of a frozenset returns the same object: no copy.
        allowed = None if allowed_edges is None else frozenset(allowed_edges)
        return frozenset(vertex_set), allowed

    # ------------------------------------------------------------------
    # Fractional covers
    # ------------------------------------------------------------------
    def fractional_cover(
        self,
        vertex_set: Iterable[Vertex],
        allowed_edges: Iterable[str] | None = None,
    ) -> FractionalCover | None:
        """Optimal fractional cover of ``vertex_set`` (None if infeasible).

        Semantics match :func:`repro.covers.fractional.fractional_cover_of`:
        each target vertex must receive total weight >= 1 from the allowed
        edges, contributing with their full vertex sets.
        """
        bag, allowed = self._normalize(vertex_set, allowed_edges)
        key = self._key("frac", bag, allowed)
        cached = self._lookup(key)
        if cached is not None:
            return cached[0]
        return self._store(key, (self._solve_fractional(bag, allowed),))[0]

    def fractional_weight(
        self,
        vertex_set: Iterable[Vertex],
        allowed_edges: Iterable[str] | None = None,
    ) -> float | None:
        """``ρ*`` of the bag within the allowed edges, or None."""
        cover = self.fractional_cover(vertex_set, allowed_edges)
        return None if cover is None else cover.weight

    def cover_feasible_within(
        self,
        vertex_set: Iterable[Vertex],
        budget: float,
        allowed_edges: Iterable[str] | None = None,
    ) -> bool:
        """True iff the bag has a fractional cover of weight <= budget."""
        cover = self.fractional_cover(vertex_set, allowed_edges)
        return cover is not None and cover.weight <= budget + EPS

    def fractional_cover_capped(
        self, vertex_set: Iterable[Vertex]
    ) -> FractionalCover | None:
        """A purely fractional optimal cover: per-edge weights < 1.

        Algorithm 3's check 2.a treats its γ as purely fractional — a
        weight-1 edge would silently enlarge the Definition 6.3 set S and
        break the weak special condition.  The LP is therefore solved
        with weights capped strictly below 1; when that is infeasible
        (some wanted vertex lies in a single edge) the uncapped cover is
        returned instead, matching the pre-engine behaviour.
        """
        bag, _ = self._normalize(vertex_set, None)
        key = self._key("capped", bag, None)
        cached = self._lookup(key)
        if cached is not None:
            return cached[0]
        capped = self._solve_fractional(bag, None, cap=CAP_BELOW_ONE)
        if capped is None:
            capped = self._solve_fractional(bag, None)
        return self._store(key, (capped,))[0]

    def _solve_fractional(
        self,
        bag: frozenset,
        allowed: frozenset | None,
        cap: float | None = None,
    ) -> FractionalCover | None:
        self.stats.lp_solves += 1
        if (counts := _CURRENT.get()) is not None:
            counts.lp_solves += 1
        # One shared pipeline with the covers layer — only the solver
        # (this oracle's backend) differs from fractional_cover_of.
        return solve_fractional_cover(
            self.hypergraph,
            bag,
            allowed_edges=allowed,
            solver=self.backend.solve_covering_lp,
            cap=cap,
        )

    # ------------------------------------------------------------------
    # Integral covers
    # ------------------------------------------------------------------
    def integral_cover(
        self,
        vertex_set: Iterable[Vertex],
        limit: int | None = None,
    ) -> FractionalCover | None:
        """A minimum integral edge cover (λ) of the bag, as a 0/1 cover."""
        return self._set_cover(
            f"int:{limit}", vertex_set,
            lambda bag: edge_cover_of(self.hypergraph, bag, limit=limit),
        )

    def greedy_cover(
        self, vertex_set: Iterable[Vertex]
    ) -> FractionalCover | None:
        """A greedy (ln-approximate) integral cover of the bag."""
        return self._set_cover(
            "greedy", vertex_set,
            lambda bag: greedy_edge_cover_of(self.hypergraph, bag),
        )

    def _set_cover(self, kind: str, vertex_set, solve):
        bag, _ = self._normalize(vertex_set, None)
        key = self._key(kind, bag, None)
        cached = self._lookup(key)
        if cached is not None:
            return cached[0]
        self.stats.set_cover_solves += 1
        if (counts := _CURRENT.get()) is not None:
            counts.set_cover_solves += 1
        return self._store(key, (solve(bag),))[0]


class _Miss:
    __slots__ = ()


_MISS = _Miss()


def oracle_for(
    hypergraph: Hypergraph | SearchContext,
    backend: str | None = None,
    cache_size: int | None = None,
) -> CoverOracle:
    """The shared oracle of a hypergraph under the current engine config.

    Oracles live on the hypergraph's :class:`SearchContext`, keyed by
    ``(backend, cache_size)``, so every algorithm touching the same
    hypergraph under the same configuration shares one cache.

    Parameters
    ----------
    hypergraph : Hypergraph or SearchContext
        The instance (or its context) whose oracle to fetch.
    backend : str, optional
        LP backend name; defaults to the configured engine backend.
    cache_size : int, optional
        LRU capacity (0 disables caching); defaults to the configured
        engine cache size.

    Returns
    -------
    CoverOracle
        The shared per-context oracle for that configuration.
    """
    from . import engine_config  # late: avoid import cycle
    from .backends import default_backend_name

    config = engine_config()
    backend_name = backend if backend is not None else config.backend
    # Normalize "library default" to the concrete backend so equivalent
    # configurations (None vs the default's explicit name) share one
    # oracle and one warm cache.
    backend_name = backend_name or default_backend_name()
    size = cache_size if cache_size is not None else config.cache_size
    context = (
        hypergraph
        if isinstance(hypergraph, SearchContext)
        else get_context(hypergraph)
    )
    key = (backend_name, size)
    oracle = context._oracles.get(key)
    if oracle is None:
        oracle = CoverOracle(context, backend=backend_name, cache_size=size)
        context._oracles[key] = oracle
    return oracle

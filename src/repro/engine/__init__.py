"""The unified decomposition engine (context → oracle → search).

Shared infrastructure for every width-search algorithm in the library:

* :mod:`repro.engine.context` — per-hypergraph :class:`SearchContext`:
  the vertex/edge bitmask tables every search runs on, with memoized
  component splits and incident-edge unions;
* :mod:`repro.engine.oracle` — the :class:`CoverOracle`, an LRU-cached
  fractional/integral cover service keyed on ``(bag, allowed_edges)``
  over pluggable LP backends (default ``auto``: the built-in simplex for
  bag-sized LPs, scipy-HiGHS above a size cutoff);
* :mod:`repro.engine.search` — :class:`CheckSearch`, the generic
  Check(X, k) branch-and-bound skeleton that ``HDSearch``, the GHD
  subedge-augmentation path and the FHD search instantiate.

Engine-wide configuration (LP backend, cache size) is process-global and
set via :func:`configure`; the CLI exposes it as ``--backend`` and
``--cache-size``.  There are no process-global counters: the engine
counts LP solves and cache hits into the set of the work in progress,
which :func:`counting` installs (every scheduler run and the CLI's
``--cache-stats`` are one such scope).
"""

from __future__ import annotations

from dataclasses import dataclass

from .backends import (
    AutoBackend,
    LPBackend,
    PurePythonSimplexBackend,
    ScipyHiGHSBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
)
from .context import SearchContext, clear_context_registry, get_context
from .oracle import (
    DEFAULT_CACHE_SIZE,
    CoverOracle,
    OracleStats,
    counted,
    counting,
    oracle_for,
)
from .search import CheckSearch

__all__ = [
    "SearchContext",
    "get_context",
    "clear_context_registry",
    "CoverOracle",
    "OracleStats",
    "counting",
    "counted",
    "oracle_for",
    "DEFAULT_CACHE_SIZE",
    "CheckSearch",
    "LPBackend",
    "AutoBackend",
    "ScipyHiGHSBackend",
    "PurePythonSimplexBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "default_backend_name",
    "EngineConfig",
    "engine_config",
    "configure",
]


@dataclass
class EngineConfig:
    """Process-global engine settings (see :func:`configure`).

    ``backend`` of None means "library default" (the size-aware
    ``"auto"`` backend).  ``cache_size`` of 0 disables the
    cover cache — useful for measuring what the cache buys.
    """

    backend: str | None = None
    cache_size: int = DEFAULT_CACHE_SIZE


_CONFIG = EngineConfig()


def engine_config() -> EngineConfig:
    """The live engine configuration object."""
    return _CONFIG


def configure(
    backend: str | None = None, cache_size: int | None = None
) -> EngineConfig:
    """Set process-global engine defaults; returns the config.

    Only the arguments passed are changed (``backend="auto"`` restores
    the library default).  Oracles already handed out keep their
    configuration; new :func:`oracle_for` calls pick up the updated
    defaults.
    """
    if backend is not None:
        if backend == "auto":
            _CONFIG.backend = None
        elif backend not in available_backends():
            raise ValueError(
                f"unknown LP backend {backend!r}; available: "
                f"{available_backends()}"
            )
        else:
            _CONFIG.backend = backend
    if cache_size is not None:
        _CONFIG.cache_size = max(0, int(cache_size))
    return _CONFIG

"""Pluggable LP backends for the cover oracle.

Every covering problem the paper needs (ρ*, τ*, capped covers) has the
shape ``min c·x  s.t.  sum_{j in row} x_j >= 1,  0 <= x <= ub``.  The
engine routes all of them through a backend object so the solver is
swappable:

* :class:`AutoBackend` (``"auto"``) — the default; the size-aware
  dispatch of :func:`repro.covers.linear_program.solve_covering_lp`:
  the built-in simplex for bag-sized LPs (at most
  :data:`~repro.covers.linear_program.SIMPLEX_MAX_CELLS` tableau cells),
  HiGHS above that, the simplex everywhere when scipy is absent.
  scipy is imported on the first large LP, so a process that only
  meets bag-sized LPs never loads it.
* :class:`ScipyHiGHSBackend` (``"scipy"``) — pinned to
  ``scipy.optimize.linprog`` with the HiGHS method at every size;
  registered only when scipy is installed.
* :class:`PurePythonSimplexBackend` (``"purepython"``) — pinned to the
  dependency-free two-phase simplex of :mod:`repro.covers.simplex` at
  every size.

The two pinned backends are independent references the differential
tests diff ``auto`` against.  Each backend calls its module function
directly, so one LP is one backend call.  Backends register themselves
in a name -> factory registry; the CLI's ``--backend`` flag and
:func:`repro.engine.configure` select by name.
"""

from __future__ import annotations

from collections.abc import Callable

from ..covers.linear_program import (
    HAVE_SCIPY,
    CoveringLPResult,
    highs_covering_lp,
    solve_covering_lp,
)
from ..covers.simplex import simplex_covering_lp

__all__ = [
    "LPBackend",
    "AutoBackend",
    "ScipyHiGHSBackend",
    "PurePythonSimplexBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "default_backend_name",
]


class LPBackend:
    """Interface: solve one covering LP.  Subclasses set ``name``."""

    name = "abstract"

    def solve_covering_lp(
        self,
        membership: list[list[int]],
        n_vars: int,
        costs: list[float] | None = None,
        upper_bounds: list[float] | None = None,
    ) -> CoveringLPResult:
        """Solve ``min c·x  s.t.  sum_{j in row} x_j >= 1, 0 <= x <= ub``.

        Parameters
        ----------
        membership : list of list of int
            One row per covering constraint: the variable indices whose
            sum must reach 1.
        n_vars : int
            Number of variables.
        costs : list of float, optional
            Objective coefficients (default: all 1).
        upper_bounds : list of float, optional
            Per-variable upper bounds (default: unbounded above).

        Returns
        -------
        CoveringLPResult
            Optimal value and a primal solution vector.

        Raises
        ------
        NotImplementedError
            On the abstract base class.
        """
        raise NotImplementedError


class AutoBackend(LPBackend):
    """Size-aware: the simplex for bag-sized LPs, HiGHS above the cutoff."""

    name = "auto"

    def solve_covering_lp(
        self, membership, n_vars, costs=None, upper_bounds=None
    ) -> CoveringLPResult:
        """Solve the covering LP on the solver its size calls for."""
        return solve_covering_lp(
            membership, n_vars, costs=costs, upper_bounds=upper_bounds
        )


class ScipyHiGHSBackend(LPBackend):
    """scipy.optimize.linprog (HiGHS) at every size."""

    name = "scipy"

    def solve_covering_lp(
        self, membership, n_vars, costs=None, upper_bounds=None
    ) -> CoveringLPResult:
        """Solve the covering LP with scipy's HiGHS method."""
        return highs_covering_lp(
            membership, n_vars, costs=costs, upper_bounds=upper_bounds
        )


class PurePythonSimplexBackend(LPBackend):
    """The dependency-free simplex of :mod:`repro.covers.simplex`."""

    name = "purepython"

    def solve_covering_lp(
        self, membership, n_vars, costs=None, upper_bounds=None
    ) -> CoveringLPResult:
        """Solve the covering LP with the built-in two-phase simplex."""
        return simplex_covering_lp(
            membership, n_vars, costs=costs, upper_bounds=upper_bounds
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS: dict[str, Callable[[], LPBackend]] = {}


def register_backend(name: str, factory: Callable[[], LPBackend]) -> None:
    """Register (or replace) a backend factory under ``name``."""
    _BACKENDS[name] = factory


def get_backend(name: str | None = None) -> LPBackend:
    """Instantiate a backend by name (None = library default)."""
    resolved = name or default_backend_name()
    try:
        factory = _BACKENDS[resolved]
    except KeyError:
        raise ValueError(
            f"unknown LP backend {resolved!r}; available: {available_backends()}"
        ) from None
    return factory()


def available_backends() -> list[str]:
    """Names of all registered backends, sorted."""
    return sorted(_BACKENDS)


def default_backend_name() -> str:
    """``"auto"``, the size-aware backend (with or without scipy)."""
    return "auto"


register_backend("auto", AutoBackend)
register_backend("purepython", PurePythonSimplexBackend)
if HAVE_SCIPY:
    register_backend("scipy", ScipyHiGHSBackend)

"""Covering LPs: one entry point over two solvers, picked by size.

All covering problems in the paper (fractional edge covers ρ*, fractional
vertex covers / transversals τ*) have the shape

    minimize   c·x
    subject to A x >= 1   (one constraint per element to cover)
               x >= 0

This module centralizes the solver call, tolerance handling and solution
extraction so the cover modules stay declarative.

:func:`solve_covering_lp` sends bag-sized LPs (at most
:data:`SIMPLEX_MAX_CELLS` tableau cells) to the built-in simplex of
:mod:`repro.covers.simplex` and larger ones to HiGHS
(:func:`highs_covering_lp`).  numpy and scipy are imported on the first
HiGHS solve, so a process that only meets bag-sized LPs never loads
them; without scipy every LP goes to the simplex.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass

__all__ = [
    "EPS",
    "HAVE_SCIPY",
    "SIMPLEX_MAX_CELLS",
    "CoveringLPResult",
    "solve_covering_lp",
    "highs_covering_lp",
    "leq",
    "geq",
    "close",
]

#: Whether scipy (and numpy) are installed; checked without importing them.
HAVE_SCIPY = all(
    importlib.util.find_spec(name) is not None for name in ("numpy", "scipy")
)

#: Size cutoff of :func:`solve_covering_lp`: an LP whose simplex tableau
#: has at most this many constraint cells — (cover rows + upper-bound
#: rows) × variables — goes to the built-in simplex, a larger one to
#: HiGHS.  scipy's ``linprog`` costs ~2–3 ms per call whatever the size
#: (mostly its Python-side input checks), while the dense simplex grows
#: steeply with size and density.  Per-LP milliseconds, simplex / HiGHS,
#: mean of 15 random covering LPs per cell, each variable in each row
#: with probability d (Intel Xeon VM, Python 3.11, scipy 1.17):
#:
#:   rows x vars  caps  cells   d=0.1      d=0.3      d=0.5      d=0.7
#:    8 x 13      no     104   0.18/2.45  0.30/2.50  0.45/2.59  0.45/2.60
#:   10 x 20      no     200   0.32/2.47  1.02/3.03  1.30/2.37  1.12/2.56
#:   12 x 20      no     240   0.57/2.45  1.70/2.28  1.52/2.10  1.00/2.32
#:   12 x 24      no     288   0.49/2.20  1.68/2.38  2.43/2.75  1.74/2.22
#:   14 x 24      no     336   0.48/2.01  2.38/2.48  3.25/2.23  2.95/2.05
#:    6 x 10      yes    160   0.09/1.26  0.19/1.73  0.53/2.43  0.48/2.08
#:    8 x 13      yes    273   0.25/2.06  0.82/2.09  1.01/2.45  1.14/2.51
#:   10 x 20      yes    600   0.53/1.93  2.57/2.56  3.23/2.58  3.21/2.76
#:
#: HiGHS first wins at 336 cells; the cutoff keeps a margin below that,
#: because the crossover moves with density and machine load (a run on
#: a loaded machine had HiGHS ahead at 288 cells, d=0.5).  Every LP of
#: an fhw search over 9-vertex, 13-edge binary CSPs has at most 8 rows ×
#: 13 variables (104 cells) and solves ~40× faster on the simplex
#: (0.06 vs 2.3 ms).
SIMPLEX_MAX_CELLS = 256

#: Comparison tolerance for LP-derived weights throughout the library.
EPS = 1e-9

#: Looser tolerance for HiGHS primal feasibility artifacts.
_SOLVER_TOL = 1e-7


def leq(a: float, b: float, tol: float = EPS) -> bool:
    """``a <= b`` up to tolerance."""
    return a <= b + tol


def geq(a: float, b: float, tol: float = EPS) -> bool:
    """``a >= b`` up to tolerance."""
    return a + tol >= b


def close(a: float, b: float, tol: float = EPS) -> bool:
    """``a == b`` up to tolerance."""
    return abs(a - b) <= tol


@dataclass(frozen=True)
class CoveringLPResult:
    """Outcome of a covering LP.

    Attributes
    ----------
    optimal:
        The minimum total weight, or ``None`` when infeasible.
    weights:
        Per-variable weights (indexed like the input columns), cleaned so
        that values within ``EPS`` of 0 or 1 are snapped.
    feasible:
        Whether the LP admits any solution at all (it is infeasible iff
        some element lies in no set).
    """

    optimal: float | None
    weights: tuple[float, ...]
    feasible: bool

    @property
    def support(self) -> tuple[int, ...]:
        """Indices of variables with strictly positive weight."""
        return tuple(i for i, w in enumerate(self.weights) if w > EPS)


def solve_covering_lp(
    membership: list[list[int]],
    n_vars: int,
    costs: list[float] | None = None,
    upper_bounds: list[float] | None = None,
) -> CoveringLPResult:
    """Solve ``min c·x  s.t.  sum_{j in row} x_j >= 1, 0 <= x <= ub``.

    Bag-sized LPs (see :data:`SIMPLEX_MAX_CELLS`) and every LP on an
    install without scipy go to the built-in simplex; larger ones go to
    HiGHS.  Both return the same optimum (the differential tests in
    ``tests/test_engine.py`` pin this across the cutoff).

    Parameters
    ----------
    membership:
        One row per element to cover; each row lists the variable indices
        whose sets contain that element.
    n_vars:
        Total number of variables (sets).
    costs:
        Per-variable objective coefficients; defaults to all ones.
    upper_bounds:
        Optional per-variable upper bounds.  The paper notes weights never
        need to exceed 1 for minimum covers, but bounds are occasionally
        useful for constrained checks (e.g. fixing integral parts).
    """
    cells = (len(membership) + len(upper_bounds or ())) * n_vars
    if cells <= SIMPLEX_MAX_CELLS or not HAVE_SCIPY:
        from .simplex import simplex_covering_lp  # simplex imports this module

        return simplex_covering_lp(
            membership, n_vars, costs=costs, upper_bounds=upper_bounds
        )
    return highs_covering_lp(
        membership, n_vars, costs=costs, upper_bounds=upper_bounds
    )


def highs_covering_lp(
    membership: list[list[int]],
    n_vars: int,
    costs: list[float] | None = None,
    upper_bounds: list[float] | None = None,
) -> CoveringLPResult:
    """Solve one covering LP with ``scipy.optimize.linprog`` (HiGHS).

    Same arguments as :func:`solve_covering_lp`; needs scipy.
    """
    if any(not row for row in membership):
        return CoveringLPResult(None, (0.0,) * n_vars, False)
    if not membership:
        return CoveringLPResult(0.0, (0.0,) * n_vars, True)
    import numpy as np
    from scipy.optimize import linprog

    c = np.ones(n_vars) if costs is None else np.asarray(costs, dtype=float)
    # Build the sparse-ish constraint matrix densely; instances here are
    # small (bags of decompositions), so dense is simplest and fast.
    a_ub = np.zeros((len(membership), n_vars))
    for row_idx, row in enumerate(membership):
        for var_idx in row:
            a_ub[row_idx, var_idx] = -1.0  # linprog uses A_ub x <= b_ub
    b_ub = -np.ones(len(membership))
    if upper_bounds is None:
        bounds = [(0, None)] * n_vars
    else:
        bounds = [(0, ub) for ub in upper_bounds]

    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:
        return CoveringLPResult(None, (0.0,) * n_vars, False)

    weights = []
    for w in result.x:
        if abs(w) < _SOLVER_TOL:
            w = 0.0
        elif abs(w - 1.0) < _SOLVER_TOL:
            w = 1.0
        weights.append(float(w))
    return CoveringLPResult(float(result.fun), tuple(weights), True)

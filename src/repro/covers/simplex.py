"""Dependency-free covering-LP solver: dense two-phase tableau simplex.

Solves the same problem shape as :func:`repro.covers.linear_program.
solve_covering_lp` — ``min c·x  s.t.  sum_{j in row} x_j >= 1,
0 <= x <= ub`` — without scipy/numpy.  Covering instances in this
library are bag-sized (tens of variables), so a textbook dense tableau
is plenty: below :data:`~repro.covers.linear_program.SIMPLEX_MAX_CELLS`
it beats scipy's ``linprog``, whose per-call overhead alone is a few
milliseconds.  It serves three roles:

* the solver :func:`~repro.covers.linear_program.solve_covering_lp`
  (and so the default ``"auto"`` engine backend) uses for bag-sized
  LPs, and for every LP when scipy is not installed;
* the pinned ``"purepython"`` engine backend;
* an independent solver to cross-check HiGHS against (see
  ``tests/test_engine.py``).

Structural variables come first, then one surplus per cover row and one
slack per upper-bound row; artificials complete the phase-1 basis for
the cover rows.  Bland's rule (lowest eligible index enters, lowest
basis index breaks ratio ties) guarantees termination.
"""

from __future__ import annotations

from .linear_program import CoveringLPResult

__all__ = ["simplex_covering_lp"]

#: Snap tolerance for solver artifacts, matching the HiGHS path.
_SOLVER_TOL = 1e-7

_TOL = 1e-9


def _snap(value: float) -> float:
    if abs(value) < _SOLVER_TOL:
        return 0.0
    if abs(value - 1.0) < _SOLVER_TOL:
        return 1.0
    return float(value)


def simplex_covering_lp(
    membership: list[list[int]],
    n_vars: int,
    costs: list[float] | None = None,
    upper_bounds: list[float] | None = None,
) -> CoveringLPResult:
    """Solve one covering LP with the two-phase simplex (pure Python)."""
    if any(not row for row in membership):
        return CoveringLPResult(None, (0.0,) * n_vars, False)
    if not membership:
        return CoveringLPResult(0.0, (0.0,) * n_vars, True)

    cost_vec = [1.0] * n_vars if costs is None else [float(c) for c in costs]
    m_cover = len(membership)
    bound_rows = (
        []
        if upper_bounds is None
        else [(j, float(ub)) for j, ub in enumerate(upper_bounds)]
    )

    n_surplus = m_cover
    n_slack = len(bound_rows)
    n_art = m_cover
    n_total = n_vars + n_surplus + n_slack + n_art

    # Rows: [structural | surplus | slack | artificial | rhs]
    tableau: list[list[float]] = []
    basis: list[int] = []
    for i, row in enumerate(membership):
        coeffs = [0.0] * (n_total + 1)
        for j in set(row):
            coeffs[j] = 1.0
        coeffs[n_vars + i] = -1.0  # surplus: sum x - s = 1
        coeffs[n_vars + n_surplus + n_slack + i] = 1.0  # artificial
        coeffs[-1] = 1.0
        tableau.append(coeffs)
        basis.append(n_vars + n_surplus + n_slack + i)
    for r, (j, ub) in enumerate(bound_rows):
        coeffs = [0.0] * (n_total + 1)
        coeffs[j] = 1.0
        coeffs[n_vars + n_surplus + r] = 1.0  # slack: x + t = ub
        coeffs[-1] = max(ub, 0.0)
        tableau.append(coeffs)
        basis.append(n_vars + n_surplus + r)

    # Phase 1: minimize the sum of artificials.
    phase1_cost = [0.0] * (n_vars + n_surplus + n_slack) + [1.0] * n_art
    objective = _reduced_costs(tableau, basis, phase1_cost, n_total)
    _iterate(tableau, basis, objective, n_total)
    if objective[-1] < -_TOL:  # phase-1 optimum > 0
        return CoveringLPResult(None, (0.0,) * n_vars, False)

    _evict_artificials(tableau, basis, n_vars + n_surplus + n_slack)

    # Phase 2: minimize the true objective over non-artificial columns.
    phase2_cost = cost_vec + [0.0] * (n_surplus + n_slack + n_art)
    objective = _reduced_costs(tableau, basis, phase2_cost, n_total)
    _iterate(tableau, basis, objective, n_vars + n_surplus + n_slack)

    values = [0.0] * n_total
    for r, bv in enumerate(basis):
        values[bv] = tableau[r][-1]
    weights = tuple(_snap(values[j]) for j in range(n_vars))
    optimal = sum(c * w for c, w in zip(cost_vec, weights))
    return CoveringLPResult(float(optimal), weights, True)


def _reduced_costs(
    tableau: list[list[float]],
    basis: list[int],
    cost: list[float],
    n_total: int,
) -> list[float]:
    objective = list(cost) + [0.0]
    for r, bv in enumerate(basis):
        cb = objective[bv]
        if abs(cb) > _TOL:
            row = tableau[r]
            for j in range(n_total + 1):
                objective[j] -= cb * row[j]
    return objective


def _iterate(
    tableau: list[list[float]],
    basis: list[int],
    objective: list[float],
    n_enter: int,
) -> None:
    """Pivot to optimality; only columns < n_enter may enter."""
    while True:
        enter = -1
        for j in range(n_enter):  # Bland: lowest eligible index
            if objective[j] < -_TOL:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best_ratio = float("inf")
        for r, row in enumerate(tableau):
            if row[enter] > _TOL:
                ratio = row[-1] / row[enter]
                if ratio < best_ratio - _TOL or (
                    abs(ratio - best_ratio) <= _TOL
                    and (leave < 0 or basis[r] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = r
        if leave < 0:  # unbounded: cannot happen for covering LPs
            return
        _pivot(tableau, basis, objective, leave, enter)


def _pivot(
    tableau: list[list[float]],
    basis: list[int],
    objective: list[float],
    row: int,
    col: int,
) -> None:
    pivot = tableau[row][col]
    tableau[row] = [v / pivot for v in tableau[row]]
    pivot_row = tableau[row]
    for r, vals in enumerate(tableau):
        if r != row and abs(vals[col]) > _TOL:
            factor = vals[col]
            tableau[r] = [v - factor * pv for v, pv in zip(vals, pivot_row)]
    factor = objective[col]
    if abs(factor) > _TOL:
        for j in range(len(objective)):
            objective[j] -= factor * pivot_row[j]
    basis[row] = col


def _evict_artificials(
    tableau: list[list[float]], basis: list[int], n_struct: int
) -> None:
    """Pivot zero-valued artificials out of the basis where possible."""
    for r, bv in enumerate(basis):
        if bv < n_struct:
            continue
        for j in range(n_struct):
            if abs(tableau[r][j]) > _TOL:
                pivot = tableau[r][j]
                tableau[r] = [v / pivot for v in tableau[r]]
                pivot_row = tableau[r]
                for rr, vals in enumerate(tableau):
                    if rr != r and abs(vals[j]) > _TOL:
                        factor = vals[j]
                        tableau[rr] = [
                            v - factor * pv for v, pv in zip(vals, pivot_row)
                        ]
                basis[r] = j
                break

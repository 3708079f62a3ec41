"""Pluggable SAT backends, mirroring :mod:`repro.engine.backends`.

The decision procedure behind the SAT width checks is swappable: the
dependency-free CDCL core in :mod:`repro.sat.solver` is always
available, and `python-sat`_ (if importable) provides a much faster
Glucose-based path that is auto-detected, much as the cover oracle's
default LP backend hands large LPs to scipy-HiGHS when it is installed.

.. _python-sat: https://pysathq.github.io/

Backends answer one question: given a CNF, return the set of true
variables of some model, or ``None`` for UNSAT.  Cooperative abort is
supported by the pure-python backend (the pysat bindings cannot be
interrupted mid-solve; an abort event is checked between solves only).
"""

from __future__ import annotations

import importlib.util
from typing import Iterable, Optional, Sequence

from .solver import CDCLSolver

__all__ = [
    "HAVE_PYSAT",
    "SATBackend",
    "PurePythonCDCLBackend",
    "PySATBackend",
    "available_sat_backends",
    "default_sat_backend_name",
    "get_sat_backend",
    "register_sat_backend",
]

#: True when the optional `python-sat` package is importable.
HAVE_PYSAT = importlib.util.find_spec("pysat") is not None


class SATBackend:
    """Interface for SAT decision procedures.

    Subclasses implement :meth:`solve`; :attr:`name` identifies the
    backend in the registry.
    """

    #: Registry key for this backend.
    name = "abstract"

    def solve(
        self,
        num_vars: int,
        clauses: Sequence[Iterable[int]],
        abort=None,
    ) -> Optional[set]:
        """Return the set of true variables of a model, or None if UNSAT."""
        raise NotImplementedError


class PurePythonCDCLBackend(SATBackend):
    """The dependency-free CDCL core (always available)."""

    name = "purepython"

    def solve(self, num_vars, clauses, abort=None):
        """Solve with :class:`repro.sat.solver.CDCLSolver`."""
        solver = CDCLSolver(num_vars)
        for clause in clauses:
            if not solver.add_clause(clause):
                return None
        return solver.solve(abort=abort)


class PySATBackend(SATBackend):
    """Glucose 3 via the optional `python-sat` package."""

    name = "pysat"

    def solve(self, num_vars, clauses, abort=None):
        """Solve with pysat's Glucose3 (abort checked before solving only)."""
        from pysat.solvers import Glucose3

        if abort is not None and abort.is_set():
            from .solver import SolveAborted

            raise SolveAborted("sat solve aborted")
        with Glucose3(bootstrap_with=[list(c) for c in clauses]) as solver:
            if not solver.solve():
                return None
            return {lit for lit in solver.get_model() if lit > 0}


_REGISTRY: dict[str, SATBackend] = {}


def register_sat_backend(backend: SATBackend) -> None:
    """Add ``backend`` to the registry under ``backend.name``."""
    _REGISTRY[backend.name] = backend


register_sat_backend(PurePythonCDCLBackend())
if HAVE_PYSAT:  # pragma: no cover - exercised only when pysat is installed
    register_sat_backend(PySATBackend())


def available_sat_backends() -> tuple[str, ...]:
    """Names of the registered SAT backends, fastest-preferred first."""
    names = list(_REGISTRY)
    names.sort(key=lambda n: (n != "pysat", n))
    return tuple(names)


def default_sat_backend_name() -> str:
    """The backend used when none is named: pysat if present, else CDCL."""
    return "pysat" if "pysat" in _REGISTRY else "purepython"


def get_sat_backend(name: Optional[str] = None) -> SATBackend:
    """Look up a backend by name (default: :func:`default_sat_backend_name`)."""
    key = name or default_sat_backend_name()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown SAT backend {key!r}; available: "
            f"{', '.join(available_sat_backends())}"
        ) from None

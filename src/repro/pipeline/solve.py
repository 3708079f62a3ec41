"""Solve layer: the per-block task registry and its worker pools.

Blocks are independent, and Check(X, k) is monotone in k, so a width is
the smallest accepted k per block.  This module holds what every
schedule of those checks shares: the solver registry behind the single
task payload :func:`run_block_task`, the per-block k-search state
:class:`BlockState`, and :func:`make_pool`.  Each measure has one
exact engine: the CheckSearch branch-and-bound for Check(HD/GHD/FHD, k)
and the elimination DP for the exact oracles.
The one drive loop over them is
:meth:`repro.pipeline.batch.BatchScheduler.run`, which every width
query goes through (:class:`~repro.pipeline.solver.WidthSolver` submits
a one-request batch).

``jobs=1`` with the thread executor runs each task inline on the
calling thread.  ``jobs=N`` adds cross-block and speculative cross-k
parallelism: ``executor="thread"`` (default) shares the in-process
engine caches; ``executor="process"`` sidesteps the GIL for CPU-bound
searches at the cost of per-task pickling and cold per-process caches
(hypergraphs and decompositions pickle via their ``__getstate__``; the
pool's pipes never leave the process tree).  ``executor="remote"``
ships the same payloads to workers as JSON, never as pickles.

Task payloads are plain ``(kind, hypergraph, args)`` tuples dispatched
through the module-level :func:`run_block_task`, so they work on every
executor type.  Algorithm cores are imported lazily inside it to keep
the pipeline package import-cycle free.
"""

from __future__ import annotations

from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field

from ..decomposition import Decomposition
from ..hypergraph import Hypergraph

__all__ = [
    "BlockState",
    "run_block_task",
    "make_pool",
    "SOLVERS",
    "EXECUTORS",
    "CAP_MESSAGES",
]

#: Valid worker-pool types of the pipeline's scheduler.
#: ``"thread"`` shares the in-process engine caches, ``"process"``
#: sidesteps the GIL, and ``"remote"`` dispatches the same task
#: payloads to a TCP worker fleet (see :mod:`repro.dist`).
EXECUTORS = ("thread", "process", "remote")

#: Cap-exhaustion error templates per width-search kind.
CAP_MESSAGES = {
    "hw": "no HD of width <= {cap} found (cap too small?)",
    "ghw": "no GHD of width <= {cap} found (cap too small?)",
}


def make_pool(executor: str, jobs: int):
    """A ``concurrent.futures`` pool for per-block tasks.

    Parameters
    ----------
    executor : str
        One of :data:`EXECUTORS`: ``"thread"`` (shares in-process
        engine caches), ``"process"`` (GIL-free, cold per-worker
        caches), or ``"remote"`` (the TCP worker fleet of
        :mod:`repro.dist`, falling back to a local thread pool while
        no worker is registered).
    jobs : int
        Worker count (coerced to at least 1).  One thread worker is
        no worker at all: each task runs inline on the caller.

    Returns
    -------
    concurrent.futures.Executor

    Raises
    ------
    ValueError
        If ``executor`` is not one of :data:`EXECUTORS`.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS}; got {executor!r}"
        )
    jobs = max(1, int(jobs or 1))
    if executor == "remote":
        # Lazy: repro.dist imports this module, so the import must not
        # run at module load time.
        from ..dist import RemoteExecutor, get_registry

        return RemoteExecutor(get_registry(), jobs=jobs)
    if executor == "thread" and jobs == 1:
        return _InlineExecutor()
    cls = ThreadPoolExecutor if executor == "thread" else ProcessPoolExecutor
    return cls(max_workers=jobs)


class _InlineExecutor(Executor):
    """A one-worker pool that runs each task on the caller, at submit.

    The returned future is already done (an exception lands in it, as
    on a pool), so the drive loop treats it like any other future.
    """

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:
            future.set_exception(exc)
        return future


def _check_hd(hypergraph: Hypergraph, k: int, **params):
    from ..algorithms.hd import hypertree_decomposition

    return hypertree_decomposition(hypergraph, k, preprocess="none", **params)


def _check_ghd(hypergraph: Hypergraph, k: int, **params):
    from ..algorithms.ghd import generalized_hypertree_decomposition

    return generalized_hypertree_decomposition(
        hypergraph, k, preprocess="none", **params
    )


def _check_fhd_bounded_degree(hypergraph: Hypergraph, k: float, **params):
    from ..algorithms.fhd import (
        fractional_hypertree_decomposition_bounded_degree,
    )

    return fractional_hypertree_decomposition_bounded_degree(
        hypergraph, k, preprocess="none", **params
    )


def _ghw_exact(hypergraph: Hypergraph, **params):
    from ..algorithms.elimination import (
        _generalized_hypertree_width_exact_direct,
    )

    return _generalized_hypertree_width_exact_direct(hypergraph, **params)


def _fhw_exact(hypergraph: Hypergraph, **params):
    from ..algorithms.elimination import (
        _fractional_hypertree_width_exact_direct,
    )

    return _fractional_hypertree_width_exact_direct(hypergraph, **params)


def _heuristic_bounds(hypergraph: Hypergraph, **params):
    from ..algorithms.heuristics import width_bounds

    return width_bounds(hypergraph, preprocess="none", **params)


def _heuristic_decomposition(hypergraph: Hypergraph, **params):
    from ..algorithms.heuristics import heuristic_decomposition

    return heuristic_decomposition(hypergraph, preprocess="none", **params)


def _fhw_approximation(hypergraph: Hypergraph, **params):
    from ..algorithms.approx import fhw_approximation

    return fhw_approximation(hypergraph, preprocess="none", **params)


#: Per-block solver registry: name -> callable(hypergraph, **params).
#: Check-style solvers additionally take ``k`` and return None on reject.
SOLVERS = {
    "check-hd": _check_hd,
    "check-ghd": _check_ghd,
    "check-fhd-bd": _check_fhd_bounded_degree,
    "ghw-exact": _ghw_exact,
    "fhw-exact": _fhw_exact,
    "heuristic-bounds": _heuristic_bounds,
    "heuristic-decomposition": _heuristic_decomposition,
    "fhw-approximation": _fhw_approximation,
}

def run_block_task(solver: str, hypergraph: Hypergraph, params: dict):
    """Execute one per-block solve (module-level, so a process pool
    can pickle it).

    This is the single task-payload contract of the whole solve layer:
    a ``(solver, hypergraph, params)`` triple of plain values, so the
    same payload runs inline, on a thread pool, a process pool, or a
    remote worker (:mod:`repro.dist`, which sends it as JSON).

    Parameters
    ----------
    solver : str
        A key of :data:`SOLVERS`.
    hypergraph : Hypergraph
        The block to solve.
    params : dict
        Keyword arguments for the solver; check-style solvers take
        ``k`` here and return None on reject.

    Returns
    -------
    object
        Whatever the registered solver returns (a Decomposition or
        None for checks, ``(width, decomposition)`` tuples for oracles,
        bound triples for heuristics).

    Raises
    ------
    KeyError
        If ``solver`` is not registered in :data:`SOLVERS`.
    """
    return SOLVERS[solver](hypergraph, **params)


#: ``perfbench/tracer.py`` still patches this name; an alias keeps its
#: hook list complete.  It goes once the tracer stops naming it.
run_gated_block_task = run_block_task


@dataclass
class BlockState:
    """Width-search progress of one block of a batched width query.

    Tracks the Check(X, k) verdicts seen so far for a single block and
    settles on the true width once monotonicity allows: the smallest
    accepted k is the width as soon as every smaller k has been
    rejected.

    Attributes
    ----------
    results : dict
        Map ``k -> Decomposition | None`` of finished checks.
    width : int or None
        The settled width, once known.
    witness : Decomposition or None
        The witness decomposition at ``width``, once settled.
    """

    results: dict = field(default_factory=dict)  # k -> Decomposition | None
    width: int | None = None
    witness: Decomposition | None = None

    def settle(self) -> None:
        """Confirm the width once every smaller k has failed."""
        k = self.next_k_unconfirmed()
        while k in self.results:
            if self.results[k] is not None:
                self.width = k
                self.witness = self.results[k]
                return
            k += 1

    def next_k_unconfirmed(self) -> int:
        """The smallest k whose verdict is still unknown or accepted."""
        k = 1
        while self.results.get(k, "missing") is None:
            k += 1
        return k

    def best_accepted(self) -> int | None:
        """The smallest accepted k so far, or None.

        By monotonicity no check above this k is ever useful, so
        the scheduler caps their speculation at ``best_accepted() - 1``
        (see :meth:`ceiling`).
        """
        accepted = [k for k, v in self.results.items() if v is not None]
        return min(accepted) if accepted else None

    def ceiling(self, cap: int) -> int:
        """The largest k still worth checking under ``cap``.

        ``cap`` when nothing is accepted yet; one below the smallest
        accepted k otherwise — the scheduler bounds its speculative
        submissions with this.
        """
        accepted = self.best_accepted()
        return cap if accepted is None else min(cap, accepted - 1)

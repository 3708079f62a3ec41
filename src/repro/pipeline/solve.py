"""Solve layer: the per-block task registry and its worker pools.

Blocks are independent, and Check(X, k) is monotone in k, so a width is
the smallest accepted k per block.  This module holds what every
schedule of those checks shares: the solver registry behind the single
task payload :func:`run_block_task`, the per-block verdict state
:class:`BlockState`, and :func:`make_pool`.  Each measure has one
exact engine: the CheckSearch branch-and-bound for Check(HD/GHD/FHD, k)
and the elimination DP for the exact oracles.
The one drive loop over them is
:meth:`repro.pipeline.batch.BatchScheduler.run`, which every width
query goes through (each :mod:`repro.algorithms` width function is a
one-request :func:`~repro.pipeline.batch.solve_many` call).

``jobs=1`` with the thread executor runs each task inline on the
calling thread.  ``jobs=N`` adds cross-block and cross-request
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

from collections.abc import Sequence
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field
from importlib import import_module

from ..engine.oracle import counted
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


#: Per-block solver registry: name -> (module of :mod:`repro.algorithms`,
#: per-block core).  Every core takes ``(hypergraph, **params)``;
#: check-style cores additionally take ``k`` and return None on reject.
SOLVERS = {
    "check-hd": ("hd", "_hypertree_decomposition_direct"),
    "check-ghd": ("ghd", "_generalized_hypertree_decomposition_direct"),
    "check-fhd-bd": (
        "fhd",
        "_fractional_hypertree_decomposition_bounded_degree_direct",
    ),
    "ghw-exact": ("elimination", "_generalized_hypertree_width_exact_direct"),
    "fhw-exact": ("elimination", "_fractional_hypertree_width_exact_direct"),
    "heuristic-bounds": ("heuristics", "_width_bounds_direct"),
    "heuristic-decomposition": (
        "heuristics",
        "_heuristic_decomposition_direct",
    ),
    "fhw-approximation": ("approx", "_fhw_approximation_direct"),
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
    tuple
        ``(value, counts)``: whatever the registered solver returns (a
        Decomposition or None for checks, ``(width, decomposition)``
        tuples for oracles, bound triples for heuristics), and the
        engine work of this solve alone (:func:`~repro.engine.counted`).

    Raises
    ------
    KeyError
        If ``solver`` is not registered in :data:`SOLVERS`.
    """
    module, core = SOLVERS[solver]
    algorithms = import_module(f"..algorithms.{module}", __package__)
    return counted(getattr(algorithms, core), hypergraph, **params)


#: ``perfbench/tracer.py`` still patches this name; an alias keeps its
#: hook list complete.  It goes once the tracer stops naming it.
run_gated_block_task = run_block_task


@dataclass
class BlockState:
    """The verdicts of one block on its ladder of candidate rungs.

    Every request kind asks each block one question that is monotone
    along an ordered ladder of rungs: a width search tries
    ``k = 1, ..., cap`` (Check(X, k)), a Check(X, k) request the one
    rung ``k``, and an exact oracle or a heuristic the one rung None
    (its verdict is the block's value).  Verdicts arrive as
    ``(rung, verdict)`` facts, from the result store, the bounds
    pre-pass or a finished task alike; None rejects the rung and
    anything else accepts it.  By monotonicity the block is *settled*
    at its lowest accepted rung once every rung below it is rejected,
    and *exhausted* once every rung is rejected.

    Attributes
    ----------
    ladder : sequence
        The rungs in increasing order.
    results : dict
        Map ``rung -> verdict`` of the facts recorded so far.
    """

    ladder: Sequence
    results: dict = field(default_factory=dict)

    def record(self, rung, verdict) -> bool:
        """Record one fact; True when it settles or exhausts the block."""
        done = self.done
        self.results[rung] = verdict
        return not done and self.done

    @property
    def frontier(self) -> int:
        """Index of the lowest rung not known to be rejected."""
        i = 0
        while i < len(self.ladder) and (
            self.ladder[i] in self.results
            and self.results[self.ladder[i]] is None
        ):
            i += 1
        return i

    @property
    def settled(self) -> bool:
        """Whether the rung at the frontier is accepted."""
        i = self.frontier
        return i < len(self.ladder) and self.ladder[i] in self.results

    @property
    def exhausted(self) -> bool:
        """Whether every rung is rejected."""
        return self.frontier == len(self.ladder)

    @property
    def done(self) -> bool:
        """Whether no further verdict can change the block's answer."""
        return self.settled or self.exhausted

    @property
    def rung(self):
        """The rung the block settled at (its width, for a search)."""
        return self.ladder[self.frontier] if self.settled else None

    @property
    def value(self):
        """The accepted verdict at the settled rung, or None."""
        return self.results[self.rung] if self.settled else None

    @property
    def next_rung(self):
        """The rung the block asks next while it is not :attr:`done`:
        its frontier, which has no verdict yet.  By monotonicity the
        block settles at the first rung of this climb that accepts, so
        no rung above it is needed before its verdict."""
        return self.ladder[self.frontier]

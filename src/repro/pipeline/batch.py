"""Batched multi-instance serving: one scheduler, many width queries.

This module holds the pipeline's one drive loop,
:meth:`BatchScheduler.run`: every width query goes through it, a
:class:`~.solver.WidthSolver` call as a one-request batch.  A served
deployment does not answer one hypergraph at a time — it answers
*workloads* (the paper's evaluation itself runs width checks over whole
HyperBench corpora) — so the loop amortizes across requests:

* :func:`solve_many` / :class:`BatchScheduler` run the reduce and split
  stages for **every** instance up front, then interleave the resulting
  ``(instance, block, k)`` tasks from *different* instances on one
  shared worker pool;
* with the default thread executor, all tasks share one warm
  :class:`~repro.engine.context.SearchContext` /
  :class:`~repro.engine.oracle.CoverOracle` cache domain, so repeated
  query shapes across the batch hit instead of recompute (the dominant
  effect measured by ``benchmarks/bench_e19_batch_serving.py``);
* every request gets its own :class:`BatchResult` handle, resolved as
  the batch progresses — a failing request records its error there and
  never poisons its siblings;
* stitching is deterministic per instance (driver thread, block order),
  so batched answers are exactly the one-request
  :class:`~.solver.WidthSolver` answers.

Task payloads are the same plain picklable ``(solver, hypergraph,
params)`` triples as :func:`~.solve.run_block_task`, so the batch runs
unchanged inline (``jobs=1``), on thread and process pools, and on
remote workers (:mod:`repro.dist`).

Quickstart::

    from repro import Hypergraph, solve_many

    results = solve_many(
        [(h1, "ghw"), (h2, "fhw"), (h3, "hw")], jobs=4
    )
    width, decomposition = results[0].value
"""

from __future__ import annotations

import logging
import math
import time
from collections.abc import Mapping
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field

from ..hypergraph import Hypergraph
from ..store import ResultStore
from .bounds import BOUNDS_MODES, compute_block_bounds, seeded_block_state
from .solve import (
    CAP_MESSAGES,
    EXECUTORS,
    BlockState,
    make_pool,
    run_block_task,
)
from .solver import (
    _EPS,
    PREPROCESS_MODES,
    prepare_instance,
    stitch_instance,
)

__all__ = [
    "BatchRequest",
    "BatchResult",
    "BatchStats",
    "BatchScheduler",
    "solve_many",
    "last_batch_stats",
    "BATCH_KINDS",
]

#: kind -> (decomposition kind, per-block solver, scheduling mode).
#: ``"iterative"`` kinds search k = 1, 2, ... per block (speculatively
#: above the frontier when workers are idle); ``"oneshot"`` kinds run
#: exactly one task per block; ``"check"`` kinds run one fixed-k check
#: per block and cancel the instance's remaining tasks on the first
#: rejecting block.
_KIND_TABLE = {
    "hw": ("hd", "check-hd", "iterative"),
    "ghw": ("ghd", "check-ghd", "iterative"),
    "ghw-exact": ("ghd", "ghw-exact", "oneshot"),
    "fhw": ("fhd", "fhw-exact", "oneshot"),
    "bounds": ("fhd", "heuristic-bounds", "oneshot"),
    "check-hd": ("hd", "check-hd", "check"),
    "check-ghd": ("ghd", "check-ghd", "check"),
    "check-fhd-bd": ("fhd", "check-fhd-bd", "check"),
    "heuristic-decomposition": ("fhd", "heuristic-decomposition", "oneshot"),
    "fhw-approximation": ("fhd", "fhw-approximation", "oneshot"),
}

#: Kinds only :class:`~.solver.WidthSolver` submits: heuristic methods
#: with no public batch kind, run without the store.
_INTERNAL_KINDS = ("heuristic-decomposition", "fhw-approximation")

#: Kinds that skip the bounds pre-pass: they *are* heuristics.
_NO_PREPASS = ("bounds", *_INTERNAL_KINDS)

#: The request kinds :func:`solve_many` accepts.  The width kinds
#: (``"hw"``, ``"ghw"``, ``"ghw-exact"``, ``"fhw"``, ``"bounds"``)
#: mirror :func:`~.solver.solve_width`; the ``"check-*"`` kinds answer
#: Check(X, k) for the ``k`` given in ``params``.
BATCH_KINDS = tuple(k for k in _KIND_TABLE if k not in _INTERNAL_KINDS)

#: Sentinel for a block slot whose task has not finished (None is a
#: legitimate check verdict, so it cannot mark pending slots).
_PENDING = object()

_LAST_BATCH_STATS = None

_LOG = logging.getLogger(__name__)


def last_batch_stats():
    """The :class:`BatchStats` of the most recent batch run, or None.

    Returns
    -------
    BatchStats or None
        Statistics of the last :meth:`BatchScheduler.run` completed in
        this process — a :class:`~.solver.WidthSolver` call included
        (the CLI ``--pipeline-stats`` reads this) — or None when
        nothing has run yet.
    """
    return _LAST_BATCH_STATS


@dataclass
class BatchRequest:
    """One width query of a batch.

    Parameters
    ----------
    hypergraph : Hypergraph
        The instance to solve.
    kind : str, optional
        One of :data:`BATCH_KINDS` (default ``"ghw"``).
    params : dict, optional
        Extra keyword arguments for the underlying solver (e.g.
        ``{"kmax": 3}`` for width searches, ``{"k": 2}`` — required —
        for check kinds, ``{"vertex_limit": 12}`` for the exact
        oracles, ``{"cost": "integral"}`` for bounds).
    label : str, optional
        Display name for results and the CLI (defaults to the
        hypergraph's own name).
    """

    hypergraph: Hypergraph
    kind: str = "ghw"
    params: dict = field(default_factory=dict)
    label: str | None = None

    @classmethod
    def of(cls, spec) -> "BatchRequest":
        """Normalize a request spec into a :class:`BatchRequest`.

        Parameters
        ----------
        spec : BatchRequest or Hypergraph or tuple or Mapping
            Accepted shapes: a ready request; a bare hypergraph
            (solved as ``"ghw"``); ``(hypergraph, kind)`` or
            ``(hypergraph, kind, params)`` tuples; or a mapping with
            the constructor's keys.

        Returns
        -------
        BatchRequest

        Raises
        ------
        TypeError
            If the spec matches none of the accepted shapes.
        """
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, Hypergraph):
            return cls(spec)
        if isinstance(spec, Mapping):
            return cls(**spec)
        if isinstance(spec, (tuple, list)) and spec and len(spec) <= 3:
            return cls(*spec)
        raise TypeError(
            "a batch request is a BatchRequest, a Hypergraph, a "
            "(hypergraph, kind[, params]) tuple, or a mapping of "
            f"BatchRequest fields; got {spec!r}"
        )

    @property
    def name(self) -> str:
        """The request's display name (label, hypergraph name, or kind)."""
        if self.label:
            return self.label
        if isinstance(self.hypergraph, Hypergraph) and self.hypergraph.name:
            return self.hypergraph.name
        return self.kind


@dataclass
class BatchResult:
    """Per-request result handle, resolved by the batch run.

    Handed out by :meth:`BatchScheduler.submit` immediately; the batch
    fills in ``value`` or ``error`` as the run progresses, so a failing
    request never disturbs its siblings' handles.

    Attributes
    ----------
    index : int
        Position of the request in the batch (results keep input order).
    request : BatchRequest
        The normalized request.
    value : object
        The same value the corresponding :class:`~.solver.WidthSolver`
        method returns: ``(width, decomposition)`` for ``hw`` / ``ghw``
        / ``ghw-exact`` / ``fhw``, ``(lower, upper, decomposition)``
        for ``bounds``, and ``Decomposition | None`` for check kinds.
    error : Exception or None
        The failure of this request, if any.
    anytime_width : float or None
        The width of the bounds pre-pass witnesses stitched together
        (``max(1, max block upper bounds)``) — a valid, possibly
        non-optimal answer in hand before any exact check ran — or
        None when some block had no witness or the pre-pass was off.
    """

    index: int
    request: BatchRequest
    value: object = None
    error: Exception | None = None
    anytime_width: float | None = None
    _resolved: bool = False

    @property
    def done(self) -> bool:
        """Whether the batch has resolved this request yet."""
        return self._resolved

    @property
    def ok(self) -> bool:
        """Whether the request finished without an error."""
        return self._resolved and self.error is None

    def unwrap(self):
        """The value, re-raising the request's error if it failed.

        Returns
        -------
        object
            ``value`` when the request succeeded.

        Raises
        ------
        RuntimeError
            If the batch has not been run yet.
        Exception
            The request's own error, when it failed.
        """
        if not self._resolved:
            raise RuntimeError(
                "request not resolved yet; call BatchScheduler.run() first"
            )
        if self.error is not None:
            raise self.error
        return self.value

    def _resolve(self, value=None, error=None) -> None:
        self.value = value
        self.error = error
        self._resolved = True


@dataclass
class BatchStats:
    """Aggregate statistics of one batch run.

    Attributes
    ----------
    requests : int
        Number of requests in the batch.
    kinds : dict
        Request count per kind.
    failures : int
        Requests that resolved with an error.
    vertices_removed, edges_removed : int
        What the reduce stage removed, summed over requests.
    rule_counts : dict
        Reduction rule applications, summed over requests.
    blocks : int
        Total blocks produced by the up-front split stage.
    block_sizes : list
        ``(|V|, |E|)`` of every block, request by request.
    tasks_run : int
        Per-block tasks actually executed.
    speculative_checks : int
        Tasks submitted above a block's confirmed-k frontier.
    tasks_cancelled : int
        Tasks avoided by early rejection or settling: pool futures
        cancelled before starting, and check-mode blocks never
        submitted once a sibling block rejected.
    tasks_remote : int
        Tasks dispatched to remote workers (``executor="remote"``
        only; includes re-dispatches of requeued tasks).
    tasks_local_fallback : int
        Remote-executor tasks that ran on the driver's local fallback
        pool because no worker was registered.
    requeued_tasks : int
        Tasks requeued onto surviving workers because the worker
        running them died mid-flight.
    remote_workers : int
        Distinct remote workers that executed at least one task.
    bounds : str
        The batch-wide bounds pre-pass mode.
    bounds_seconds : float
        Wall-clock of the pre-pass over every instance (part of
        ``prepare_seconds``).
    bounds_ks_pruned : int
        Candidate k values the pre-pass settled without an exact check.
    bounds_checks_avoided : int
        Exact block solves the pre-pass made unnecessary.
    bounds_blocks_decided : int
        Blocks whose lower bound met a validated portfolio
        witness (the exact engine never ran for them).
    anytime_answers : int
        Requests with a :attr:`BatchResult.anytime_width`: the
        pre-pass held a full witness set — a valid (if possibly
        non-optimal) answer — before any exact check ran.
    store_instance_hits : int
        Requests answered entirely from the persistent result store
        (the instance fast path: no prepare, no bounds, no tasks).
    store_blocks_seeded : int
        Blocks whose verdict was seeded from the store, skipping both
        the bounds pre-pass and the exact engine for them.
    store_records_appended : int
        Records the batch wrote back to the store during this run.
    store_write_errors : int
        Store write-backs that failed with ``OSError`` (each one is
        logged; the answer is still served, only its persistence is
        lost).
    prepare_seconds, solve_seconds, stitch_seconds, total_seconds : float
        Wall-clock per stage; ``prepare_seconds`` covers reduce, split
        and the bounds pre-pass, ``solve_seconds`` is the drive loop
        (stitching happens inside it on the driver thread and is also
        tracked separately), ``total_seconds`` covers the whole run.
    lp_solves, set_cover_solves, cache_hits, cache_misses : int
        Engine activity during the batch (delta of
        :func:`repro.engine.stats`; near zero for workers of a process
        pool, which keep their own cache domains).
    """

    requests: int = 0
    jobs: int = 1
    executor: str = "thread"
    preprocess: str = "full"
    kinds: dict = field(default_factory=dict)
    failures: int = 0
    vertices_removed: int = 0
    edges_removed: int = 0
    rule_counts: dict = field(default_factory=dict)
    blocks: int = 0
    block_sizes: list = field(default_factory=list)
    tasks_run: int = 0
    speculative_checks: int = 0
    tasks_cancelled: int = 0
    tasks_remote: int = 0
    tasks_local_fallback: int = 0
    requeued_tasks: int = 0
    remote_workers: int = 0
    bounds: str = "none"
    bounds_seconds: float = 0.0
    bounds_ks_pruned: int = 0
    bounds_checks_avoided: int = 0
    bounds_blocks_decided: int = 0
    anytime_answers: int = 0
    store_instance_hits: int = 0
    store_blocks_seeded: int = 0
    store_records_appended: int = 0
    store_write_errors: int = 0
    prepare_seconds: float = 0.0
    solve_seconds: float = 0.0
    stitch_seconds: float = 0.0
    total_seconds: float = 0.0
    lp_solves: int = 0
    set_cover_solves: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Cover-cache hit rate over the batch (0.0 when no lookups)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def requests_per_second(self) -> float:
        """Throughput over the whole run (0.0 for an instant batch)."""
        if self.total_seconds <= 0:
            return 0.0
        return self.requests / self.total_seconds

    def as_dict(self) -> dict:
        """The statistics as a JSON-ready dictionary."""
        return {
            "requests": self.requests,
            "jobs": self.jobs,
            "executor": self.executor,
            "preprocess": self.preprocess,
            "kinds": dict(self.kinds),
            "failures": self.failures,
            "vertices_removed": self.vertices_removed,
            "edges_removed": self.edges_removed,
            "rule_counts": dict(self.rule_counts),
            "blocks": self.blocks,
            "block_sizes": list(self.block_sizes),
            "tasks_run": self.tasks_run,
            "speculative_checks": self.speculative_checks,
            "tasks_cancelled": self.tasks_cancelled,
            "tasks_remote": self.tasks_remote,
            "tasks_local_fallback": self.tasks_local_fallback,
            "requeued_tasks": self.requeued_tasks,
            "remote_workers": self.remote_workers,
            "bounds": self.bounds,
            "bounds_seconds": self.bounds_seconds,
            "bounds_ks_pruned": self.bounds_ks_pruned,
            "bounds_checks_avoided": self.bounds_checks_avoided,
            "bounds_blocks_decided": self.bounds_blocks_decided,
            "anytime_answers": self.anytime_answers,
            "store_instance_hits": self.store_instance_hits,
            "store_blocks_seeded": self.store_blocks_seeded,
            "store_records_appended": self.store_records_appended,
            "store_write_errors": self.store_write_errors,
            "prepare_seconds": self.prepare_seconds,
            "solve_seconds": self.solve_seconds,
            "stitch_seconds": self.stitch_seconds,
            "total_seconds": self.total_seconds,
            "requests_per_second": round(self.requests_per_second, 4),
            "lp_solves": self.lp_solves,
            "set_cover_solves": self.set_cover_solves,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": round(self.hit_rate, 4),
        }


class _Instance:
    """Internal per-request state machine of a batch run."""

    __slots__ = (
        "index",
        "request",
        "result",
        "dkind",
        "solver",
        "mode",
        "params",
        "k",
        "kmax",
        "reduced",
        "blocks",
        "caps",
        "states",
        "block_results",
        "submitted",
        "in_flight",
        "rejected",
        "finalized",
        "bounds_seconds",
        "bounds_ks_pruned",
        "bounds_checks_avoided",
        "bounds_blocks_decided",
        "store",
        "store_hit",
        "store_seeded",
        "store_write_errors",
        "dp_caps",
    )

    def __init__(self, index: int, request: BatchRequest) -> None:
        self.index = index
        self.request = request
        self.result = BatchResult(index, request)
        self.blocks = None
        self.in_flight = set()
        self.rejected = False
        self.finalized = False
        self.bounds_seconds = 0.0
        self.bounds_ks_pruned = 0
        self.bounds_checks_avoided = 0
        self.bounds_blocks_decided = 0
        self.store = None
        self.store_hit = False
        self.store_seeded = set()
        self.store_write_errors = 0
        self.dp_caps = {}  # oneshot block -> portfolio witness width

    # -- lifecycle -----------------------------------------------------
    @property
    def failed(self) -> bool:
        return self.result._resolved and self.result.error is not None

    @property
    def active(self) -> bool:
        return not self.finalized and not self.failed

    def fail(self, error: Exception) -> None:
        """Resolve this request with an error; siblings are untouched."""
        if not self.result._resolved:
            self.result._resolve(error=error)
        self.finalized = True

    def prepare(
        self,
        preprocess: str,
        bounds: str = "portfolio",
        store: ResultStore | None = None,
    ) -> None:
        """Validate the request and run its reduce + split + bounds stages.

        With a ``store``, a persisted full answer short-circuits the
        whole pipeline (the instance fast path: no reduce, no bounds,
        no tasks), and persisted per-block verdicts seed the scheduler
        state so only genuinely new blocks reach the bounds pass and
        the exact engine.
        """
        request = self.request
        if request.kind not in _KIND_TABLE:
            raise ValueError(
                f"kind must be one of {BATCH_KINDS}; got {request.kind!r}"
            )
        if not isinstance(request.hypergraph, Hypergraph):
            raise TypeError(
                f"request {self.index} has no hypergraph: "
                f"{request.hypergraph!r}"
            )
        self.dkind, self.solver, self.mode = _KIND_TABLE[request.kind]
        self.store = None if request.kind in _INTERNAL_KINDS else store
        params = dict(request.params or {})
        if self.solver == "check-ghd":
            # Checked here, once: the pre-pass may answer without the
            # engine, so an engine-side check would depend on the bounds
            # mode (and the store would key a record on the bogus value).
            from ..algorithms.ghd import GHD_METHODS  # lazy: no cycles

            if params.get("method", "fixpoint") not in GHD_METHODS:
                raise ValueError(f"method must be one of {GHD_METHODS}")
        if request.kind in ("bounds", "heuristic-decomposition"):
            cost = params.get("cost", "fractional")
            self.dkind = "fhd" if cost == "fractional" else "ghd"
        self.kmax = params.pop("kmax", None)
        self.k = None
        if self.mode == "check":
            if "k" not in params:
                raise ValueError(
                    f"{request.kind!r} requests need params={{'k': ...}}"
                )
            self.k = params.pop("k")
            if self.k < 1:
                raise ValueError("width bound k must be >= 1")
        self.params = params
        if self._load_from_store():
            return
        self.reduced, self.blocks = prepare_instance(
            request.hypergraph, self.dkind, preprocess
        )
        n = len(self.blocks)
        if self.mode == "iterative":
            self.caps = [
                b.hypergraph.num_edges if self.kmax is None else self.kmax
                for b in self.blocks
            ]
            self.states = [BlockState() for _ in range(n)]
        else:
            self.block_results = [_PENDING] * n
            self.submitted = [False] * n
        self._seed_from_store()
        self._seed_from_bounds(bounds)

    def _load_from_store(self) -> bool:
        """Serve the whole request from a persisted instance record.

        The stored answer only counts when its witness re-validates
        against this request's hypergraph, kind and width — a corrupt
        or mismatched record is a miss, and the instance proceeds to
        solve normally.  A hit resolves the result before any reduce,
        bounds or engine work happens (and therefore with zero LP
        solves and zero check tasks — the property benchmark E23
        asserts for a restarted ``repro serve``).
        """
        store = self.store
        if store is None:
            return False
        request = self.request
        hit = store.get_instance(
            request.hypergraph, request.kind, request.params,
            self.dkind, self.k,
        )
        if hit is None:
            return False
        self.result._resolve(hit[0])
        self.finalized = True
        self.store_hit = True
        return True

    def _seed_from_store(self) -> None:
        """Seed per-block state from persisted verdicts and oracle entries.

        Store-decided blocks are excluded from the bounds pre-pass
        (which runs LP solves) and from task generation; persisted
        cover-oracle exports warm each block's oracle cache before any
        engine runs.  ``"bounds"`` requests only use instance records —
        their 3-tuple block results have no store encoding.
        """
        store = self.store
        if store is None or self.request.kind == "bounds":
            return
        for block in self.blocks:
            entries = store.get_oracle_entries(block.hypergraph)
            if entries:
                from ..engine.oracle import oracle_for  # lazy: no cycles

                oracle_for(block.hypergraph).import_entries(entries)
        if self.mode == "iterative":
            for b, block in enumerate(self.blocks):
                hit = store.get_block(
                    block.hypergraph, self.dkind, self.params
                )
                if hit is None:
                    continue
                width, witness = hit
                cap = self.caps[b]
                state = BlockState()
                # One record seeds the whole k-search: every k below
                # the stored width is a rejection by monotonicity.
                for k in range(1, min(width, cap + 1)):
                    state.results[k] = None
                if width <= cap:
                    state.results[width] = witness
                state.settle()
                self.states[b] = state
                self.store_seeded.add(b)
        elif self.mode == "oneshot":
            for b, block in enumerate(self.blocks):
                hit = store.get_block_exact(
                    block.hypergraph, self.dkind, self.params
                )
                if hit is not None:
                    self.block_results[b] = hit
                    self.submitted[b] = True
                    self.store_seeded.add(b)
        else:  # check
            for b, block in enumerate(self.blocks):
                hit = store.get_check(
                    block.hypergraph, self.dkind, self.k, self.params
                )
                if hit is None:
                    continue
                accepted, witness = hit
                self.store_seeded.add(b)
                if not accepted:
                    self.rejected = True
                    break
                self.block_results[b] = witness
                self.submitted[b] = True

    def _seed_from_bounds(self, bounds: str) -> None:
        """Run the bounds pre-pass and fold its verdicts into the state.

        Iterative kinds get pre-seeded :class:`~.solve.BlockState`
        (lower-bound start, witness-capped speculation, instant
        settling when decided); oneshot exact oracles pre-fill decided
        blocks; check kinds reject outright when a block's lower bound
        exceeds k and accept blocks whose validated witness already
        fits (complete hd/ghd checks without enumeration caps only).
        Heuristic kinds (:data:`_NO_PREPASS`) skip the pass.  Blocks
        already decided by the store are excluded: their verdicts
        stand, and bounding them again would spend LP solves for
        nothing.  When every block holds a witness, their stitched
        width is the request's anytime answer.
        """
        if bounds == "none" or self.request.kind in _NO_PREPASS:
            return
        if self.rejected:
            return  # store-seeded check rejection: nothing left to bound
        t0 = time.perf_counter()
        bounds_map = {
            b: compute_block_bounds(
                block.hypergraph, self.dkind, mode=bounds
            )
            for b, block in enumerate(self.blocks)
            if b not in self.store_seeded
        }
        self.bounds_seconds = time.perf_counter() - t0
        # A block without a witness has an infinite upper bound.
        uppers = [
            bounds_map[b].upper if b in bounds_map else self._seeded_width(b)
            for b in range(len(self.blocks))
        ]
        if uppers and max(uppers) < math.inf:
            self.result.anytime_width = max(1.0, *map(float, uppers))
        if self.mode == "iterative":
            for b, bound in bounds_map.items():
                cap = self.caps[b]
                state = seeded_block_state(bound, cap)
                self.states[b] = state
                below = min(bound.lower_k - 1, cap)
                self.bounds_ks_pruned += max(0, below)
                self.bounds_checks_avoided += max(0, below)
                if bound.upper_k is not None and bound.upper_k <= cap:
                    self.bounds_ks_pruned += cap - bound.upper_k + 1
                if state.width is not None:
                    self.bounds_blocks_decided += 1
                    self.bounds_checks_avoided += 1
                    self._persist_block(b)
        elif self.mode == "oneshot":
            for i, bound in bounds_map.items():
                if bound.decided:
                    self.block_results[i] = (bound.upper, bound.witness)
                    self.submitted[i] = True
                    self.bounds_blocks_decided += 1
                    self.bounds_checks_avoided += 1
                    self._persist_block(i)
                elif bound.upper < math.inf:
                    # The witness width caps the exact DP; it travels in
                    # the task params only, so store keys never see it.
                    self.dp_caps[i] = bound.upper
        else:  # check
            if any(b.lower > self.k + _EPS for b in bounds_map.values()):
                self.rejected = True
                self.bounds_checks_avoided += len(self.blocks)
                return
            if self.dkind in ("hd", "ghd") and set(self.params) <= {"method"}:
                for i, bound in bounds_map.items():
                    if bound.witness is not None and (
                        bound.upper <= self.k + _EPS
                    ):
                        self.block_results[i] = bound.witness
                        self.submitted[i] = True
                        self.bounds_checks_avoided += 1
                        self._persist_block(i)

    def _seeded_width(self, b: int) -> float:
        """The witness width of store-seeded block ``b`` (inf if none)."""
        if self.mode == "iterative":
            state = self.states[b]
            return math.inf if state.witness is None else state.width
        value = self.block_results[b]
        if value is _PENDING or value is None:
            return math.inf
        return value[0] if self.mode == "oneshot" else value.width()

    def _persist_block(self, b: int) -> None:
        """Write one decided block's verdict back to the store.

        Idempotent (the store skips existing keys) and best-effort: a
        full disk must not fail the request that just solved, but it is
        counted and logged (:meth:`_write_failed`).
        """
        store = self.store
        if store is None or self.request.kind == "bounds":
            return
        block_h = self.blocks[b].hypergraph
        try:
            if self.mode == "iterative":
                state = self.states[b]
                if state.width is not None and state.witness is not None:
                    store.put_block(
                        block_h, self.dkind, self.params,
                        state.width, state.witness,
                    )
            elif self.mode == "oneshot":
                value = self.block_results[b]
                if value is not _PENDING:
                    store.put_block_exact(
                        block_h, self.dkind, self.params, *value
                    )
            else:
                value = self.block_results[b]
                if value is not _PENDING:
                    store.put_check(
                        block_h, self.dkind, self.k, self.params, value
                    )
        except OSError as exc:
            self._write_failed(f"block {b}", exc)

    def _persist_instance(self, value) -> None:
        """Write the stitched full answer (and oracle exports) back."""
        store = self.store
        if store is None:
            return
        request = self.request
        try:
            store.put_instance(
                request.hypergraph, request.kind, request.params, value
            )
            from ..engine.oracle import oracle_for  # lazy: no cycles

            for block in self.blocks or ():
                entries = oracle_for(block.hypergraph).export_entries(
                    limit=512
                )
                if entries:
                    store.put_oracle_entries(block.hypergraph, entries)
        except OSError as exc:
            self._write_failed("instance", exc)

    def _write_failed(self, what: str, exc: OSError) -> None:
        self.store_write_errors += 1
        _LOG.warning(
            "result store write failed (%s request %r, %s): %s",
            self.request.kind, self.request.label, what, exc,
        )

    # -- task generation ----------------------------------------------
    def task_params(self, b: int, k: int | None) -> dict:
        if self.mode == "check":
            return {"k": self.k, **self.params}
        if self.mode == "iterative":
            return {"k": k, **self.params}
        if b in self.dp_caps:
            return {**self.params, "upper": self.dp_caps[b]}
        return dict(self.params)

    def next_tasks(self, budget: int) -> list[tuple[int, int, int | None]]:
        """Up to ``budget`` useful (priority, block, k) task keys.

        Priority 0 tasks are required; higher priorities are
        speculative cross-k checks (distance above the block's
        confirmed frontier).
        """
        if not self.active or self.blocks is None or budget <= 0:
            return []
        out: list[tuple[int, int, int | None]] = []
        if self.mode in ("oneshot", "check"):
            if self.rejected:
                return []
            for b in range(len(self.blocks)):
                if not self.submitted[b] and (b, None) not in self.in_flight:
                    out.append((0, b, None))
                    if len(out) >= budget:
                        break
            return out
        for b, state in enumerate(self.states):
            if state.width is not None:
                continue
            base = state.next_k_unconfirmed()
            ceiling = state.ceiling(self.caps[b])
            k = base
            while k <= ceiling and len(out) < budget:
                if k not in state.results and (b, k) not in self.in_flight:
                    out.append((k - base, b, k))
                k += 1
        out.sort()
        return out[:budget]

    # -- completion ----------------------------------------------------
    def record(self, b: int, k: int | None, value) -> None:
        """Fold one finished task back into the instance state.

        Settled verdicts are spilled to the result store (when one is
        attached) right here, on the settle *transition* — a crash
        later in the batch still keeps every verdict paid for so far.
        """
        if self.mode == "iterative":
            state = self.states[b]
            state.results[k] = value
            state.settle()
            if state.width is not None:
                self._persist_block(b)
        else:
            self.block_results[b] = value
            if self.mode == "check" and value is None:
                self.rejected = True
            self._persist_block(b)

    def unsubmitted_blocks(self) -> int:
        """Blocks never handed to the pool (check-mode early rejection)."""
        if self.mode == "iterative":
            return 0
        return sum(
            1
            for b, done in enumerate(self.submitted)
            if not done and (b, None) not in self.in_flight
        )

    @property
    def solved(self) -> bool:
        """Whether every block task this instance needs has finished."""
        if self.blocks is None:
            return False
        if self.mode == "iterative":
            return all(state.width is not None for state in self.states)
        if self.mode == "check" and self.rejected:
            return True
        return all(r is not _PENDING for r in self.block_results)

    @property
    def exhausted(self) -> bool:
        """An iterative block ran out of cap with rejections everywhere."""
        if self.blocks is None or self.mode != "iterative":
            return False
        return any(
            state.width is None
            and state.next_k_unconfirmed() > self.caps[b]
            for b, state in enumerate(self.states)
        )

    def cap_error(self) -> ValueError:
        message = CAP_MESSAGES.get(
            self.request.kind,
            "no decomposition of width <= {cap} found (cap too small?)",
        )
        failed = min(
            self.caps[b]
            for b, state in enumerate(self.states)
            if state.width is None
        )
        return ValueError(message.format(cap=failed))

    # -- stitching -----------------------------------------------------
    def finalize(self) -> None:
        """Stitch the block witnesses deterministically and resolve."""
        try:
            value = self._assemble()
        except Exception as exc:  # validation failures stay per-request
            self.result._resolve(error=exc)
            self.finalized = True
            return
        self.result._resolve(value)
        self.finalized = True
        self._persist_instance(value)

    def _stitch(self, witnesses, width):
        return stitch_instance(
            self.request.hypergraph,
            self.reduced,
            self.blocks,
            witnesses,
            self.dkind,
            width,
        )

    def _assemble(self):
        kind = self.request.kind
        if self.mode == "check":
            if self.rejected:
                return None
            return self._stitch(self.block_results, self.k + _EPS)
        if self.mode == "iterative":
            width = max([1, *(s.width for s in self.states)])
            final = self._stitch(
                [s.witness for s in self.states], width + _EPS
            )
            return width, final
        results = self.block_results
        if kind == "bounds":
            lower = max([1.0, *(low for low, _u, _d in results)])
            upper = max([1.0, *(up for _l, up, _d in results)])
            final = self._stitch(
                [d for _l, _u, d in results], upper + _EPS
            )
            return lower, final.width(), final
        if kind == "fhw-approximation":
            return self._approximation(results)
        if kind == "ghw-exact":
            width = max([1, *(int(k) for k, _w in results)])
        else:  # fhw, heuristic-decomposition
            width = max([1.0, *(float(k) for k, _w in results)])
        final = self._stitch([w for _k, w in results], width + _EPS)
        if kind == "heuristic-decomposition":
            return final.width(), final
        return width, final

    def _approximation(self, results):
        """Algorithm 4 per block: stitch, or report the worst failure."""
        from ..algorithms.approx import FHWApproximationResult  # lazy

        failed = [r for r in results if r.failed]
        worst = max(failed or results, key=lambda r: r.iterations)
        if failed:
            return FHWApproximationResult(
                None, None, iterations=worst.iterations, trace=worst.trace
            )
        width = max([1.0, *(r.width for r in results)])
        final = self._stitch([r.decomposition for r in results], width + _EPS)
        return FHWApproximationResult(
            final,
            final.width(),
            iterations=worst.iterations,
            trace=worst.trace,
        )


class BatchScheduler:
    """Shared-pool scheduler for a batch of width queries.

    Collects requests via :meth:`submit`, then :meth:`run` drives them
    to completion: all reduce/split work happens up front, after which
    one worker pool interleaves per-block tasks from every instance —
    cross-instance, cross-block, and (for width searches) speculative
    cross-k.  Results land in the :class:`BatchResult` handles returned
    by :meth:`submit`; a failing request resolves with its error and
    never cancels sibling requests.

    Parameters
    ----------
    jobs : int, optional
        Worker count of the shared pool (default 1: with the thread
        executor every task runs inline on the calling thread, in one
        shared warm cache domain across the whole batch).
    preprocess : str, optional
        Pipeline preprocess mode applied to every instance (default
        ``"full"``).
    executor : str, optional
        ``"thread"`` (default; all workers share the warm
        SearchContext/CoverOracle caches), ``"process"`` (GIL-free,
        one cache domain per worker process, warmed over the batch's
        lifetime), or ``"remote"`` (dispatch the same task payloads
        to the :mod:`repro.dist` worker fleet; degrades to a local
        thread pool while no worker is registered).
    bounds : str, optional
        Batch-wide bounds pre-pass mode — one of
        :data:`~repro.pipeline.bounds.BOUNDS_MODES` (default
        ``"portfolio"``).  Every instance's blocks are bounded during
        the prepare stage; the seeds start each k-search at the block
        lower bound, cap speculation at the portfolio witness, and skip
        the exact engine outright for decided blocks.  Answers are
        identical in every mode.
    store : ResultStore or str, optional
        Persistent result store to seed from and write back to.  A
        path opens a :class:`~repro.store.ResultStore` at that
        directory for the scheduler's lifetime.  Persisted answers
        short-circuit whole requests (the instance fast path) or
        single blocks (skipping their bounds pre-pass and exact
        engine); every settled verdict is appended back, so a
        restarted process answers repeats without solving anything.
    """

    def __init__(
        self,
        jobs: int | None = None,
        preprocess: str = "full",
        executor: str = "thread",
        bounds: str = "portfolio",
        store: ResultStore | str | None = None,
    ) -> None:
        if preprocess not in PREPROCESS_MODES:
            raise ValueError(
                f"preprocess must be one of {PREPROCESS_MODES}"
            )
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}; got {executor!r}"
            )
        if bounds not in BOUNDS_MODES:
            raise ValueError(f"bounds must be one of {BOUNDS_MODES}")
        self.jobs = max(1, int(jobs or 1))
        self.preprocess = preprocess
        self.executor = executor
        self.bounds = bounds
        if store is None or isinstance(store, ResultStore):
            self.store = store
        else:
            self.store = ResultStore(store)
        self.instances: list[_Instance] = []
        self.last_stats: BatchStats | None = None

    def submit(self, request) -> BatchResult:
        """Add one request to the batch.

        Parameters
        ----------
        request : BatchRequest or Hypergraph or tuple or Mapping
            Anything :meth:`BatchRequest.of` accepts.

        Returns
        -------
        BatchResult
            The request's result handle, resolved during :meth:`run`.
            A malformed spec resolves the handle with its error
            immediately instead of raising, so one bad request cannot
            poison the rest of the batch.
        """
        index = len(self.instances)
        try:
            normalized = BatchRequest.of(request)
        except Exception as exc:
            instance = _Instance(index, BatchRequest(None, "ghw"))
            instance.fail(exc)
        else:
            instance = _Instance(index, normalized)
        self.instances.append(instance)
        return instance.result

    # ------------------------------------------------------------------
    def _cancel(self, instance, in_flight, stats, block=None) -> None:
        """Cancel an instance's pending pool work; count what it saved.

        With ``block``, only that settled block's speculative higher-k
        checks; otherwise everything, never-submitted blocks included.
        """
        if block is None:
            stats.tasks_cancelled += instance.unsubmitted_blocks()
        for future, (i, b, _k) in in_flight.items():
            if i == instance.index and block in (None, b) and future.cancel():
                stats.tasks_cancelled += 1

    def _finalize_ready(self, stats) -> None:
        for instance in self.instances:
            if instance.active and instance.solved and not instance.in_flight:
                t0 = time.perf_counter()
                instance.finalize()
                stats.stitch_seconds += time.perf_counter() - t0

    def _drive(self, stats: BatchStats) -> None:
        with make_pool(self.executor, self.jobs) as pool:
            in_flight: dict = {}  # future -> (instance, block, k)
            while any(inst.active for inst in self.instances):
                free = self.jobs - len(in_flight)
                if free > 0:
                    candidates = []
                    for inst in self.instances:
                        if not inst.active or inst.solved:
                            continue
                        for prio, b, k in inst.next_tasks(free):
                            candidates.append((prio, inst.index, b, k))
                    candidates.sort()
                    for prio, i, b, k in candidates[:free]:
                        inst = self.instances[i]
                        inst.in_flight.add((b, k))
                        if inst.mode in ("oneshot", "check"):
                            inst.submitted[b] = True
                        if prio > 0:
                            stats.speculative_checks += 1
                        future = pool.submit(
                            run_block_task,
                            inst.solver,
                            inst.blocks[b].hypergraph,
                            inst.task_params(b, k),
                        )
                        in_flight[future] = (i, b, k)
                if not in_flight:
                    # Nothing running and nothing submittable: settle
                    # exhausted caps and stitch whatever completed.
                    for inst in self.instances:
                        if inst.active and not inst.solved:
                            if inst.exhausted:
                                inst.fail(inst.cap_error())
                            else:  # pragma: no cover - defensive
                                inst.fail(
                                    RuntimeError(
                                        "batch scheduler stalled (bug)"
                                    )
                                )
                    self._finalize_ready(stats)
                    continue
                done, _pending = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    i, b, k = in_flight.pop(future)
                    inst = self.instances[i]
                    inst.in_flight.discard((b, k))
                    if future.cancelled():
                        continue
                    stats.tasks_run += 1
                    try:
                        value = future.result()
                    except Exception as exc:
                        if inst.active:
                            inst.fail(exc)
                            self._cancel(inst, in_flight, stats)
                        continue
                    if not inst.active:
                        continue
                    # Cancel only on the *transition* to rejected/settled,
                    # so each avoided task is counted exactly once.
                    was_rejected = inst.rejected
                    was_settled = (
                        inst.mode == "iterative"
                        and inst.states[b].width is not None
                    )
                    inst.record(b, k, value)
                    if inst.mode == "check" and inst.rejected:
                        if not was_rejected:
                            self._cancel(inst, in_flight, stats)
                    elif (
                        inst.mode == "iterative"
                        and inst.states[b].width is not None
                        and not was_settled
                    ):
                        self._cancel(inst, in_flight, stats, b)
                self._finalize_ready(stats)
            collect = getattr(pool, "remote_stats", None)
            if collect is not None:  # executor="remote": fold in fleet counters
                remote = collect()
                stats.tasks_remote = remote["tasks_remote"]
                stats.tasks_local_fallback = remote["tasks_local"]
                stats.requeued_tasks = remote["requeued_tasks"]
                stats.remote_workers = remote["workers_used"]

    def run(self) -> BatchStats:
        """Drive every submitted request to completion.

        Returns
        -------
        BatchStats
            Aggregate per-stage timings, task counters and engine-cache
            activity; also stored in ``last_stats`` and readable via
            :func:`last_batch_stats`.  Per-request outcomes are in the
            :class:`BatchResult` handles from :meth:`submit`.
        """
        from .. import engine  # lazy: keeps the pipeline package cycle-free

        global _LAST_BATCH_STATS
        stats = BatchStats(
            requests=len(self.instances),
            jobs=self.jobs,
            executor=self.executor,
            preprocess=self.preprocess,
            bounds=self.bounds,
        )
        baseline = engine.stats()
        store_baseline = (
            self.store.stats.records_appended
            if self.store is not None
            else 0
        )
        t_start = time.perf_counter()
        for instance in self.instances:
            if not instance.active:
                continue
            kind = instance.request.kind
            stats.kinds[kind] = stats.kinds.get(kind, 0) + 1
            try:
                instance.prepare(self.preprocess, self.bounds, self.store)
            except Exception as exc:
                instance.fail(exc)
        for inst in self.instances:
            if inst.blocks is not None:
                stats.blocks += len(inst.blocks)
                stats.block_sizes.extend(
                    (b.hypergraph.num_vertices, b.hypergraph.num_edges)
                    for b in inst.blocks
                )
                stats.vertices_removed += inst.reduced.vertices_removed
                stats.edges_removed += inst.reduced.edges_removed
                for rule, count in inst.reduced.rule_counts.items():
                    stats.rule_counts[rule] = (
                        stats.rule_counts.get(rule, 0) + count
                    )
            stats.bounds_seconds += inst.bounds_seconds
            stats.bounds_ks_pruned += inst.bounds_ks_pruned
            stats.bounds_checks_avoided += inst.bounds_checks_avoided
            stats.bounds_blocks_decided += inst.bounds_blocks_decided
            stats.anytime_answers += inst.result.anytime_width is not None
            stats.store_instance_hits += 1 if inst.store_hit else 0
            stats.store_blocks_seeded += len(inst.store_seeded)
        stats.prepare_seconds = time.perf_counter() - t_start
        t_solve = time.perf_counter()
        self._drive(stats)
        stats.solve_seconds = time.perf_counter() - t_solve
        stats.total_seconds = time.perf_counter() - t_start
        stats.failures = sum(1 for inst in self.instances if inst.failed)
        stats.store_write_errors = sum(
            inst.store_write_errors for inst in self.instances
        )
        if self.store is not None:
            stats.store_records_appended = (
                self.store.stats.records_appended - store_baseline
            )
        current = engine.stats()
        for key, attr in (
            ("lp_solves", "lp_solves"),
            ("set_cover_solves", "set_cover_solves"),
            ("cache_hits", "cache_hits"),
            ("cache_misses", "cache_misses"),
        ):
            setattr(stats, attr, current[key] - baseline.get(key, 0))
        self.last_stats = stats
        _LAST_BATCH_STATS = stats
        return stats


def solve_many(
    requests,
    *,
    jobs: int | None = None,
    preprocess: str = "full",
    executor: str = "thread",
    backend: str | None = None,
    bounds: str = "portfolio",
    store: ResultStore | str | None = None,
) -> list[BatchResult]:
    """Solve a batch of width queries on one shared scheduler.

    The batched answers are exactly the per-instance
    :class:`~.solver.WidthSolver` answers; what changes is the serving
    cost: reduce/split runs up front for every instance, per-block
    tasks from different instances interleave on one worker pool, and
    (with the default thread executor) the whole batch shares one warm
    engine-cache domain.

    Parameters
    ----------
    requests : iterable
        Request specs — anything :meth:`BatchRequest.of` accepts:
        ``BatchRequest`` objects, bare hypergraphs, ``(hypergraph,
        kind[, params])`` tuples, or mappings.
    jobs : int, optional
        Worker count of the shared pool (default 1).
    preprocess : str, optional
        Pipeline preprocess mode for every instance (default
        ``"full"``).
    executor : str, optional
        ``"thread"`` (default), ``"process"``, or ``"remote"`` (the
        :mod:`repro.dist` worker fleet; see
        :data:`~repro.pipeline.solve.EXECUTORS`).
    backend : str, optional
        LP backend for the batch (``"auto"``, ``"scipy"``,
        ``"purepython"``); the process-global engine configuration is
        restored afterwards.
    bounds : str, optional
        Bounds pre-pass mode for every instance — ``"portfolio"``
        (default), ``"clique"`` or ``"none"``; see
        :data:`~repro.pipeline.bounds.BOUNDS_MODES`.  Only affects
        which exact checks run, never the answers.
    store : ResultStore or str, optional
        Persistent result store (or its directory path).  Persisted
        answers are served without solving; settled verdicts are
        written back.  A path passed here is opened for the call and
        closed afterwards; pass an open
        :class:`~repro.store.ResultStore` to keep it across calls.

    Returns
    -------
    list of BatchResult
        One resolved handle per request, in input order.  Failures are
        per-request (``result.error``); an empty request list returns
        an empty list.

    Raises
    ------
    ValueError
        If ``preprocess``, ``executor``, ``backend`` or ``bounds`` is
        invalid — batch-level configuration errors raise; per-request
        problems do not.
    """
    from .. import engine  # lazy: keeps the pipeline package cycle-free

    owned_store = store is not None and not isinstance(store, ResultStore)
    scheduler = BatchScheduler(
        jobs=jobs,
        preprocess=preprocess,
        executor=executor,
        bounds=bounds,
        store=store,
    )
    results = [scheduler.submit(request) for request in requests]
    try:
        if backend is not None:
            config = engine.engine_config()
            previous = config.backend
            engine.configure(backend=backend)
            try:
                scheduler.run()
            finally:
                config.backend = previous
        else:
            scheduler.run()
    finally:
        if owned_store:
            scheduler.store.close()
    return results

"""Batched multi-instance serving: one scheduler, many width queries.

This module holds the pipeline's one drive loop,
:meth:`BatchScheduler.run`: every width query goes through it, a
:mod:`repro.algorithms` function call as a one-request
:func:`solve_many`.  A served deployment does not answer one
hypergraph at a time — it answers *workloads* (the paper's evaluation
itself runs width checks over whole HyperBench corpora) — so the loop
amortizes across requests:

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
  so batched answers are exactly the one-request answers.

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
from collections.abc import Callable, Mapping
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import asdict, dataclass, field

from ..engine.oracle import counting
from ..hypergraph import Hypergraph
from ..hypergraph.io import short_repr
from ..store import ResultStore
from .bounds import BOUNDS_MODES, BlockBounds, compute_block_bounds
from .solve import (
    CAP_MESSAGES,
    EXECUTORS,
    BlockState,
    make_pool,
    run_block_task,
)
from .solver import PREPROCESS_MODES, prepare_instance, stitch_instance

__all__ = [
    "BatchRequest",
    "BatchResult",
    "BatchStats",
    "BatchScheduler",
    "solve_many",
    "BATCH_KINDS",
    "GHD_CAPS",
    "request_params",
    "stored_answer",
]


@dataclass(frozen=True)
class _Param:
    """One request param's spec: its types (a bool is never an int),
    the core's default or ``required``, and allowed values."""

    types: tuple
    default: object = None
    required: bool = False
    choices: tuple = ()
    minimum: int | None = None
    maximum: int | None = None


_INT, _NUMBER = (int,), (int, float)
#: The largest width bound a check (``k``) or a search cap (``kmax``)
#: takes: far above the edge count of any hypergraph solved here (every
#: check at or above it accepts), and small enough for the engines'
#: arithmetic on it, which a ``k`` of ``1e308`` or ``10**400`` overflows.
#: It also caps the bmip depth ``c``, whose enumeration stops at the
#: first depth that adds no set, long before any such bound.
_K_MAX = 10**9
_K = _Param(_INT, required=True, minimum=1, maximum=_K_MAX)
_KMAX = _Param(_INT, maximum=_K_MAX)
_MAX_SETS = _Param(_INT, 200_000)
#: The exact oracles' default size cap (``vertex_limit``): their search
#: may visit all 2^n vertex sets of a block, so larger blocks are refused.
DEFAULT_VERTEX_LIMIT = 18
_VERTEX_LIMIT = _Param(_INT, DEFAULT_VERTEX_LIMIT)
_COST = _Param((str,), "fractional", choices=("fractional", "integral"))

#: The subedge generator caps each Check(GHD, k) ``method`` takes
#: (Theorems 4.11 and 4.15; :mod:`repro.algorithms.subedges`).
GHD_CAPS = {
    "fixpoint": {"max_sets": _MAX_SETS},
    "bip": {"max_intersection": _Param(_INT, 20)},
    "bmip": {"c": _Param(_INT, required=True, minimum=2, maximum=_K_MAX),
             "max_subset_size": _Param(_INT, 18), "max_sets": _MAX_SETS},
    "limit": {"max_edge_size": _Param(_INT, 16)},
}
_METHOD = _Param((str,), "fixpoint", choices=tuple(GHD_CAPS))

#: kind -> (decomposition kind, per-block solver, store record family,
#: params spec).  The family fixes each block's rung ladder
#: (:class:`~.solve.BlockState`): ``"block"`` kinds search k = 1, 2,
#: ..., cap one rung at a time and persist the settled width;
#: ``"check"`` kinds ask the one rung k, persist every verdict, and are
#: answered None by the first rejecting block; ``"block-exact"`` and the
#: heuristics (None: no per-block records) ask the one rung None.  The spec names every param a
#: request takes (a ``method`` adds its caps); ``kmax`` and ``k`` set
#: the ladder, the rest go to the solver.
_KIND_TABLE = {
    "hw": ("hd", "check-hd", "block", {"kmax": _KMAX}),
    "ghw": ("ghd", "check-ghd", "block", {"kmax": _KMAX, "method": _METHOD}),
    "ghw-exact": ("ghd", "ghw-exact", "block-exact",
                  {"vertex_limit": _VERTEX_LIMIT}),
    "fhw": ("fhd", "fhw-exact", "block-exact",
            {"vertex_limit": _VERTEX_LIMIT}),
    "bounds": ("fhd", "heuristic-bounds", None, {"cost": _COST}),
    "check-hd": ("hd", "check-hd", "check", {"k": _K}),
    "check-ghd": ("ghd", "check-ghd", "check", {"k": _K, "method": _METHOD}),
    "check-fhd-bd": ("fhd", "check-fhd-bd", "check", {
        "k": _Param(_NUMBER, required=True, minimum=1, maximum=_K_MAX),
        "d": _Param(_INT),
        "piece_cap": _Param(_INT, 14),
        "max_sets": _MAX_SETS,
    }),
    "heuristic-decomposition": ("fhd", "heuristic-decomposition", None, {
        "cost": _COST,
        "ordering": _Param((str,), "min-fill",
                          choices=("min-degree", "min-fill")),
    }),
    "fhw-approximation": ("fhd", "fhw-approximation", None, {
        "K": _Param(_NUMBER, required=True),
        "eps": _Param(_NUMBER, required=True),
        "find_fhd": _Param((Callable,)),
    }),
}

#: Kinds only the :mod:`repro.algorithms` functions submit: heuristic
#: methods with no public batch kind, run without the store.
_INTERNAL_KINDS = ("heuristic-decomposition", "fhw-approximation")

#: The request kinds of the wire, the store and the CLI manifests.  The
#: width kinds (``"hw"``, ``"ghw"``, ``"ghw-exact"``, ``"fhw"``,
#: ``"bounds"``) are the requests the :mod:`repro.algorithms` width
#: functions submit; the ``"check-*"`` kinds answer Check(X, k) for the
#: ``k`` given in ``params``.
BATCH_KINDS = tuple(k for k in _KIND_TABLE if k not in _INTERNAL_KINDS)


def request_params(kind: str, params: Mapping | None) -> dict:
    """A request's params, checked against its kind's spec, with every
    value equal to its default (None included) dropped.

    Every request passes here before anything runs, so a bad name or
    value is one ``ValueError`` in every bounds mode and store state,
    and equal requests share one spelling and store key.
    """
    if kind not in _KIND_TABLE:
        raise ValueError(
            f"kind must be one of {BATCH_KINDS}; got {short_repr(kind)}"
        )
    params = {} if params is None else params
    if not isinstance(params, Mapping):
        raise ValueError(
            f"'params' must be an object; got {short_repr(params)}"
        )
    spec = _KIND_TABLE[kind][3]
    if "method" in spec:
        method = _checked(kind, "method", params.get("method"), _METHOD)
        spec = {**spec, **GHD_CAPS[method]}
    unknown = [name for name in params if name not in spec]
    if unknown:
        raise ValueError(
            f"unknown params for {kind!r}: {short_repr(unknown)[1:-1]}"
            f"; valid: {', '.join(spec)}"
        )
    normalised = {}
    for name, param in spec.items():
        value = _checked(kind, name, params.get(name), param)
        if value != param.default:
            normalised[name] = value
    return normalised


def _checked(kind: str, name: str, value, param: _Param):
    """One param's value, checked against ``param``; None is the default."""
    if value is None:
        if param.required:
            raise ValueError(f"{kind!r} requests need params['{name}']")
        return param.default
    if param.choices:
        if value not in param.choices:
            raise ValueError(
                f"{name} must be one of {param.choices}; "
                f"got {short_repr(value)}"
            )
    elif isinstance(value, bool) or not isinstance(value, param.types) or (
        isinstance(value, float) and not math.isfinite(value)
    ):
        names = "/".join(t.__name__ for t in param.types)
        raise ValueError(f"{name} must be {names}; got {short_repr(value)}")
    if param.minimum is not None and value < param.minimum:
        raise ValueError(
            f"{name} must be >= {param.minimum}; got {short_repr(value)}"
        )
    if param.maximum is not None and value > param.maximum:
        raise ValueError(
            f"{name} must be <= {param.maximum}; got {short_repr(value)}"
        )
    return value


_LOG = logging.getLogger(__name__)

_EPS = 1e-9


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
        The request's params, each a name its kind's spec takes (e.g.
        ``{"kmax": 3}`` for width searches, ``{"k": 2}`` — required —
        for check kinds, ``{"vertex_limit": 12}`` for the exact
        oracles, ``{"cost": "integral"}`` for bounds).  The run checks
        them with :func:`request_params` before anything else, failing
        the request with a ``ValueError`` on a bad name or value, and
        replaces them with their normalised form (defaults dropped).
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
        The same value the corresponding :mod:`repro.algorithms`
        function returns: ``(width, decomposition)`` for ``hw`` / ``ghw``
        / ``ghw-exact`` / ``fhw``, ``(lower, upper, decomposition)``
        for ``bounds``, and ``Decomposition | None`` for check kinds.
    error : Exception or None
        The failure of this request, if any.
    anytime_width : float or None
        The width of the bounds pre-pass witnesses stitched together
        (``max(1, max block upper bounds)``) — a valid, possibly
        non-optimal answer in hand before any exact check ran — or
        None when some block had no witness or the pre-pass was off.
    stats : BatchStats or None
        The statistics of the run that resolved this request, shared by
        every result of that run (None until the run finishes).
    """

    index: int
    request: BatchRequest
    value: object = None
    error: Exception | None = None
    anytime_width: float | None = None
    stats: BatchStats | None = None
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
        Blocks the pre-pass decided (the exact engine never ran for
        them): each settled at a validated portfolio witness.  The
        blocks of a check the bounds reject count in
        ``bounds_checks_avoided`` only.
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
        Records this run wrote back to the store (not those of other
        runs sharing the store).
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
        This run's own engine work (its :func:`~repro.engine.counting`
        scope plus each task's counts, returned by every executor), so
        concurrent runs never count each other's; a task that raises
        reports none.
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
        """The statistics as a JSON-ready dictionary.

        Every field, plus the two derived rates.
        """
        return {
            **asdict(self),
            "requests_per_second": round(self.requests_per_second, 4),
            "hit_rate": round(self.hit_rate, 4),
        }


def _decomposition_kind(kind: str, params: Mapping) -> str:
    """The decomposition kind of a request's witness: its kind's own,
    or a GHD under ``cost="integral"`` (bounds, heuristics)."""
    return "ghd" if params.get("cost") == "integral" else _KIND_TABLE[kind][0]


def stored_answer(store: ResultStore, request: BatchRequest) -> tuple | None:
    """A request's persisted full answer as ``(value,)``, or None.

    The one instance-record lookup: the scheduler's fast path and the
    serve daemon's event-loop hit both come here.  ``request.params``
    must be normalised (:func:`request_params`).  The answer goes
    through :meth:`~repro.store.ResultStore.get_instance`, so its frame
    is re-read and CRC-checked and its witness re-validated against
    this request's hypergraph, kind and width; a damaged or mismatched
    record is a miss.  A check rejection is ``(None,)``.
    """
    params = request.params
    return store.get_instance(
        request.hypergraph, request.kind, params,
        _decomposition_kind(request.kind, params), params.get("k"),
    )


class _Instance:
    """Internal per-request state of a batch run.

    Every block of every kind holds one :class:`~.solve.BlockState`
    over the rung ladder its kind asks (see :data:`_KIND_TABLE`); what
    is left per kind is data: the solver, the ladder, the store record
    family and the final combine in :meth:`_assemble`.
    """

    __slots__ = (
        "index",
        "request",
        "result",
        "dkind",
        "solver",
        "family",
        "params",
        "k",
        "reduced",
        "blocks",
        "states",
        "in_flight",
        "finalized",
        "bounds_seconds",
        "bounds_ks_pruned",
        "bounds_checks_avoided",
        "bounds_blocks_decided",
        "store",
        "store_hit",
        "store_seeded",
        "store_appended",
        "store_write_errors",
        "exact_caps",
    )

    def __init__(self, index: int, request: BatchRequest) -> None:
        self.index = index
        self.request = request
        self.result = BatchResult(index, request)
        self.blocks = None
        self.in_flight = set()  # blocks with a task in the pool
        self.finalized = False
        self.bounds_seconds = 0.0
        self.bounds_ks_pruned = 0
        self.bounds_checks_avoided = 0
        self.bounds_blocks_decided = 0
        self.store = None
        self.store_hit = False
        self.store_seeded = set()
        self.store_appended = 0
        self.store_write_errors = 0
        self.exact_caps = {}  # exact-oracle block -> portfolio witness width

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
        """Normalise the request's params (:func:`request_params`) and
        run its reduce + split + bounds stages.

        With a ``store``, a persisted full answer (:func:`stored_answer`)
        short-circuits the whole pipeline (the instance fast path: no
        reduce, no bounds, no tasks), and persisted per-block verdicts
        seed the block states so only genuinely new blocks reach the
        bounds pass and the exact engine.
        """
        request = self.request
        request.params = request_params(request.kind, request.params)
        if not isinstance(request.hypergraph, Hypergraph):
            raise TypeError(
                f"request {self.index} has no hypergraph: "
                f"{request.hypergraph!r}"
            )
        self.dkind = _decomposition_kind(request.kind, request.params)
        self.solver, self.family = _KIND_TABLE[request.kind][1:3]
        self.store = None if request.kind in _INTERNAL_KINDS else store
        params = dict(request.params)
        kmax = params.pop("kmax", None)
        self.k = params.pop("k", None)
        self.params = params
        store = self.store
        hit = None if store is None else stored_answer(store, request)
        if hit is not None:
            self.result._resolve(hit[0])
            self.finalized = True
            self.store_hit = True
            return
        self.reduced, self.blocks = prepare_instance(
            request.hypergraph, self.dkind, preprocess
        )
        # A search asks k = 1..cap; a check its one k; every other kind
        # the one rung None, whose verdict is the block's value.
        self.states = [
            BlockState(
                range(1, 1 + (
                    b.hypergraph.num_edges if kmax is None else kmax
                ))
                if self.family == "block"
                else (self.k,)
            )
            for b in self.blocks
        ]
        self._seed_from_store()
        self._seed_from_bounds(bounds)

    # -- facts -----------------------------------------------------------
    def record(self, b: int, k, verdict, persist: bool = True) -> None:
        """Fold one ``(k, verdict)`` fact into block ``b``'s state.

        Store hits, the bounds pre-pass and finished tasks all come in
        here.  When the fact decides the block (settles or exhausts
        it) and ``persist`` is set, that verdict is written to the
        result store at once, so a crash later in the batch still
        keeps every verdict paid for so far.
        """
        if self.states[b].record(k, verdict) and persist:
            self._persist_block(b)

    def _seed_from_store(self) -> None:
        """Record persisted block verdicts as facts.

        Store-decided blocks are excluded from the bounds pre-pass
        (which runs LP solves) and from task generation.  Kinds without
        a record family (``"bounds"`` and the heuristics) only use
        instance records.
        """
        store = self.store
        if store is None or self.family is None:
            return
        for b, block in enumerate(self.blocks):
            if self.rejected:
                break  # a stored rejection already answers the check
            facts = self._stored_facts(block.hypergraph, self.states[b])
            if facts is None:
                continue
            self.store_seeded.add(b)
            for k, verdict in facts:
                self.record(b, k, verdict, persist=False)

    def _stored_facts(self, block_h: Hypergraph, state) -> list | None:
        """A block's persisted verdicts as facts, or None on a miss."""
        store = self.store
        if self.family == "check":
            hit = store.get_check(block_h, self.dkind, self.k, self.params)
            return None if hit is None else [(self.k, hit[1])]
        get = (
            store.get_block if self.family == "block"
            else store.get_block_exact
        )
        hit = get(block_h, self.dkind, self.params)
        if hit is None:
            return None
        # One record seeds the whole ladder: a stored width is a pair of
        # bounds that meet (every smaller k is rejected by monotonicity).
        width, witness = hit
        return BlockBounds(self.dkind, width, width, witness).facts(
            state.ladder
        )

    def _seed_from_bounds(self, bounds: str) -> None:
        """Run the bounds pre-pass and record its verdicts as facts.

        Rungs below a block's lower bound are rejected and its
        validated witness is accepted at the first rung it fits under
        (:meth:`~.bounds.BlockBounds.facts`): a search starts at the
        lower bound, stops at the witness at the latest and settles at
        once when the bounds meet; an exact oracle skips a decided
        block and caps the search of an open one.  A check kind takes a
        witness only for a complete hd/ghd check (no enumeration caps)
        and is answered None by any block whose lower bound exceeds k.
        The heuristic kinds (no record family) skip the pass: they
        *are* heuristics.  Blocks already decided by the store are
        excluded: their verdicts stand, and bounding them again would
        spend LP solves for nothing.  When every block holds a witness,
        their stitched width is the request's anytime answer.
        """
        if bounds == "none" or self.family is None or self.rejected:
            return  # (a stored rejection leaves nothing to bound)
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
            bounds_map[b].upper if b in bounds_map
            else self._width_witness(state)[0]
            for b, state in enumerate(self.states)
        ]
        if uppers and max(uppers) < math.inf:
            self.result.anytime_width = max(1.0, *map(float, uppers))
        facts = {
            b: bound.facts(self.states[b].ladder)
            for b, bound in bounds_map.items()
        }
        # Rejections first: one answers a check outright.  They are not
        # persisted, as the pre-pass recomputes them for free.
        for b, block_facts in facts.items():
            for k, verdict in block_facts:
                if verdict is None:
                    self.record(b, k, None, persist=False)
        if self.rejected:
            self.bounds_checks_avoided += len(self.blocks)
            return
        trust_witness = self.family != "check" or (
            self.dkind in ("hd", "ghd") and set(self.params) <= {"method"}
        )
        for b, block_facts in facts.items():
            state = self.states[b]
            for k, verdict in block_facts:
                if verdict is not None and trust_witness:
                    self.record(b, k, verdict)
            rejected = sum(verdict is None for _k, verdict in block_facts)
            self.bounds_checks_avoided += rejected + state.settled
            if self.family == "block":
                # k values settled without a check: the rejected ones,
                # and the witness's k with every k above it.
                self.bounds_ks_pruned += rejected + sum(
                    len(state.ladder) - state.ladder.index(k)
                    for k, verdict in block_facts
                    if verdict is not None
                )
            self.bounds_blocks_decided += state.settled
            if self.family == "block-exact" and not state.settled:
                # The witness width caps the exact search; it travels in the
                # task params only, so store keys never see it.
                if bounds_map[b].upper < math.inf:
                    self.exact_caps[b] = bounds_map[b].upper

    def _width_witness(self, state) -> tuple:
        """``(width, witness)`` of a block's verdict (inf while open)."""
        if not state.settled:
            return math.inf, None
        if self.family == "block":
            return state.rung, state.value
        if self.family == "check":
            return state.value.width(), state.value
        return state.value  # the exact oracles' (width, witness)

    def _persist_block(self, b: int) -> None:
        """Write one decided block's verdict back to the store.

        A check kind writes every verdict, rejections included; the
        other families write settled blocks only.  Idempotent (the
        store skips existing keys) and best-effort: a full disk must
        not fail the request that just solved, but it is counted and
        logged (:meth:`_write_failed`).
        """
        store = self.store
        if store is None or self.family is None:
            return
        block_h = self.blocks[b].hypergraph
        state = self.states[b]
        try:
            if self.family == "check":
                self.store_appended += store.put_check(
                    block_h, self.dkind, self.k, self.params, state.value
                )
            elif state.settled:
                put = (
                    store.put_block if self.family == "block"
                    else store.put_block_exact
                )
                self.store_appended += put(
                    block_h, self.dkind, self.params,
                    *self._width_witness(state)
                )
        except OSError as exc:
            self._write_failed(f"block {b}", exc)

    def _persist_instance(self, value) -> None:
        """Write the stitched full answer back as an instance record."""
        store = self.store
        if store is None:
            return
        request = self.request
        try:
            self.store_appended += store.put_instance(
                request.hypergraph, request.kind, request.params, value
            )
        except OSError as exc:
            self._write_failed("instance", exc)

    def _write_failed(self, what: str, exc: OSError) -> None:
        self.store_write_errors += 1
        _LOG.warning(
            "result store write failed (%s request %r, %s): %s",
            self.request.kind, self.request.label, what, exc,
        )

    # -- task generation ----------------------------------------------
    def task_params(self, b: int, k) -> dict:
        if k is not None:
            return {"k": k, **self.params}
        if b in self.exact_caps:
            return {**self.params, "upper": self.exact_caps[b]}
        return dict(self.params)

    def next_tasks(self, budget: int) -> list[tuple[int, object]]:
        """Up to ``budget`` ``(block, rung)`` task keys, in block order:
        the next rung of every open block with no task in flight."""
        if not self.active or self.blocks is None or self.solved:
            return []
        return [
            (b, state.next_rung)
            for b, state in enumerate(self.states)
            if not state.done and b not in self.in_flight
        ][:budget]

    def unsubmitted_blocks(self) -> int:
        """Open blocks never handed to the pool.

        They count as cancelled work once the request is answered
        early.  A width search counts none: how many checks an
        unstarted search would have run is unknown.
        """
        if self.family == "block":
            return 0
        return sum(
            1
            for b, state in enumerate(self.states)
            if not state.done and b not in self.in_flight
        )

    @property
    def rejected(self) -> bool:
        """A check some block rejected: the request's answer is None."""
        return self.family == "check" and any(
            state.exhausted for state in self.states
        )

    @property
    def solved(self) -> bool:
        """Whether the answer is decided: every block is, or one block
        is exhausted (a check's rejection, a search's cap error)."""
        if self.blocks is None:
            return False
        return any(state.exhausted for state in self.states) or all(
            state.done for state in self.states
        )

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
        if self.rejected:
            return None
        exhausted = [s.ladder for s in self.states if s.exhausted]
        if exhausted:  # a search ran out of its cap on some block
            cap = min(ladder.stop - 1 for ladder in exhausted)
            raise ValueError(CAP_MESSAGES[kind].format(cap=cap))
        results = [state.value for state in self.states]
        if self.family == "check":
            return self._stitch(results, self.k + _EPS)
        if self.family == "block":
            width = max([1, *(state.rung for state in self.states)])
            return width, self._stitch(results, width + _EPS)
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
    cross-request and cross-block parallelism, one rung per open block
    at a time.  Results land in the :class:`BatchResult` handles returned
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
        lower bound, stop it at the portfolio witness, and skip
        the exact engine outright for decided blocks.  Answers are
        identical in every mode but one case: a valid cap that runs
        out (``vertex_limit``, ``max_sets``) can only fail inside a
        task, so a block the pre-pass decides answers under
        ``"portfolio"`` where ``"none"`` fails (the pinned
        ``triangles(3)/fhw-dp-limit`` and ``ghw-cap-hit`` rows of
        ``tests/scheduler_identity.json``).
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
    def _cancel(self, instance, in_flight, stats) -> None:
        """Cancel an answered instance's pending pool work and count
        what it saved, never-submitted blocks included."""
        stats.tasks_cancelled += instance.unsubmitted_blocks()
        for future, (i, _b, _k) in in_flight.items():
            if i == instance.index and future.cancel():
                stats.tasks_cancelled += 1

    def _finalize_ready(self, stats) -> None:
        for instance in self.instances:
            if instance.active and instance.solved and not instance.in_flight:
                t0 = time.perf_counter()
                instance.finalize()
                stats.stitch_seconds += time.perf_counter() - t0

    def _collect(self, inst, b, k, future, in_flight, stats, counts) -> None:
        """Fold one finished task of block ``b`` into its request, and
        its engine work into the run's ``counts``."""
        if future.cancelled():
            return
        stats.tasks_run += 1
        try:
            value, task_counts = future.result()
        except Exception as exc:
            if inst.active:
                inst.fail(exc)
                self._cancel(inst, in_flight, stats)
            return
        counts.add(task_counts)
        if not inst.active:
            return
        # Cancel only on the request's *transition* to answered, so
        # each avoided task is counted exactly once: a request answered
        # with blocks still open (a rejected check, an exhausted search)
        # drops every task it has left.
        solved = inst.solved
        inst.record(b, k, value)
        if inst.solved and not solved:
            self._cancel(inst, in_flight, stats)

    def _drive(self, stats: BatchStats, counts) -> None:
        with make_pool(self.executor, self.jobs) as pool:
            in_flight: dict = {}  # future -> (instance, block, k)
            while any(inst.active for inst in self.instances):
                free = self.jobs - len(in_flight)
                if free > 0:
                    candidates = [
                        (inst, b, k)
                        for inst in self.instances
                        for b, k in inst.next_tasks(free)
                    ]
                    for inst, b, k in candidates[:free]:
                        inst.in_flight.add(b)
                        future = pool.submit(
                            run_block_task,
                            inst.solver,
                            inst.blocks[b].hypergraph,
                            inst.task_params(b, k),
                        )
                        in_flight[future] = (inst.index, b, k)
                if not in_flight:
                    # Nothing running and nothing submittable: every
                    # open request is solved; stitch them.
                    for inst in self.instances:
                        if inst.active and not inst.solved:  # pragma: no cover
                            inst.fail(
                                RuntimeError("batch scheduler stalled (bug)")
                            )
                    self._finalize_ready(stats)
                    continue
                done, _pending = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    i, b, k = in_flight.pop(future)
                    inst = self.instances[i]
                    self._collect(
                        inst, b, k, future, in_flight, stats, counts
                    )
                    # Released only now: while the rest of a failed
                    # request is cancelled, the block whose task just
                    # failed still counts as submitted.
                    inst.in_flight.discard(b)
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
            activity; also set as ``stats`` on every
            :class:`BatchResult` handle from :meth:`submit`, next to
            that request's outcome.
        """
        stats = BatchStats(
            requests=len(self.instances),
            jobs=self.jobs,
            executor=self.executor,
            preprocess=self.preprocess,
            bounds=self.bounds,
        )
        with counting() as counts:
            self._run(stats, counts)
        stats.lp_solves = counts.lp_solves
        stats.set_cover_solves = counts.set_cover_solves
        stats.cache_hits = counts.hits
        stats.cache_misses = counts.misses
        for instance in self.instances:
            instance.result.stats = stats
        return stats

    def _run(self, stats: BatchStats, counts) -> None:
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
        self._drive(stats, counts)
        stats.solve_seconds = time.perf_counter() - t_solve
        stats.total_seconds = time.perf_counter() - t_start
        stats.failures = sum(1 for inst in self.instances if inst.failed)
        stats.store_write_errors = sum(
            inst.store_write_errors for inst in self.instances
        )
        stats.store_records_appended = sum(
            inst.store_appended for inst in self.instances
        )


def solve_many(
    requests,
    *,
    jobs: int | None = None,
    preprocess: str = "full",
    executor: str = "thread",
    bounds: str = "portfolio",
    store: ResultStore | str | None = None,
) -> list[BatchResult]:
    """Solve a batch of width queries on one shared scheduler.

    The batched answers are exactly the one-request answers of the
    :mod:`repro.algorithms` functions; what changes is the serving
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
    bounds : str, optional
        Bounds pre-pass mode for every instance — ``"portfolio"``
        (default), ``"clique"`` or ``"none"``; see
        :data:`~repro.pipeline.bounds.BOUNDS_MODES`.  Only affects
        which exact checks run, hence not the answers, save a cap
        that runs out (see :class:`BatchScheduler`).
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
        If ``preprocess``, ``executor`` or ``bounds`` is
        invalid — batch-level configuration errors raise; per-request
        problems do not.
    """
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
        scheduler.run()
    finally:
        if owned_store:
            scheduler.store.close()
    return results

"""Launch ``repro.cli`` with per-layer spans recorded around its layers.

Usage (the benchmark starts it; nothing in ``src/`` changes)::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json serve --port 0 ...

Before handing the arguments to ``repro.cli.main``, this wraps the
public functions and methods of each layer.  A wrapped call records a
span: name, start and end (``perf_counter_ns``), its own id, its
parent's id, a request id and the thread.  Each HTTP request handled by
``DecompositionServer._route`` starts a new request id.  The current
span lives in a ``contextvars`` variable; ``ThreadPoolExecutor.submit``
is wrapped to run every task in a copy of the submitter's context, so
spans on the serve executor and on block-solve pool threads keep their
parent and request id.

Two layers are called too often for one span per call: the cover
oracle and the LP backends.  Their calls are counted and timed into the
innermost enclosing span instead (``agg``), like a per-task LP count.

A name is patched where it is looked up: every loaded ``repro`` module
that holds the original function under that name gets the wrapper.  A
call nested in a call of the same layer is not recorded again.  When the
process exits (the daemon stops on SIGINT), every span is written to
SPANS.json; ``layers.py`` turns them into metrics and a Chrome trace.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# A span record: [name, start_ns, end_ns, id, parent_id, request_id,
# thread_id, args, agg].  ``agg`` maps a fine layer to
# [calls, ns, hits, misses].
NAME, START, END, SID, PARENT, RID, TID, ARGS, AGG = range(9)


class Recorder:
    """Thread-safe, in-memory span store of one process."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.spans: list[list] = []
        self.span_ids = itertools.count(1)
        self.request_ids = itertools.count(1)
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self.fine_active = threading.local()

    def _open(self, name: str, root: bool):
        parent = self.current.get()
        if parent is not None and parent[NAME] == name:
            return None, None
        rid = next(self.request_ids) if root else (
            parent[RID] if parent is not None else None
        )
        record = [
            name, time.perf_counter_ns(), 0, next(self.span_ids),
            parent[SID] if parent is not None else 0, rid,
            threading.get_ident(), None, None,
        ]
        return record, self.current.set(record)

    def _close(self, record, token, args) -> None:
        record[END] = time.perf_counter_ns()
        record[ARGS] = args
        self.current.reset(token)
        with self.lock:
            self.spans.append(record)

    def span(self, name, fn, *, root=False, args_of=None):
        """Wrap a synchronous callable in a recorded span."""

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            record, token = self._open(name, root)
            if record is None:
                return fn(*a, **kw)
            result = args = None
            try:
                result = fn(*a, **kw)
                if args_of is not None:
                    args = args_of(a, kw, result)
                return result
            finally:
                self._close(record, token, args)

        return wrapper

    def async_span(self, name, fn, *, root=False, args_of=None):
        """Wrap a coroutine function in a recorded span."""

        @functools.wraps(fn)
        async def wrapper(*a, **kw):
            record, token = self._open(name, root)
            if record is None:
                return await fn(*a, **kw)
            args = None
            try:
                result = await fn(*a, **kw)
                if args_of is not None:
                    args = args_of(a, kw, result)
                return result
            finally:
                self._close(record, token, args)

        return wrapper

    def fine(self, name, fn, counters=None):
        """Count and time calls into the innermost enclosing span."""
        active = self.fine_active

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            if getattr(active, name, False):
                return fn(*a, **kw)
            setattr(active, name, True)
            before = counters(a) if counters is not None else (0, 0)
            t0 = time.perf_counter_ns()
            try:
                return fn(*a, **kw)
            finally:
                elapsed = time.perf_counter_ns() - t0
                setattr(active, name, False)
                after = counters(a) if counters is not None else (0, 0)
                record = self.current.get()
                if record is not None:
                    with self.lock:
                        agg = record[AGG]
                        if agg is None:
                            agg = record[AGG] = {}
                        slot = agg.setdefault(name, [0, 0, 0, 0])
                        slot[0] += 1
                        slot[1] += elapsed
                        slot[2] += after[0] - before[0]
                        slot[3] += after[1] - before[1]

        return wrapper

    def dump(self, path: str) -> None:
        with self.lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans}, fh)


def _import_all(package) -> None:
    """Import every submodule, so lazily imported names get patched too."""
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        try:
            importlib.import_module(info.name)
        except ImportError:
            pass


def _patch_everywhere(original, wrapper) -> int:
    """Rebind ``original`` to ``wrapper`` in every loaded repro module."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                count += 1
    return count


def _patch_method(rec, cls, method, name, kind="span", **options) -> None:
    fn = cls.__dict__[method]
    if kind == "async":
        wrapped = rec.async_span(name, fn, **options)
    elif kind == "fine":
        wrapped = rec.fine(name, fn, **options)
    else:
        wrapped = rec.span(name, fn, **options)
    setattr(cls, method, wrapped)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _propagate_context() -> None:
    """Run every thread-pool task in a copy of its submitter's context."""
    submit = ThreadPoolExecutor.submit

    def submit_in_context(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    ThreadPoolExecutor.submit = submit_in_context


def install(rec: Recorder) -> list[str]:
    """Wrap every measured layer; return the names that could not be."""
    import repro

    _import_all(repro)
    evaluate = importlib.import_module("repro.cqcsp.evaluate")
    planner = importlib.import_module("repro.cqcsp.planner")
    yannakakis = importlib.import_module("repro.cqcsp.yannakakis")
    from repro.engine.backends import LPBackend
    from repro.engine.oracle import CoverOracle
    from repro.engine.search import CheckSearch
    from repro.pipeline import batch, solve, solver
    from repro.pipeline.batch import BatchScheduler
    from repro.serve import protocol
    from repro.serve.server import DecompositionServer
    from repro.store import ResultStore, log

    _propagate_context()
    missing: list[str] = []

    def function(module, attr, name, **options):
        original = getattr(module, attr, None)
        if original is None or not _patch_everywhere(
            original, rec.span(name, original, **options)
        ):
            missing.append(f"{module.__name__}.{attr}")

    function(protocol, "request_from_payload", "serve.decode")
    function(protocol, "query_request_from_payload", "serve.decode")
    function(solver, "prepare_instance", "pipeline.prepare")
    function(batch, "compute_block_bounds", "pipeline.bounds")
    function(solve, "run_block_task", "pipeline.task")
    function(solve, "run_gated_block_task", "pipeline.task")
    function(solver, "stitch_instance", "pipeline.stitch")
    function(log, "checked_witness", "store.revalidate")
    function(log, "validate", "decomposition.validate")
    function(evaluate, "node_relations_from_ghd", "cqcsp.build")
    function(yannakakis, "yannakakis", "cqcsp.yannakakis")

    def route_args(a, kw, result):
        return {"path": a[2], "status": result[0]}

    def run_args(a, kw, stats):
        return {
            "blocks": stats.blocks,
            "bounds_blocks_decided": stats.bounds_blocks_decided,
            "tasks_run": stats.tasks_run,
            "store_instance_hits": stats.store_instance_hits,
        }

    def oracle_counters(a):
        stats = a[0].stats
        return stats.hits, stats.misses

    methods = [
        (DecompositionServer, "_route", "serve.request", "async",
         {"root": True, "args_of": route_args}),
        (BatchScheduler, "run", "pipeline.run", "span",
         {"args_of": run_args}),
        (CheckSearch, "run", "engine.search", "span", {}),
        (ResultStore, "__init__", "store.open", "span", {}),
        (ResultStore, "append", "store.append", "span",
         {"args_of": lambda a, kw, r: {"appended": bool(r)}}),
        (planner.QueryPlanner, "plan_detailed", "cqcsp.plan", "span",
         {"args_of": lambda a, kw, r: {"cache_hit": r[1].cache_hit}}),
        (planner.QueryPlanner, "execute", "cqcsp.execute", "span", {}),
    ]
    for method in ("get_instance", "get_block", "get_block_exact", "get_check"):
        methods.append(
            (ResultStore, method, "store.lookup", "span",
             {"args_of": lambda a, kw, r: {"hit": r is not None}})
        )
    for method in (
        "fractional_cover", "fractional_weight", "cover_feasible_within",
        "fractional_cover_capped", "integral_cover", "greedy_cover",
    ):
        methods.append(
            (CoverOracle, method, "engine.oracle", "fine",
             {"counters": oracle_counters})
        )
    for backend in _subclasses(LPBackend):
        if "solve_covering_lp" in backend.__dict__:
            methods.append(
                (backend, "solve_covering_lp", "covers.lp", "fine", {})
            )
    for cls, method, name, kind, options in methods:
        if method in cls.__dict__:
            _patch_method(rec, cls, method, name, kind, **options)
        else:
            missing.append(f"{cls.__name__}.{method}")
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[1:]
    rec = Recorder()
    missing = install(rec)
    if missing:
        print(f"tracer: not patched: {', '.join(missing)}", file=sys.stderr)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        rec.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""A ``concurrent.futures`` executor backed by the worker fleet.

:class:`RemoteExecutor` implements exactly the surface the pipeline's
one drive loop consumes — ``submit`` / ``wait`` / ``cancel`` on plain
:class:`~concurrent.futures.Future` objects — so
:meth:`BatchScheduler.run <repro.pipeline.batch.BatchScheduler>` (and
with it every :class:`~repro.pipeline.WidthSolver` query) runs on it
unchanged, selected by ``executor="remote"``.

Placement and failure semantics:

* ``run_block_task`` payloads queue on the driver as JSON task frames
  and dispatch through
  :meth:`WorkerRegistry.dispatch <repro.dist.registry.WorkerRegistry>`
  (least-loaded worker with a free slot) as capacity allows; anything
  else — or a task that cannot travel as JSON — runs on a local thread
  pool.  A result frame that does not decode fails its task's future.
* A remote future never enters RUNNING — it resolves straight from
  PENDING — so ``Future.cancel()`` always succeeds before completion,
  exactly like cancelling a queued pool task.  The cancellation is
  then *forwarded*: a done-callback sends a cancel frame, which the
  worker answers by dequeuing the task if it has not started.  Late
  results for cancelled tasks are discarded.
* When a worker dies, the registry reports each of its in-flight
  tasks via :meth:`_task_lost`; the task requeues at the front and
  redispatches onto survivors (``requeued_tasks`` counts these).
* With **zero** registered workers, queued tasks drain to the local
  pool instead — ``executor="remote"`` degrades to roughly
  ``executor="thread"``, it never deadlocks.

The executor is a view onto a shared :class:`WorkerRegistry`:
``shutdown`` detaches from the registry and stops the local fallback
pool but leaves the registry (and its workers) running for the next
batch.
"""

from __future__ import annotations

import builtins
import itertools
import threading
from collections import deque
from concurrent.futures import Executor, Future, InvalidStateError

from ..pipeline.solve import run_block_task
from ..serve.protocol import (
    ProtocolError,
    answer_from_payload,
    hypergraph_to_payload,
)
from ..store import params_fingerprint

__all__ = ["RemoteExecutor"]

_EXECUTOR_IDS = itertools.count(1)


class _RemoteTask:
    """One submitted ``run_block_task`` payload, its frame and future."""

    __slots__ = ("task_id", "future", "args", "frame", "dispatched")

    def __init__(self, task_id: str, future: Future, args: tuple, frame=None):
        self.task_id = task_id
        self.future = future
        self.args = args
        self.frame = frame
        self.dispatched = False


def _task_frame(task_id: str, solver: str, hypergraph, params: dict):
    """The JSON task frame of a block task, or None if it cannot travel:
    bags come back as vertex-name strings, so a block whose names
    collide under ``str`` stays local, as do params that are not JSON."""
    if len({str(v) for v in hypergraph.vertices}) < len(hypergraph.vertices):
        return None
    if params_fingerprint(params) == "!opaque":
        return None
    return {
        "type": "task",
        "task": task_id,
        "solver": solver,
        "hypergraph": hypergraph_to_payload(hypergraph),
        "params": params,
    }


def _remote_error(payload) -> Exception:
    """Rebuild a worker's ``{"type", "message"}`` error: a builtin
    exception class by name, else a ``RuntimeError`` naming it."""
    if not isinstance(payload, dict):
        payload = {"message": payload}
    name, message = str(payload.get("type")), payload.get("message")
    cls = getattr(builtins, name, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            return cls(message)
        except Exception:  # a builtin with a richer constructor
            pass
    return RuntimeError(f"remote task failed: {name}: {message}")


class RemoteExecutor(Executor):
    """Run block tasks on a registry's worker fleet.

    Parameters
    ----------
    registry : WorkerRegistry
        The fleet to dispatch through (shared across executors; not
        closed by :meth:`shutdown`).
    jobs : int, optional
        Width of the local *fallback* thread pool used when no worker
        is registered (default 1).  Remote concurrency is bounded by
        the fleet's announced capacity, not by ``jobs``.

    Attributes
    ----------
    tasks_remote : int
        Tasks dispatched to workers (including re-dispatches).
    tasks_local : int
        Tasks that ran on the local fallback pool.
    requeued_tasks : int
        Tasks requeued because their worker died mid-flight.
    """

    def __init__(self, registry, jobs: int = 1) -> None:
        self.registry = registry
        self.jobs = max(1, int(jobs or 1))
        self._lock = threading.Lock()
        self._tasks: dict[str, _RemoteTask] = {}
        self._queue: deque[str] = deque()
        self._counter = itertools.count(1)
        self._eid = next(_EXECUTOR_IDS)
        self._local = None
        self._is_shutdown = False
        self._pumping = False
        self._pump_again = False
        self.tasks_remote = 0
        self.tasks_local = 0
        self.requeued_tasks = 0
        self._workers_used: set[int] = set()
        registry.attach(self)

    # ------------------------------------------------------------------
    # Executor surface
    # ------------------------------------------------------------------
    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Schedule a call; ``run_block_task`` payloads go to the fleet.

        Anything else runs on the local fallback pool (the drive loop
        only ever submits ``run_block_task`` here, but the Executor
        contract stays total).
        """
        future: Future = Future()
        with self._lock:
            if self._is_shutdown:
                raise RuntimeError(
                    "cannot schedule new futures after shutdown"
                )
        task_id = f"t{self._eid}-{next(self._counter)}"
        frame = None
        if fn is run_block_task and not kwargs and len(args) == 3:
            frame = _task_frame(task_id, *args)
        if frame is not None:
            task = _RemoteTask(task_id, future, args, frame)
            with self._lock:
                self._tasks[task_id] = task
                self._queue.append(task_id)

            def _watch_cancel(fut, task_id=task_id):
                if fut.cancelled():
                    # Promote CANCELLED to CANCELLED_AND_NOTIFIED: a pool
                    # worker would do this when dequeuing the task, and
                    # concurrent.futures.wait() only treats the notified
                    # state as done.  Without it a cancelled remote
                    # future parks wait() forever.
                    try:
                        fut.set_running_or_notify_cancel()
                    except InvalidStateError:
                        pass  # already notified elsewhere
                    self._forward_cancel(task_id)

            future.add_done_callback(_watch_cancel)
            self._pump()
        else:
            # Not a block-task payload: run it on the local pool (the
            # drive loop only ever submits run_block_task here, but the
            # Executor contract stays total).
            self._run_local(_RemoteTask("", future, args), fn, kwargs)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Stop accepting work and detach from the registry.

        The registry (and its workers) stay up for the next executor;
        only the local fallback pool is torn down here.
        """
        with self._lock:
            self._is_shutdown = True
            queued = (
                [self._tasks[t].future for t in self._queue if t in self._tasks]
                if cancel_futures
                else []
            )
        for future in queued:
            future.cancel()
        if wait:
            self._wait_all()
        self.registry.detach(self)
        local = self._local
        if local is not None:
            local.shutdown(wait=wait)

    def _wait_all(self) -> None:
        from concurrent.futures import wait as cf_wait

        while True:
            with self._lock:
                pending = [
                    t.future for t in self._tasks.values() if not t.future.done()
                ]
            if not pending:
                return
            cf_wait(pending, timeout=0.2)
            self._pump()  # belt and braces: redispatch anything stalled

    # ------------------------------------------------------------------
    # Stats (folded into BatchStats by the batch drive loop)
    # ------------------------------------------------------------------
    def remote_stats(self) -> dict:
        """Counters of this executor's run, JSON-ready."""
        with self._lock:
            return {
                "tasks_remote": self.tasks_remote,
                "tasks_local": self.tasks_local,
                "requeued_tasks": self.requeued_tasks,
                "workers_used": len(self._workers_used),
            }

    # ------------------------------------------------------------------
    # Dispatch pump
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Dispatch queued tasks while the fleet has capacity.

        Runs in whatever thread noticed capacity (submit, a registry
        reader, the reaper); a single-flight guard collapses concurrent
        pumps into one pass plus a rerun, keeping dispatch order stable
        without holding any lock across the socket write.
        """
        with self._lock:
            if self._pumping:
                self._pump_again = True
                return
            self._pumping = True
        while True:
            progressed = self._pump_once()
            with self._lock:
                if progressed and self._queue:
                    continue
                if self._pump_again:
                    self._pump_again = False
                    continue
                self._pumping = False
                return

    def _pump_once(self) -> bool:
        """One pass over the queue; whether anything left the queue."""
        progressed = False
        while True:
            with self._lock:
                if not self._queue:
                    return progressed
                task_id = self._queue.popleft()
                task = self._tasks.get(task_id)
            if task is None or task.future.cancelled():
                progressed = True
                continue
            conn = self.registry.dispatch(task_id, self, task.frame)
            if conn is not None:
                with self._lock:
                    task.dispatched = True
                    self.tasks_remote += 1
                    self._workers_used.add(conn.wid)
                progressed = True
                continue
            if self.registry.worker_count() == 0:
                # Degrade, never deadlock: no fleet means the local
                # fallback pool runs the task.
                self._run_local(task)
                progressed = True
                continue
            # Fleet is saturated: requeue at the front and wait for the
            # next capacity notification.
            with self._lock:
                self._queue.appendleft(task_id)
            return progressed

    # ------------------------------------------------------------------
    # Local fallback
    # ------------------------------------------------------------------
    def _ensure_local(self):
        from concurrent.futures import ThreadPoolExecutor

        with self._lock:
            if self._local is None:
                self._local = ThreadPoolExecutor(
                    max_workers=self.jobs,
                    thread_name_prefix="repro-remote-fallback",
                )
            return self._local

    def _run_local(self, task: _RemoteTask, fn=run_block_task, kwargs=None):
        pool = self._ensure_local()
        with self._lock:
            self.tasks_local += 1

        def call() -> None:
            try:
                running = task.future.set_running_or_notify_cancel()
            except InvalidStateError:
                # Cancelled and already notified by _watch_cancel.
                running = False
            if not running:
                self._forget(task.task_id)
                return
            try:
                value = fn(*task.args, **(kwargs or {}))
            except BaseException as exc:
                self._forget(task.task_id)
                task.future.set_exception(exc)
            else:
                self._forget(task.task_id)
                task.future.set_result(value)

        pool.submit(call)

    def _forget(self, task_id: str) -> None:
        if task_id:
            with self._lock:
                self._tasks.pop(task_id, None)

    # ------------------------------------------------------------------
    # Registry callbacks
    # ------------------------------------------------------------------
    def _deliver(self, task_id: str, kind: str, payload) -> None:
        """A worker answered ``task_id`` (result / error / cancelled)."""
        with self._lock:
            task = self._tasks.pop(task_id, None)
        if task is None:
            return  # cancelled (or already resolved): late reply, drop
        future = task.future
        if future.cancelled():
            return
        try:
            if kind == "result":
                solver, hypergraph, _params = task.args
                try:
                    value = answer_from_payload(solver, payload, hypergraph)
                    future.set_result(value)
                except ProtocolError as exc:
                    future.set_exception(exc)
            elif kind == "error":
                future.set_exception(_remote_error(payload))
            elif kind == "cancelled" and not future.cancelled():
                # The cancel normally originates here (the future is
                # already cancelled); resolve it if it somehow is not.
                future.cancel()
        except InvalidStateError:  # pragma: no cover - benign race
            pass

    def _task_lost(self, task_id: str) -> None:
        """``task_id``'s worker died: requeue onto survivors (or local)."""
        with self._lock:
            task = self._tasks.get(task_id)
            if task is None:
                return
            if task.future.cancelled() or task.future.done():
                self._tasks.pop(task_id, None)
                return
            task.dispatched = False
            self.requeued_tasks += 1
            self._queue.appendleft(task_id)
        # The registry notifies capacity right after reaping, which
        # pumps this queue; nothing more to do here.

    def _forward_cancel(self, task_id: str) -> None:
        """The driver cancelled ``task_id``'s future: propagate."""
        with self._lock:
            task = self._tasks.pop(task_id, None)
            if task is None:
                return
            dispatched = task.dispatched
            try:
                self._queue.remove(task_id)
            except ValueError:
                pass
        if dispatched:
            self.registry.cancel(task_id)

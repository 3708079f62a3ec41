"""The driver side of the worker fleet: :class:`WorkerRegistry`.

The registry owns one listening TCP socket that workers dial back to
(``repro worker --connect HOST:PORT``).  Each accepted connection gets
a reader thread; a shared health thread pings every worker and reaps
the unresponsive.  The registry itself schedules nothing — it offers
:class:`~repro.dist.executor.RemoteExecutor` three primitives:

* :meth:`dispatch` — least-loaded placement of one task frame, bounded
  by each worker's announced ``jobs`` capacity (per-worker in-flight
  accounting);
* :meth:`cancel` — forward a cancel frame to wherever a task went;
* callbacks — ``_deliver`` routes every ``result`` / ``error`` /
  ``cancelled`` frame back to the executor that submitted the task,
  ``_task_lost`` fires for each in-flight task of a dead worker (the
  executor requeues it onto survivors), and ``_pump`` pokes attached
  executors whenever capacity appears (a worker joined, a slot freed).

Locking discipline: the registry lock is never held while calling into
an executor, and executors never call registry methods while holding
their own lock — each component's lock only guards its own state, so
the reader threads, the health thread and driver threads cannot
deadlock across the two.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time

from .protocol import ProtocolError, recv_message, send_message

__all__ = ["WorkerRegistry", "WorkerConnection"]


class WorkerConnection:
    """One registered worker: its socket, capacity and in-flight tasks."""

    def __init__(self, wid: int, sock: socket.socket, addr, jobs: int, pid):
        self.wid = wid
        self.sock = sock
        self.addr = addr
        self.jobs = max(1, int(jobs or 1))
        self.pid = pid
        self.in_flight: set[str] = set()
        self.executed = 0
        self.last_seen = time.monotonic()
        self.alive = True
        self._send_lock = threading.Lock()

    def send(self, message: dict) -> bool:
        """Write one frame; False (and mark dead) on any failure."""
        if not self.alive:
            return False
        try:
            with self._send_lock:
                send_message(self.sock, message)
            return True
        except (OSError, ProtocolError):
            self.alive = False
            return False

    def describe(self) -> dict:
        """JSON-ready summary (``repro serve`` stats, tests)."""
        return {
            "id": self.wid,
            "addr": f"{self.addr[0]}:{self.addr[1]}",
            "pid": self.pid,
            "jobs": self.jobs,
            "in_flight": len(self.in_flight),
            "executed": self.executed,
        }


class WorkerRegistry:
    """Accept, track and health-check a fleet of dial-back workers.

    Parameters
    ----------
    host : str, optional
        Listening interface (default loopback).
    port : int, optional
        Listening port; 0 (default) picks an ephemeral one — read the
        resolved endpoint from :attr:`address`.
    ping_interval : float, optional
        Seconds between health pings (default 2).
    worker_timeout : float, optional
        Seconds of silence after which a worker is declared dead and
        its in-flight tasks requeue (default 10; heartbeats flow every
        ``ping_interval`` even while a worker is busy, so only a hung
        or vanished process trips this).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        ping_interval: float = 2.0,
        worker_timeout: float = 10.0,
    ) -> None:
        self.ping_interval = max(0.1, float(ping_interval))
        self.worker_timeout = max(self.ping_interval, float(worker_timeout))
        self._lock = threading.Lock()
        self._joined = threading.Condition(self._lock)
        self._workers: dict[int, WorkerConnection] = {}
        self._routes: dict[str, tuple[object, WorkerConnection]] = {}
        self._executors: set = set()
        self._ids = itertools.count(1)
        self._closed = False
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((host, int(port)))
        server.listen(64)
        self._server = server
        self.host, self.port = server.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-registry-accept", daemon=True
        )
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-registry-health", daemon=True
        )
        self._stop = threading.Event()
        self._accept_thread.start()
        self._health_thread.start()

    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """The resolved ``HOST:PORT`` workers should dial."""
        return f"{self.host}:{self.port}"

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (a closed registry stays closed)."""
        return self._closed

    def worker_count(self) -> int:
        """Number of currently registered, live workers."""
        with self._lock:
            return sum(1 for c in self._workers.values() if c.alive)

    def total_capacity(self) -> int:
        """Sum of the live workers' announced job slots."""
        with self._lock:
            return sum(c.jobs for c in self._workers.values() if c.alive)

    def workers(self) -> list[dict]:
        """JSON-ready per-worker summaries."""
        with self._lock:
            return [c.describe() for c in self._workers.values()]

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` workers registered; False on timeout."""
        deadline = time.monotonic() + timeout
        with self._joined:
            while len(self._workers) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    return False
                self._joined.wait(remaining)
        return True

    def attach(self, executor) -> None:
        """Register an executor for capacity-change notifications."""
        with self._lock:
            self._executors.add(executor)

    def detach(self, executor) -> None:
        """Stop notifying ``executor`` (inverse of :meth:`attach`)."""
        with self._lock:
            self._executors.discard(executor)

    # ------------------------------------------------------------------
    # Dispatch / cancel (called by executors; registry lock only)
    # ------------------------------------------------------------------
    def dispatch(self, task_id: str, executor, message: dict):
        """Send one task frame to the least-loaded worker with a free
        slot; the chosen :class:`WorkerConnection`, or None when the
        fleet has no capacity right now (the executor keeps the task
        queued and retries on the next capacity notification)."""
        while True:
            with self._lock:
                candidates = [
                    c
                    for c in self._workers.values()
                    if c.alive and len(c.in_flight) < c.jobs
                ]
                if not candidates:
                    return None
                conn = min(
                    candidates, key=lambda c: (len(c.in_flight), c.wid)
                )
                conn.in_flight.add(task_id)
                self._routes[task_id] = (executor, conn)
            if conn.send(message):
                return conn
            # The worker died under us: roll back this task's route
            # (so _reap does not double-requeue it) and try another.
            with self._lock:
                conn.in_flight.discard(task_id)
                self._routes.pop(task_id, None)
            self._reap(conn)

    def cancel(self, task_id: str) -> None:
        """Forward a cancel frame to the worker running ``task_id``.

        Best-effort: the route stays until the worker acknowledges
        (``cancelled`` frame) or replies anyway (late ``result`` /
        ``error``, discarded by the executor) — either frame frees the
        slot, and a dead worker frees it through :meth:`_reap`.
        """
        with self._lock:
            route = self._routes.get(task_id)
        if route is not None:
            route[1].send({"type": "cancel", "task": task_id})

    # ------------------------------------------------------------------
    # Connection serving
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, addr = self._server.accept()
            except OSError:
                return  # closed
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            threading.Thread(
                target=self._serve_worker,
                args=(sock, addr),
                name=f"repro-registry-worker-{addr[1]}",
                daemon=True,
            ).start()

    def _serve_worker(self, sock: socket.socket, addr) -> None:
        try:
            hello = recv_message(sock)
        except (ProtocolError, OSError):
            hello = None
        jobs = hello.get("jobs", 1) if isinstance(hello, dict) else None
        if type(jobs) is not int or hello.get("type") != "hello":
            try:
                sock.close()
            except OSError:
                pass
            return
        conn = WorkerConnection(
            wid=next(self._ids),
            sock=sock,
            addr=addr,
            jobs=jobs,
            pid=hello.get("pid"),
        )
        with self._joined:
            if self._closed:
                conn.alive = False
            else:
                self._workers[conn.wid] = conn
                self._joined.notify_all()
        if not conn.alive:
            try:
                sock.close()
            except OSError:
                pass
            return
        self._notify_capacity()
        try:
            while True:
                message = recv_message(sock)
                if message is None:
                    break
                conn.last_seen = time.monotonic()
                kind = message.get("type")
                task_id = message.get("task")
                if isinstance(task_id, str) and kind in ("result", "error", "cancelled"):
                    with self._lock:
                        route = self._routes.pop(task_id, None)
                        conn.in_flight.discard(task_id)
                    if route is not None:
                        payload = (
                            message.get("value")
                            if kind == "result"
                            else message.get("error")
                        )
                        route[0]._deliver(task_id, kind, payload)
                    self._notify_capacity()  # a slot just freed
                elif kind == "heartbeat":
                    conn.executed = message.get("executed", conn.executed)
                elif kind == "bye":
                    break
        except (ProtocolError, OSError):
            pass
        finally:
            self._reap(conn)

    def _health_loop(self) -> None:
        while not self._stop.wait(self.ping_interval):
            now = time.monotonic()
            with self._lock:
                conns = list(self._workers.values())
            for conn in conns:
                if now - conn.last_seen > self.worker_timeout:
                    conn.alive = False
                if conn.alive:
                    conn.send({"type": "ping"})
                if not conn.alive:
                    self._reap(conn)

    def _reap(self, conn: WorkerConnection) -> None:
        """Forget a dead worker; requeue its in-flight tasks."""
        with self._lock:
            if self._workers.pop(conn.wid, None) is None:
                return  # already reaped by another thread
            conn.alive = False
            lost = [
                (task_id, executor)
                for task_id, (executor, c) in self._routes.items()
                if c is conn
            ]
            for task_id, _executor in lost:
                del self._routes[task_id]
        try:
            conn.sock.close()
        except OSError:
            pass
        for task_id, executor in lost:
            executor._task_lost(task_id)
        self._notify_capacity()

    def _notify_capacity(self) -> None:
        """Poke every attached executor to (re)dispatch queued tasks."""
        with self._lock:
            executors = list(self._executors)
        for executor in executors:
            executor._pump()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting, tell workers to shut down, drop connections."""
        with self._joined:
            if self._closed:
                return
            self._closed = True
            self._joined.notify_all()
        self._stop.set()
        try:
            self._server.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._workers.values())
        for conn in conns:
            conn.send({"type": "shutdown"})
            self._reap(conn)

    def __enter__(self) -> "WorkerRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

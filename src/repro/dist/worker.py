"""The worker side of the remote executor: ``repro worker``.

A worker is the inverse of a server: it *dials back* to the driver's
:class:`~repro.dist.registry.WorkerRegistry` (``--connect HOST:PORT``),
announces its capacity in a ``hello`` frame, and then executes whatever
``task`` frames arrive on a local thread pool — each one the same plain
:func:`~repro.pipeline.solve.run_block_task` payload a thread or
process pool would run, in the JSON codec of :mod:`repro.serve.protocol`
(results in the answer schema of :mod:`repro.store`).
All scheduling intelligence (the settle protocol, bounds seeding, store
write-back, failure isolation) stays on the driver; a worker is
deliberately as dumb as a pool thread.

Lifecycle::

    connecting -> active -> (idle >= --idle-timeout) -> bye -> exit
                    |                                          ^
                    +-- driver shutdown / connection lost ------+

Cancellation mirrors the in-process pools: a ``cancel`` frame dequeues
the task if it has not started (acknowledged with a ``cancelled``
frame, exactly like ``Future.cancel`` succeeding); a task already
running finishes and sends its result.  Either way the driver has
already resolved its future; late results for cancelled tasks are
discarded on arrival.

Every task produces exactly one reply frame (``result``, ``error`` or
``cancelled``) unless the worker dies — the registry's invariant for
in-flight accounting and requeue-on-death — a task frame that does not
decode included.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from ..pipeline.solve import run_block_task
from ..serve.protocol import hypergraph_from_payload
from ..store import answer_payload
from .protocol import ProtocolError, recv_message, send_message

__all__ = ["WorkerClient", "spawn_worker"]


def _error_reply(task_id, exc: BaseException) -> dict:
    """The ``error`` frame of a failed task: its exception, by name."""
    return {
        "type": "error",
        "task": task_id,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


class WorkerClient:
    """One worker process's connection to a driver registry.

    Parameters
    ----------
    host, port : str, int
        The driver registry's listening endpoint.
    jobs : int, optional
        Concurrent tasks this worker executes (default 1); announced
        in the ``hello`` frame so the registry never over-dispatches.
    idle_timeout : float or None, optional
        Seconds without any active or arriving task after which the
        worker says ``bye`` and exits cleanly (default 300; ``None``
        or 0 disables auto-shutdown).
    heartbeat_interval : float, optional
        Seconds between unsolicited heartbeat frames (default 2).
    connect_timeout : float, optional
        Seconds to keep redialing a refused/unreachable endpoint
        before giving up (default 10).  A worker often races its
        driver at startup; retrying inside this window makes the
        launch order irrelevant.
    runner : callable, optional
        The task entry point, ``runner(solver, hypergraph, params)``
        (default :func:`~repro.pipeline.solve.run_block_task`); tests
        substitute instrumented runners here.
    """

    def __init__(
        self,
        host: str,
        port: int,
        jobs: int = 1,
        idle_timeout: float | None = 300.0,
        heartbeat_interval: float = 2.0,
        connect_timeout: float = 10.0,
        runner=None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.jobs = max(1, int(jobs or 1))
        self.idle_timeout = idle_timeout or None
        self.heartbeat_interval = max(0.1, float(heartbeat_interval))
        self.connect_timeout = max(0.0, float(connect_timeout))
        self._runner = runner if runner is not None else run_block_task
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()
        self._active: dict[str, Future] = {}
        self._executed = 0
        self._last_active = time.monotonic()
        self._stop = threading.Event()
        self._idle_exit = False

    # ------------------------------------------------------------------
    # Outbound frames (one lock: task threads + heartbeat + main loop)
    # ------------------------------------------------------------------
    def _send(self, message: dict) -> None:
        sock = self._sock
        if sock is None:
            return
        with self._lock:
            send_message(sock, message)

    def _send_heartbeat(self) -> None:
        self._send(
            {
                "type": "heartbeat",
                "in_flight": len(self._active),
                "executed": self._executed,
            }
        )

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------
    def _execute(self, task_id: str, solver: str, hypergraph, params: dict):
        try:
            value = self._runner(solver, hypergraph, params)
            reply = {
                "type": "result",
                "task": task_id,
                "value": answer_payload(solver, value),
            }
        except BaseException as exc:  # one reply per task, whatever happens
            reply = _error_reply(task_id, exc)
        with self._lock:
            self._active.pop(task_id, None)
            self._executed += 1
            self._last_active = time.monotonic()
        try:
            self._send(reply)
        except (ProtocolError, TypeError, ValueError) as exc:
            # The value is not plain JSON (or exceeds the frame limit):
            # degrade to an error the driver can always decode.
            try:
                self._send(_error_reply(task_id, exc))
            except OSError:
                pass
        except OSError:
            pass  # driver gone; the registry requeues on our death

    def _start_task(self, pool: ThreadPoolExecutor, message: dict) -> None:
        task_id = message.get("task")
        solver = message.get("solver")
        params = message.get("params") or {}
        try:
            if not (isinstance(task_id, str) and isinstance(solver, str)
                    and isinstance(params, dict)):
                raise ValueError("task frame needs string task/solver, dict params")
            hypergraph = hypergraph_from_payload(message.get("hypergraph"))
        except ValueError as exc:
            self._send(_error_reply(task_id, exc))
            return
        # Register under the lock so the task thread's pop (which also
        # takes the lock) cannot run before registration completes.
        with self._lock:
            self._last_active = time.monotonic()
            self._active[task_id] = pool.submit(
                self._execute, task_id, solver, hypergraph, params
            )

    def _cancel_task(self, task_id: str) -> None:
        with self._lock:
            future = self._active.get(task_id)
            if future is None or not future.cancel():
                return  # finished or running: its reply frame will come
            # Dequeued before starting: acknowledge so the registry
            # frees the slot (a cancelled task sends no result).
            del self._active[task_id]
            self._last_active = time.monotonic()
        try:
            self._send({"type": "cancelled", "task": task_id})
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Heartbeats + idle auto-shutdown
    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            with self._lock:
                idle_for = time.monotonic() - self._last_active
                busy = bool(self._active)
            if self.idle_timeout and not busy and idle_for >= self.idle_timeout:
                self._idle_exit = True
                try:
                    self._send({"type": "bye"})
                except OSError:
                    pass
                sock = self._sock
                if sock is not None:
                    try:  # unblocks the main recv loop
                        sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                return
            try:
                self._send_heartbeat()
            except OSError:
                return

    # ------------------------------------------------------------------
    def _dial(self) -> socket.socket | None:
        """Connect, redialing refused endpoints for ``connect_timeout``."""
        deadline = time.monotonic() + self.connect_timeout
        while True:
            remaining = max(0.5, deadline - time.monotonic())
            try:
                return socket.create_connection(
                    (self.host, self.port), timeout=remaining
                )
            except OSError as exc:
                if time.monotonic() >= deadline:
                    print(
                        f"repro worker: cannot connect to "
                        f"{self.host}:{self.port}: {exc}",
                        file=sys.stderr,
                    )
                    return None
                time.sleep(min(0.5, max(0.05, deadline - time.monotonic())))

    def run(self) -> int:
        """Connect, serve tasks until shutdown or idle timeout; exit code."""
        sock = self._dial()
        if sock is None:
            return 1
        sock.settimeout(None)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self._sock = sock
        self._last_active = time.monotonic()
        code = 0
        pool = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="repro-worker"
        )
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="repro-worker-heartbeat", daemon=True
        )
        try:
            self._send(
                {"type": "hello", "jobs": self.jobs, "pid": os.getpid()}
            )
            heartbeat.start()
            while True:
                message = recv_message(sock)
                if message is None:
                    break
                kind = message.get("type")
                if kind == "task":
                    self._start_task(pool, message)
                elif kind == "cancel" and isinstance(message.get("task"), str):
                    self._cancel_task(message["task"])
                elif kind == "ping":
                    self._send_heartbeat()
                elif kind == "shutdown":
                    break
                # unknown frame types are ignored (forward compatibility)
        except ProtocolError:
            code = 0 if self._idle_exit else 1
        except OSError:
            code = 0 if self._idle_exit else 0  # driver went away: clean exit
        finally:
            self._stop.set()
            pool.shutdown(wait=False, cancel_futures=True)
            try:
                sock.close()
            except OSError:
                pass
            self._sock = None
        return code


def spawn_worker(
    address: str,
    jobs: int = 1,
    idle_timeout: float | None = 60.0,
    bootstrap: str | None = None,
):
    """Start a loopback worker subprocess dialing ``address``.

    Convenience for tests and benchmarks: runs ``repro worker
    --connect address`` under the current interpreter with ``src`` on
    ``PYTHONPATH``, output discarded.  ``bootstrap`` replaces the CLI
    entry with custom code (it receives ``HOST``, ``PORT``, ``JOBS``
    and ``IDLE`` as pre-bound variables) — fault-injection tests use
    this to wrap the task runner.  Returns the ``subprocess.Popen``.
    """
    import subprocess

    from .protocol import parse_endpoint

    host, port = parse_endpoint(address)
    src_dir = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir if not path else src_dir + os.pathsep + path
    if bootstrap is None:
        argv = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--connect",
            address,
            "--jobs",
            str(jobs),
            "--idle-timeout",
            str(idle_timeout if idle_timeout is not None else 0),
        ]
    else:
        prelude = (
            f"HOST = {host!r}\nPORT = {port!r}\nJOBS = {int(jobs)!r}\n"
            f"IDLE = {idle_timeout!r}\n"
        )
        argv = [sys.executable, "-c", prelude + bootstrap]
    return subprocess.Popen(
        argv,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )

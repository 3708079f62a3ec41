"""The always-on decomposition daemon behind ``repro serve``.

One asyncio event loop accepts HTTP/1.1 connections (hand-rolled over
``asyncio.start_server`` — the standard library's ``http.server`` is
thread-per-request and its asyncio story needs third-party packages,
which this repo does not take).  Solves run on a bounded thread pool;
the event loop itself never blocks on a solve.  Answers that already
exist are served on the loop: a stored instance record for ``/solve``
(re-read, CRC-checked and its witness re-validated, exactly as a
scheduler run would) and an in-memory plan for ``/query`` (whose
execution still runs on the pool).  That work is bounded by the size
of the request the loop has already decoded and hashed, so it costs no
more than the decode, and far less than handing the request to a pool
thread and back.

Connections persist (HTTP/1.1 keep-alive) until the client closes one
or asks to, speaks HTTP/1.0, sends a request the reader refuses, or
idles past ``read_timeout``; a drain closes the idle ones.  Bodies are
framed by ``Content-Length`` alone (``Transfer-Encoding`` gets 400), so
a reused socket cannot read one request's tail as the next request.

Three serving policies live here, each load-bearing for the test
harness in ``tests/test_serve.py`` and benchmark E23:

* **Admission control** — at most ``max_in_flight`` solves run
  concurrently and at most ``max_queue`` more distinct computations
  may wait.  Beyond that, new work is refused with HTTP 429
  immediately (cheap rejection beats unbounded queueing); an answer
  served on the loop takes no slot, so it still gets 200.  Once
  :meth:`DecompositionServer.stop` begins draining, every request not
  joining an admitted solve gets 503 while admitted solves finish.
* **Request coalescing** — requests are identified by
  :func:`~.protocol.request_key` (canonical hypergraph hash, kind,
  parameter fingerprint).  N concurrent identical
  requests share ONE scheduler run and all N receive its answer; the
  ``coalesced`` counter and the single ``solves`` increment prove it.
* **Persistent store** — a request is first looked up in the server's
  :class:`~repro.store.ResultStore` with
  :func:`~repro.pipeline.batch.stored_answer`, the scheduler's own
  instance lookup; a miss is one
  :func:`~repro.pipeline.batch.solve_many` request on that store, so
  verdicts survive restarts and a restarted daemon answers a
  repeat-heavy workload with zero scheduler runs, LP solves and exact
  check tasks (``solves`` / ``lp_solves`` / ``tasks_run`` in
  ``GET /stats`` stay flat — asserted by E23).

Failure isolation is per computation: a request whose solve raises
resolves to HTTP 422 for its callers (including coalesced ones —
they asked for the same computation) and disturbs nothing else.

``POST /query`` rides the same machinery end-to-end: a conjunctive
query's *plan* (the decomposition of its hypergraph, resolved by
:class:`~repro.cqcsp.planner.QueryPlanner`) is a computation like any
other — admission-controlled, coalesced on the plan key, persisted in
the store — while Yannakakis execution over the request's own
relations always runs per request.  A plan already in the planner's
in-memory LRU is taken on the loop, with no admission slot.  A
restarted daemon therefore serves repeated query shapes *plan-warm*:
zero LP solves, zero exact check tasks, answers byte-identical to the
cold run (asserted by benchmark E24).
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from ..cqcsp.planner import QueryPlanner
from ..pipeline.batch import solve_many, stored_answer
from ..pipeline.solve import EXECUTORS
from ..store import ResultStore, answer_payload
from .protocol import (
    MAX_HEADER_LINES,
    ProtocolError,
    message_framing,
    query_answer_payload,
    query_key,
    query_request_from_payload,
    request_from_payload,
    request_key,
)

__all__ = ["DecompositionServer", "ServerStats"]

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Largest accepted request body; a declared Content-Length above this is
#: refused with 413 before a single body byte is buffered.
DEFAULT_MAX_BODY = 8 * 1024 * 1024

#: Seconds a client gets to deliver its complete request (line, headers
#: and body).  Covers only the *read* — solves may run far longer.
DEFAULT_READ_TIMEOUT = 30.0


class _BadRequest(Exception):
    """A request refused before it runs; carries the HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class ServerStats:
    """Lifetime counters of one :class:`DecompositionServer`.

    Attributes
    ----------
    requests : int
        Solve requests received (including rejected ones).
    answers : int
        Requests answered with a solve result (HTTP 200).
    errors : int
        Requests whose computation failed (HTTP 422).
    coalesced : int
        Requests that joined an already-in-flight identical
        computation instead of starting their own.
    rejected_busy : int
        Requests refused with 429 (admission control full).
    rejected_draining : int
        Requests refused with 503 (server shutting down).
    solves : int
        Scheduler runs actually executed — with K identical
        concurrent requests this increments once, not K times.  A
        request answered from a stored instance record on the event
        loop runs no scheduler and does not count.
    store_instance_hits : int
        Requests answered by a stored instance record: on the event
        loop (the usual case, no scheduler run) or by a scheduler run
        that found the record written meanwhile (a plan solve of the
        same hypergraph can write it).
    store_blocks_seeded : int
        Blocks seeded from the store, summed over all scheduler runs.
    store_write_errors : int
        Store write-backs that failed with ``OSError``, summed over all
        scheduler runs — solve and plan solves alike (the answers were
        still served; each failure is also logged).
    lp_solves, tasks_run : int
        Engine LP solves and exact check tasks summed over all runs —
        solve requests and plan solves alike; both stay at 0 when a
        warm store answers everything (E23 / E24).  Each run counts
        only its own work, so the sum stays exact with up to
        ``max_in_flight`` runs at once.
    queries : int
        Query requests received on ``POST /query`` (including
        rejected ones).
    query_answers : int
        Query requests answered with an answer set (HTTP 200).
    plans_computed : int
        Plans solved — scheduler runs that missed the planner's
        in-memory plan cache (a store hit still counts; an in-memory
        replay does not).  With K identical concurrent queries of a
        new shape this increments once, not K times (they coalesce
        on the plan key).
    plan_store_hits : int
        Plan solves answered by a persistent store record instead of
        running the exact engines (the plan-warm path E24 measures).
    """

    requests: int = 0
    answers: int = 0
    errors: int = 0
    coalesced: int = 0
    rejected_busy: int = 0
    rejected_draining: int = 0
    solves: int = 0
    store_instance_hits: int = 0
    store_blocks_seeded: int = 0
    store_write_errors: int = 0
    lp_solves: int = 0
    tasks_run: int = 0
    queries: int = 0
    query_answers: int = 0
    plans_computed: int = 0
    plan_store_hits: int = 0

    def as_dict(self) -> dict:
        """The counters as a JSON-ready dictionary."""
        return asdict(self)


class DecompositionServer:
    """Asyncio HTTP front-end over the batch scheduler.

    Parameters
    ----------
    host, port : str, int
        Listen address.  ``port=0`` (the default) picks a free port;
        read :attr:`port` after :meth:`start`.
    store : ResultStore or str or None
        Persistent result store (or its directory).  ``None`` serves
        from memoryless schedulers — coalescing still works, restarts
        start cold.
    fsync : bool
        Passed to the store when opened from a path: fsync every
        appended record.
    jobs : int
        Worker count *inside* each scheduler run (per-solve
        parallelism; across-solve parallelism is ``max_in_flight``).
    executor : str
        Pool type of every scheduler run — one of
        :data:`~repro.pipeline.solve.EXECUTORS`.  ``"remote"`` makes
        the daemon own a :class:`~repro.dist.registry.WorkerRegistry`
        (the process-wide default one, bound to ``listen``): block
        tasks of every admitted solve dispatch to whatever ``repro
        worker`` processes have dialed in, degrading to a local pool
        while none have.
    listen : str or None
        ``HOST:PORT`` the worker registry binds when
        ``executor="remote"`` (default: the ``REPRO_WORKER_LISTEN``
        environment variable, else an ephemeral loopback port); read
        the resolved endpoint from ``registry.address``.
    bounds, preprocess : str
        Scheduler configuration applied to every request.
    max_in_flight : int
        Concurrent scheduler runs (thread-pool width).
    max_queue : int
        Additional distinct computations allowed to wait; beyond
        ``max_in_flight + max_queue`` new computations get HTTP 429.
    max_body : int
        Largest accepted request body in bytes; a Content-Length above
        it is refused with 413 before any body byte is buffered, so a
        client cannot make the daemon allocate gigabytes.
    read_timeout : float or None
        Seconds a client gets to deliver its complete request once its
        first byte arrived; slower clients get 408 and the connection
        is closed.  It is also the idle limit: a kept-alive connection
        that sends no byte of a next request within it is closed
        without an answer, so held-open sockets cannot pin file
        descriptors indefinitely.  Only the read is bounded — admitted
        solves may run arbitrarily long.  ``None`` disables the limit
        (tests only).

    Endpoints: ``POST /solve``, ``POST /query``, ``GET /stats``,
    ``GET /healthz``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        store: ResultStore | str | None = None,
        fsync: bool = False,
        jobs: int | None = None,
        executor: str = "thread",
        listen: str | None = None,
        bounds: str = "portfolio",
        preprocess: str = "full",
        max_in_flight: int = 4,
        max_queue: int = 32,
        max_body: int = DEFAULT_MAX_BODY,
        read_timeout: float | None = DEFAULT_READ_TIMEOUT,
    ) -> None:
        self.host = host
        self.port = port
        self._owns_store = store is not None and not isinstance(
            store, ResultStore
        )
        self.store = (
            ResultStore(store, fsync=fsync) if self._owns_store else store
        )
        self.jobs = jobs
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}; got {executor!r}"
            )
        self.executor = executor
        self.registry = None
        if executor == "remote":
            # The daemon owns (the process default) worker registry so
            # every scheduler run shares one fleet; `repro worker
            # --connect <registry.address>` joins it at any time.
            from ..dist import get_registry

            self.registry = get_registry(listen=listen)
        self.bounds = bounds
        self.preprocess = preprocess
        self.max_in_flight = max(1, int(max_in_flight))
        self.max_queue = max(0, int(max_queue))
        self.max_body = max(0, int(max_body))
        self.read_timeout = read_timeout
        self.stats = ServerStats()
        # Plans are served by one planner so the in-memory plan LRU is
        # shared across requests; it reuses the server's store and pool
        # configuration for its plan solves.
        self.planner = QueryPlanner(
            self.store,
            bounds=self.bounds,
            preprocess=self.preprocess,
            jobs=self.jobs,
            executor=self.executor,
        )
        self._pending: dict[tuple, asyncio.Future] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_in_flight, thread_name_prefix="repro-serve"
        )
        self._server: asyncio.AbstractServer | None = None
        # Handler tasks of open connections, and the writers of those
        # awaiting their next request (a drain closes these).
        self._connections: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is not None:
            return
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Drain and shut down: finish admitted solves, refuse new ones.

        Idle keep-alive connections are closed; a connection with a
        request in flight answers it with ``Connection: close`` first.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._pending:
            await asyncio.gather(
                *self._pending.values(), return_exceptions=True
            )
        # Since 3.12.1 Server.wait_closed() waits for every open
        # connection, so an idle one would hold the drain until its
        # read_timeout.  Connections accepted meanwhile join the loop.
        while self._connections:
            for writer in self._idle:
                writer.close()
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=True)
        if self._owns_store and self.store is not None:
            self.store.close()

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled; then :meth:`stop`.

        Not ``asyncio.Server.serve_forever``: cancelled, that waits for
        every open connection (3.12+), idle keep-alive ones included,
        before :meth:`stop` could close them.
        """
        await self.start()
        await asyncio.get_running_loop().create_future()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        """Answer a connection's requests in order until one side closes."""
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            keep_alive = True
            while keep_alive:
                answer = await self._handle_request(reader, writer)
                if answer is None:
                    break
                status, payload, keep_alive = answer
                keep_alive = keep_alive and not self._draining
                # The daemon builds every payload itself, so none holds a
                # cycle: skip the encoder's per-list cycle bookkeeping.
                body = json.dumps(payload, check_circular=False).encode()
                reason = _STATUS_TEXT.get(status, "Unknown")
                head = (
                    f"HTTP/1.1 {status} {reason}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}"
                    "\r\n\r\n"
                ).encode("ascii")
                writer.write(head + body)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._connections.discard(task)
            self._idle.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - racing close
                pass

    async def _handle_request(
        self, reader, writer
    ) -> tuple[int, dict, bool] | None:
        """Read and route one request: ``(status, payload, keep_alive)``.

        ``None`` closes the connection unanswered: the client closed it,
        or sent no byte of a next request within ``read_timeout``.  A
        request begun but unfinished by then gets 408.  Only the *read*
        is time- and size-bounded; the solve in _route may legitimately
        run far longer than any read timeout.
        """
        first = b""
        try:
            async with asyncio.timeout(self.read_timeout) as deadline:
                self._idle.add(writer)
                first = await reader.read(1)
                self._idle.discard(writer)
                if not first:
                    return None
                if self.read_timeout is not None:
                    deadline.reschedule(
                        asyncio.get_running_loop().time() + self.read_timeout
                    )
                method, path, body, keep_alive = await self._read_request(
                    reader, first
                )
        except TimeoutError:
            if not first:
                return None
            return 408, {"error": "timed out reading the request"}, False
        except _BadRequest as exc:
            return exc.status, {"error": str(exc)}, False
        except ValueError:  # StreamReader line longer than its limit
            return 400, {"error": "request line or header too long"}, False
        status, payload = await self._route(method, path, body)
        return status, payload, keep_alive

    async def _read_request(
        self, reader, first: bytes
    ) -> tuple[str, str, bytes, bool]:
        """Parse one request whose first byte is ``first``.

        Returns ``(method, path, body, keep_alive)``, framed by
        :func:`~.protocol.message_framing`; a request without
        ``Content-Length`` has no body.
        """
        request_line = first + await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise _BadRequest(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        field_lines = []
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            field_lines.append(line)
            if len(field_lines) > MAX_HEADER_LINES:
                raise _BadRequest(
                    431, f"more than {MAX_HEADER_LINES} header lines"
                )
        try:
            length, keep_alive = message_framing(
                parts[2] if len(parts) > 2 else "", field_lines
            )
        except ProtocolError as exc:
            raise _BadRequest(400, str(exc)) from None
        length = length or 0
        if length > self.max_body:
            raise _BadRequest(
                413, f"request body exceeds {self.max_body} bytes"
            )
        body = await reader.readexactly(length) if length > 0 else b""
        return method, path, body, keep_alive

    async def _route(self, method: str, path: str, body: bytes):
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "GET only"}
            return 200, {"ok": True, "draining": self._draining}
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "GET only"}
            return 200, self._stats_payload()
        if path in ("/solve", "/query"):
            if method != "POST":
                return 405, {"error": "POST only"}
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return 400, {"error": f"request body is not JSON: {exc}"}
            except RecursionError:
                return 400, {"error": "request body is nested too deeply"}
            try:
                if path == "/solve":
                    return await self._solve(payload)
                return await self._query(payload)
            except _BadRequest as exc:  # refused at admission
                return exc.status, {"error": str(exc)}
        return 404, {"error": f"unknown path {path!r}"}

    def _stats_payload(self) -> dict:
        return {
            "server": self.stats.as_dict(),
            "store": (
                None if self.store is None else self.store.stats.as_dict()
            ),
            "workers": (
                None
                if self.registry is None
                else {
                    "address": self.registry.address,
                    "count": self.registry.worker_count(),
                    "capacity": self.registry.total_capacity(),
                    "workers": self.registry.workers(),
                }
            ),
            "config": {
                "jobs": self.jobs,
                "executor": self.executor,
                "bounds": self.bounds,
                "preprocess": self.preprocess,
                "max_in_flight": self.max_in_flight,
                "max_queue": self.max_queue,
                "store": (
                    None if self.store is None else str(self.store.path)
                ),
            },
            "pending": len(self._pending),
        }

    # ------------------------------------------------------------------
    # Admission: one path for /solve and /query
    # ------------------------------------------------------------------
    def _admit(self, key, lookup, fold, compute, *args) -> tuple:
        """Join computation ``key``, answer it from ``lookup(*args)``,
        or admit ``compute(*args)`` as it.

        Returns ``(future, coalesced)``, or raises :class:`_BadRequest`
        (503 draining, 429 full).  ``lookup`` runs on the loop and
        returns the value waiters would receive, or None: an answer
        that already exists needs no pool thread and takes no slot.
        ``fold`` counts a computed result into the endpoint's stats
        once and returns the value waiters receive.
        """
        future = self._pending.get(key)
        if future is not None:
            self.stats.coalesced += 1
            return future, True
        if self._draining:
            self.stats.rejected_draining += 1
            raise _BadRequest(503, "server is draining")
        found = lookup(*args)
        if found is not None:
            future = asyncio.get_running_loop().create_future()
            future.set_result(found)
            return future, False
        if len(self._pending) >= self.max_in_flight + self.max_queue:
            self.stats.rejected_busy += 1
            raise _BadRequest(429, "too many computations in flight")
        task = asyncio.get_running_loop().create_task(
            self._run_pending(key, fold, compute, args)
        )
        self._pending[key] = task
        return task, False

    async def _run_pending(self, key, fold, compute, args):
        """Run one admitted computation; its task is what waiters share."""
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(self._executor, compute, *args)
            return fold(result)
        finally:
            self._pending.pop(key, None)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    async def _solve(self, payload) -> tuple[int, dict]:
        self.stats.requests += 1
        try:
            request = request_from_payload(payload)
        except ProtocolError as exc:
            return 400, {"error": str(exc)}
        future, coalesced = self._admit(
            request_key(request),
            self._stored, self._fold_solve, self._run_batch, request,
        )
        try:
            answer, from_store = await asyncio.shield(future)
        except Exception as exc:
            self.stats.errors += 1
            return 422, {
                "error": f"{type(exc).__name__}: {exc}",
                "kind": request.kind,
                "label": request.name,
                "coalesced": coalesced,
            }
        self.stats.answers += 1
        return 200, {
            "ok": True,
            "kind": request.kind,
            "label": request.name,
            "answer": answer,
            "coalesced": coalesced,
            "from_store": from_store,
        }

    def _stored(self, request) -> tuple | None:
        """The stored answer as ``(answer, True)``, or None (on the
        loop, so it counts as a store hit but not as a solve)."""
        store = self.store
        hit = None if store is None else stored_answer(store, request)
        if hit is None:
            return None
        self.stats.store_instance_hits += 1
        return answer_payload(request.kind, hit[0]), True

    def _fold_solve(self, result) -> tuple:
        """Count one scheduler run; waiters get ``(answer, from_store)``."""
        answer, stats = result
        self.stats.solves += 1
        self.stats.store_instance_hits += stats.store_instance_hits
        self.stats.store_blocks_seeded += stats.store_blocks_seeded
        self.stats.store_write_errors += stats.store_write_errors
        self.stats.lp_solves += stats.lp_solves
        self.stats.tasks_run += stats.tasks_run
        return answer, stats.store_instance_hits > 0

    def _run_batch(self, request):
        """One scheduler run for one computation (worker thread).

        A method (not a closure) so the test harness can wrap it — the
        concurrency tests gate it on an event to make coalescing
        windows deterministic.
        """
        (result,) = solve_many(
            [request],
            jobs=self.jobs,
            preprocess=self.preprocess,
            executor=self.executor,
            bounds=self.bounds,
            store=self.store,
        )
        return answer_payload(request.kind, result.unwrap()), result.stats

    # ------------------------------------------------------------------
    # Query answering (decompositions as cached plans)
    # ------------------------------------------------------------------
    async def _query(self, payload) -> tuple[int, dict]:
        """Answer one CQ: coalesce on the plan key, execute per request.

        Planning and execution are deliberately split: the plan (the
        query-shape solve) coalesces and caches exactly like ``/solve``
        computations (a plan in the planner's LRU is taken on the
        loop, like a stored ``/solve`` answer), while execution always
        runs per request on the pool — two
        queries of one shape may carry different relations *and
        different query semantics* (head, constants, argument order),
        so the shared plan is rebound to each request's own query
        before Yannakakis runs; only the decomposition is shared.
        """
        self.stats.queries += 1
        try:
            query, database, label = query_request_from_payload(payload)
        except ProtocolError as exc:
            return 400, {"error": str(exc)}
        label = label or query.name
        future, coalesced = self._admit(
            query_key(query),
            self.planner.cached_plan, self._fold_plan, self._run_plan,
            query,
        )
        stage = "plan"
        try:
            plan, info = await asyncio.shield(future)
            stage = "execute"
            answer = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._run_query, query, plan, database
            )
        except Exception as exc:
            self.stats.errors += 1
            return 422, {
                "error": f"{type(exc).__name__}: {exc}",
                "label": label,
                "stage": stage,
                "coalesced": coalesced,
            }
        self.stats.query_answers += 1
        response = {
            "ok": True,
            "label": label,
            "coalesced": coalesced,
            "plan_from_store": info.from_store,
            "plan_cached": info.cache_hit,
        }
        response.update(answer)
        return 200, response

    def _fold_plan(self, result) -> tuple:
        """Count one plan resolution; waiters get ``(plan, info)``."""
        _plan, info = result
        self.stats.plans_computed += 0 if info.cache_hit else 1
        self.stats.plan_store_hits += 1 if info.from_store else 0
        self.stats.store_write_errors += info.store_write_errors
        self.stats.lp_solves += info.lp_solves
        self.stats.tasks_run += info.tasks_run
        return result

    def _run_plan(self, query):
        """One plan resolution for one query shape (worker thread).

        A method (not a closure) for the same reason as
        :meth:`_run_batch`: the concurrency tests gate it to hold the
        coalescing window open deterministically.
        """
        return self.planner.plan_detailed(query)

    def _run_query(self, query, plan, database):
        """One Yannakakis execution (worker thread), wire-encoded.

        ``plan`` may have been computed for (and is bound to) a
        coalesced sibling's query of the same shape — the coalescing
        key identifies the *plan*, not the query.  Rebinding makes
        execution run THIS request's head, constants and argument
        order over the shared decomposition; without it, a coalesced
        request got HTTP 200 with the sibling's answers.
        """
        return query_answer_payload(
            self.planner.execute(plan.rebound(query), database)
        )

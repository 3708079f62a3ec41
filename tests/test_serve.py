"""Concurrency harness for the ``repro serve`` daemon.

The daemon's three serving policies, proven under real concurrency
(a live asyncio server in a background thread, hammered by client
threads over actual sockets):

* **coalescing** — K concurrent identical requests share exactly one
  scheduler run (``solves`` increments once, ``coalesced`` K-1 times)
  while distinct requests each get their own;
* **admission control** — beyond ``max_in_flight + max_queue`` distinct
  computations, new work is refused with 429 (coalesced joins are
  never refused), and a draining server refuses new work with 503
  while finishing admitted solves;
* **failure isolation** — a request whose computation raises maps to
  422 for its callers and disturbs no sibling request.

The same three policies govern ``POST /query`` — there the coalesced
computation is the query's *plan* (the decomposition of its
hypergraph) while Yannakakis execution runs per request — proven by
gating :meth:`DecompositionServer._run_plan` instead.

Determinism comes from gating :meth:`DecompositionServer._run_batch`
(or ``_run_plan``) on a :class:`threading.Event` — solves block
*inside* the worker pool until the test has observed the in-flight
state it wants to assert.
"""

import asyncio
import threading
import time

import pytest

from repro.cqcsp import Relation
from repro.hypergraph import Hypergraph
from repro.serve import DecompositionServer, ServeClient, ServeError
from repro.store import checked_witness

_EPS = 1e-9


def triangle(name=None):
    return Hypergraph(
        {"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]}, name=name
    )


def cycle(n):
    return Hypergraph(
        {f"e{i}": [f"v{i}", f"v{(i + 1) % n}"] for i in range(n)}
    )


def wait_until(predicate, timeout=20.0):
    """Poll a cross-thread predicate until true (or fail the test)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    pytest.fail("condition not reached within timeout")


class Gate:
    """Blocks a server computation inside the worker pool until released.

    ``attr`` picks what to gate: ``"_run_batch"`` (solve requests, the
    default) or ``"_run_plan"`` (query plan computations).
    """

    def __init__(self, server, attr="_run_batch"):
        self.release = threading.Event()
        self.entered = 0
        self._original = getattr(server, attr)

        def gated(*args):
            self.entered += 1
            if not self.release.wait(timeout=60):
                raise TimeoutError("test gate never released")
            return self._original(*args)

        setattr(server, attr, gated)


class ServerHarness:
    """A live server on its own event loop in a background thread."""

    def __init__(self, **kwargs):
        self.server = DecompositionServer(**kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.gates = []
        self._stopped = False

    def start(self) -> ServeClient:
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(timeout=15)
        return ServeClient(
            self.server.host, self.server.port, timeout=120.0
        )

    def gate(self, attr="_run_batch") -> Gate:
        gate = Gate(self.server, attr)
        self.gates.append(gate)
        return gate

    def shutdown(self):
        if self._stopped:
            return
        self._stopped = True
        for gate in self.gates:
            gate.release.set()  # never leave solves stuck in the pool
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(timeout=120)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=15)
        self.loop.close()


@pytest.fixture
def harness():
    """Factory for live servers; all are drained at teardown."""
    created = []

    def make(**kwargs):
        h = ServerHarness(**kwargs)
        client = h.start()
        created.append(h)
        return h, client

    yield make
    for h in created:
        h.shutdown()


def fire(calls):
    """Run thunks on one thread each; returns results or exceptions."""
    results = [None] * len(calls)

    def runner(i, call):
        try:
            results[i] = call()
        except Exception as exc:  # collected, asserted by the caller
            results[i] = exc

    threads = [
        threading.Thread(target=runner, args=(i, call), daemon=True)
        for i, call in enumerate(calls)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180)
    return results


# ----------------------------------------------------------------------
# Basics over a real socket
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_solve_health_stats(self, harness):
        h, client = harness()
        assert client.health() == {"ok": True, "draining": False}
        response = client.solve(triangle(), "ghw")
        assert response["ok"] and response["kind"] == "ghw"
        assert response["answer"]["width"] == 2
        assert response["coalesced"] is False
        # The wire witness re-validates client-side.
        witness = checked_witness(
            triangle(), response["answer"]["witness"], "ghd", width=2 + _EPS
        )
        assert witness is not None
        stats = client.stats()
        assert stats["server"]["answers"] == 1
        assert stats["server"]["solves"] == 1
        assert stats["pending"] == 0
        assert "solver" not in stats["config"]

    def test_check_kinds_over_the_wire(self, harness):
        h, client = harness()
        accept = client.solve(triangle(), "check-ghd", {"k": 2})
        reject = client.solve(triangle(), "check-ghd", {"k": 1})
        assert accept["answer"]["accepted"] is True
        assert reject["answer"]["accepted"] is False
        assert reject["answer"]["witness"] is None

    def test_protocol_errors_are_400(self, harness):
        h, client = harness()
        with pytest.raises(ServeError) as excinfo:
            client.solve(triangle(), kind="not-a-kind")
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client._call("POST", "/solve", {"hypergraph": {"edges": {}}})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client._call("POST", "/solve", {"bogus-field": 1})
        assert excinfo.value.status == 400
        # The engine-mode field is gone: it is an unknown field too.
        body = {"hypergraph": {"edges": {"ab": ["a", "b"]}}, "solver": "bb"}
        with pytest.raises(ServeError) as excinfo:
            client._call("POST", "/solve", body)
        assert excinfo.value.status == 400
        assert "unknown request fields: ['solver']" in (
            excinfo.value.payload["error"]
        )
        # Protocol rejections never reach the solve counters.
        assert h.server.stats.solves == 0

    def test_unknown_path_and_method(self, harness):
        h, client = harness()
        with pytest.raises(ServeError) as excinfo:
            client._call("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client._call("POST", "/healthz", {})
        assert excinfo.value.status == 405


# ----------------------------------------------------------------------
# Read limits: body cap and slow-client timeout
# ----------------------------------------------------------------------
class TestReadLimits:
    """The reader refuses abuse before it can cost memory or sockets."""

    def _raw(self, server, payload: bytes, timeout=15.0) -> bytes:
        import socket

        with socket.create_connection(
            (server.host, server.port), timeout=timeout
        ) as sock:
            sock.sendall(payload)
            sock.settimeout(timeout)
            chunks = []
            while True:
                try:
                    chunk = sock.recv(65536)
                except TimeoutError:
                    break
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    def test_oversized_body_refused_before_buffering(self, harness):
        h, client = harness(max_body=1024)
        # Declare a gigabyte; send none of it.  The 413 arrives from
        # the headers alone — readexactly never runs.
        response = self._raw(
            h.server,
            b"POST /solve HTTP/1.1\r\n"
            b"Content-Length: 1073741824\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 413")
        # The server survives and still answers well-formed requests.
        assert client.solve(triangle(), "ghw")["ok"]

    def test_negative_content_length_is_400(self, harness):
        h, _ = harness()
        response = self._raw(
            h.server,
            b"POST /solve HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 400")

    def test_slow_client_gets_408(self, harness):
        h, client = harness(read_timeout=0.3)
        # A request that never finishes its headers is cut off with
        # 408 instead of pinning a connection forever.
        response = self._raw(h.server, b"POST /solve HTTP/1.1\r\n")
        assert response.startswith(b"HTTP/1.1 408")
        # Prompt clients are unaffected by the short read window.
        assert client.solve(triangle(), "ghw")["ok"]


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_identical_requests_share_one_solve(self, harness):
        h, client = harness()
        gate = h.gate()
        K = 6
        results = None

        def workload():
            nonlocal results
            results = fire(
                [lambda: client.solve(triangle(), "ghw")] * K
            )

        worker = threading.Thread(target=workload, daemon=True)
        worker.start()
        # All K must be in flight — on ONE pending computation — before
        # the solve is allowed to finish.
        wait_until(
            lambda: h.server.stats.coalesced == K - 1
            and len(h.server._pending) == 1
        )
        assert gate.entered == 1
        gate.release.set()
        worker.join(timeout=120)

        assert all(r["ok"] for r in results)
        widths = {r["answer"]["width"] for r in results}
        assert widths == {2}
        flags = sorted(r["coalesced"] for r in results)
        assert flags == [False] + [True] * (K - 1)
        assert h.server.stats.solves == 1
        assert h.server.stats.coalesced == K - 1
        assert h.server.stats.answers == K

    def test_distinct_requests_solve_independently(self, harness):
        h, client = harness(max_in_flight=4)
        gate = h.gate()
        instances = [triangle(), cycle(4), cycle(5)]
        copies = 3
        calls = [
            (lambda inst=inst: client.solve(inst, "ghw"))
            for inst in instances
            for _ in range(copies)
        ]
        results = None

        def workload():
            nonlocal results
            results = fire(calls)

        worker = threading.Thread(target=workload, daemon=True)
        worker.start()
        wait_until(
            lambda: len(h.server._pending) == len(instances)
            and h.server.stats.coalesced
            == len(instances) * (copies - 1)
        )
        gate.release.set()
        worker.join(timeout=120)

        assert all(r["ok"] for r in results)
        # One solve per distinct computation, not per request.
        assert h.server.stats.solves == len(instances)
        assert h.server.stats.answers == len(instances) * copies
        for i, inst in enumerate(instances):
            group = results[i * copies : (i + 1) * copies]
            assert len({r["answer"]["width"] for r in group}) == 1

    def test_label_does_not_split_coalescing(self, harness):
        """Coalescing keys on the computation, not display names."""
        h, client = harness()
        gate = h.gate()
        results = None

        def workload():
            nonlocal results
            results = fire(
                [
                    lambda: client.solve(triangle(), "ghw", label="a"),
                    lambda: client.solve(triangle(), "ghw", label="b"),
                ]
            )

        worker = threading.Thread(target=workload, daemon=True)
        worker.start()
        wait_until(lambda: h.server.stats.coalesced == 1)
        gate.release.set()
        worker.join(timeout=120)
        assert h.server.stats.solves == 1
        assert {r["label"] for r in results} == {"a", "b"}

    def test_params_do_split_coalescing(self, harness):
        h, client = harness()
        gate = h.gate()
        results = None

        def workload():
            nonlocal results
            results = fire(
                [
                    lambda: client.solve(triangle(), "check-ghd", {"k": 1}),
                    lambda: client.solve(triangle(), "check-ghd", {"k": 2}),
                ]
            )

        worker = threading.Thread(target=workload, daemon=True)
        worker.start()
        wait_until(lambda: len(h.server._pending) == 2)
        assert h.server.stats.coalesced == 0
        gate.release.set()
        worker.join(timeout=120)
        assert h.server.stats.solves == 2


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_busy_server_rejects_with_429(self, harness):
        h, client = harness(max_in_flight=1, max_queue=0)
        gate = h.gate()
        first = None

        def occupy():
            nonlocal first
            first = client.solve(triangle(), "ghw")

        occupier = threading.Thread(target=occupy, daemon=True)
        occupier.start()
        wait_until(lambda: len(h.server._pending) == 1)

        # A distinct computation is refused immediately...
        with pytest.raises(ServeError) as excinfo:
            client.solve(cycle(4), "ghw")
        assert excinfo.value.status == 429
        assert h.server.stats.rejected_busy == 1

        # ... but an identical one coalesces — joins are always free.
        results = None

        def join_workload():
            nonlocal results
            results = fire([lambda: client.solve(triangle(), "ghw")])

        joiner = threading.Thread(target=join_workload, daemon=True)
        joiner.start()
        wait_until(lambda: h.server.stats.coalesced == 1)
        gate.release.set()
        occupier.join(timeout=120)
        joiner.join(timeout=120)
        assert first["ok"]
        assert results[0]["ok"] and results[0]["coalesced"]
        assert h.server.stats.solves == 1

    def test_draining_rejects_with_503(self, harness):
        h, client = harness()
        gate = h.gate()
        results = None

        def workload():
            nonlocal results
            results = fire([lambda: client.solve(triangle(), "ghw")])

        worker = threading.Thread(target=workload, daemon=True)
        worker.start()
        wait_until(lambda: len(h.server._pending) == 1)

        h.server._draining = True
        try:
            # New computations are refused while draining...
            with pytest.raises(ServeError) as excinfo:
                client.solve(cycle(4), "ghw")
            assert excinfo.value.status == 503
            assert h.server.stats.rejected_draining == 1
            assert client.health()["draining"] is True
        finally:
            gate.release.set()
        # ... but the admitted solve still completes.
        worker.join(timeout=120)
        assert results[0]["ok"]
        h.server._draining = False


# ----------------------------------------------------------------------
# Failure isolation
# ----------------------------------------------------------------------
class TestFailureIsolation:
    def test_failed_computation_is_422_and_local(self, harness):
        h, client = harness()
        # check-ghd without k fails inside the scheduler.
        with pytest.raises(ServeError) as excinfo:
            client.solve(triangle(), "check-ghd")
        assert excinfo.value.status == 422
        assert h.server.stats.errors == 1
        # The server is fine; siblings are untouched.
        good = client.solve(triangle(), "ghw")
        assert good["ok"] and good["answer"]["width"] == 2
        assert len(h.server._pending) == 0

    def test_mixed_good_and_bad_under_concurrency(self, harness):
        h, client = harness()
        calls = [
            lambda: client.solve(triangle(), "ghw"),
            lambda: client.solve(triangle(), "check-ghd"),  # fails
            lambda: client.solve(cycle(4), "hw"),
            lambda: client.solve(cycle(5), "check-ghd"),  # fails
            lambda: client.solve(cycle(4), "hw"),
        ]
        results = fire(calls)
        assert results[0]["answer"]["width"] == 2
        assert isinstance(results[1], ServeError)
        assert results[1].status == 422
        assert results[2]["answer"]["width"] == 2
        assert isinstance(results[3], ServeError)
        assert results[3].status == 422
        assert results[4]["answer"]["width"] == 2
        assert h.server.stats.errors == 2
        assert len(h.server._pending) == 0

    def test_coalesced_callers_share_the_failure(self, harness):
        h, client = harness()
        gate = h.gate()
        results = None

        def workload():
            nonlocal results
            results = fire(
                [lambda: client.solve(triangle(), "check-ghd")] * 3
            )

        worker = threading.Thread(target=workload, daemon=True)
        worker.start()
        wait_until(lambda: h.server.stats.coalesced == 2)
        gate.release.set()
        worker.join(timeout=120)
        assert all(
            isinstance(r, ServeError) and r.status == 422 for r in results
        )
        assert h.server.stats.errors == 3
        assert h.server.stats.solves == 0  # the run never succeeded


# ----------------------------------------------------------------------
# The store behind the daemon
# ----------------------------------------------------------------------
class TestServeWithStore:
    def test_repeat_requests_come_from_store(self, harness, tmp_path):
        h, client = harness(store=tmp_path / "store")
        cold = client.solve(triangle(), "ghw")
        assert cold["from_store"] is False
        tasks_after_cold = h.server.stats.tasks_run
        warm = client.solve(triangle(), "ghw")
        assert warm["from_store"] is True
        assert warm["answer"] == cold["answer"]
        assert h.server.stats.tasks_run == tasks_after_cold

    def test_restarted_server_answers_without_solving(self, harness, tmp_path):
        """E23 in miniature: a restart keeps the verdicts."""
        h1, client1 = harness(store=tmp_path / "store")
        instances = [triangle(), cycle(4)]
        cold = [client1.solve(inst, "ghw") for inst in instances]
        h1.shutdown()

        h2, client2 = harness(store=tmp_path / "store")
        warm = [client2.solve(inst, "ghw") for inst in instances]
        assert all(r["from_store"] for r in warm)
        assert [r["answer"] for r in warm] == [r["answer"] for r in cold]
        assert h2.server.stats.lp_solves == 0
        assert h2.server.stats.tasks_run == 0
        stats = client2.stats()
        assert stats["server"]["store_instance_hits"] == len(instances)


    def test_failed_store_writes_are_served_and_counted(
        self, harness, tmp_path
    ):
        """A write-back that fails with OSError still answers 200 and
        shows up in ``GET /stats`` — for solves and plan solves."""
        h, client = harness(store=tmp_path / "store")
        append = h.server.store.append
        armed = []

        def fails_when_armed(*args, **kwargs):
            if armed:
                armed.pop()
                raise OSError("No space left on device")
            return append(*args, **kwargs)

        h.server.store.append = fails_when_armed
        armed.append(True)
        response = client.solve(triangle(), "ghw")
        assert response["ok"] and response["answer"]["width"] == 2
        assert client.stats()["server"]["store_write_errors"] == 1
        # The writes after the failed one landed: the repeat is a hit.
        assert client.solve(triangle(), "ghw")["from_store"] is True

        armed.append(True)
        response = client.query(_CHAIN, _DB)
        assert response["ok"] and response["width"] == 1
        assert client.stats()["server"]["store_write_errors"] == 2


# ----------------------------------------------------------------------
# Query serving: decompositions as cached plans over the wire
# ----------------------------------------------------------------------
def graph_relation(rows):
    return Relation.from_rows("r", ("src", "dst"), rows)


_CHAIN = "q(x0, x2) :- r(x0, x1), r(x1, x2)."
_CYCLE = "q(x1) :- r(x1, x2), r(x2, x3), r(x3, x1)."
_DB = {"r": graph_relation([(1, 2), (2, 3), (3, 1), (3, 4)])}


class TestQueryServing:
    def test_query_answers_over_the_wire(self, harness):
        h, client = harness()
        response = client.query(_CHAIN, _DB, label="hop2")
        assert response["ok"] and response["label"] == "hop2"
        assert response["width"] == 1 and response["satisfied"]
        assert sorted(map(tuple, response["answers"]["rows"])) == [
            (1, 3), (2, 1), (2, 4), (3, 2),
        ]
        assert response["coalesced"] is False
        assert response["plan_cached"] is False
        stats = client.stats()["server"]
        assert stats["queries"] == 1 and stats["query_answers"] == 1
        assert stats["plans_computed"] == 1

    def test_plan_cache_replay_is_not_a_plan_computation(self, harness):
        h, client = harness()
        client.query(_CHAIN, _DB)
        replay = client.query(_CHAIN, _DB)
        assert replay["plan_cached"] is True
        assert h.server.stats.plans_computed == 1

    def test_query_protocol_errors_are_400(self, harness):
        h, client = harness()
        with pytest.raises(ServeError) as excinfo:
            client.query("q(x) :- r(x", _DB)
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client._call("POST", "/query", {"query": _CHAIN, "oops": 1})
        assert excinfo.value.status == 400
        assert h.server.stats.plans_computed == 0

    def test_identical_queries_share_one_plan(self, harness):
        h, client = harness()
        gate = h.gate("_run_plan")
        K = 5
        results = None

        def workload():
            nonlocal results
            results = fire([lambda: client.query(_CHAIN, _DB)] * K)

        worker = threading.Thread(target=workload, daemon=True)
        worker.start()
        # All K in flight on ONE pending plan before it may resolve.
        wait_until(
            lambda: h.server.stats.coalesced == K - 1
            and len(h.server._pending) == 1
            and gate.entered == 1
        )
        gate.release.set()
        worker.join(timeout=120)

        assert all(r["ok"] for r in results)
        answers = {tuple(map(tuple, r["answers"]["rows"])) for r in results}
        assert len(answers) == 1  # identical answers for identical queries
        flags = sorted(r["coalesced"] for r in results)
        assert flags == [False] + [True] * (K - 1)
        assert h.server.stats.plans_computed == 1
        assert h.server.stats.query_answers == K

    def test_same_shape_different_data_share_plan_not_answers(self, harness):
        h, client = harness()
        gate = h.gate("_run_plan")
        other_db = {"r": graph_relation([(7, 8), (8, 9)])}
        results = None

        def workload():
            nonlocal results
            results = fire(
                [
                    lambda: client.query(_CHAIN, _DB),
                    lambda: client.query(_CHAIN, other_db),
                ]
            )

        worker = threading.Thread(target=workload, daemon=True)
        worker.start()
        wait_until(
            lambda: h.server.stats.coalesced == 1 and gate.entered == 1
        )
        gate.release.set()
        worker.join(timeout=120)

        assert all(r["ok"] for r in results)
        assert h.server.stats.plans_computed == 1
        rows = {tuple(map(tuple, r["answers"]["rows"])) for r in results}
        assert len(rows) == 2  # one plan, two different answer sets

    def test_coalesced_distinct_queries_get_their_own_answers(self, harness):
        # Regression: the coalescing key identifies the *plan* (the
        # query hypergraph), which does not see the head — so the
        # forward chain and its swapped-head sibling coalesce onto one
        # plan future.  Each caller must still receive answers to ITS
        # query; the shared plan used to execute the first requester's
        # query for both, returning the sibling's answers with 200.
        h, client = harness()
        gate = h.gate("_run_plan")
        swapped = "q(x2, x0) :- r(x0, x1), r(x1, x2)."
        results = None

        def workload():
            nonlocal results
            results = fire(
                [
                    lambda: client.query(_CHAIN, _DB),
                    lambda: client.query(swapped, _DB),
                ]
            )

        worker = threading.Thread(target=workload, daemon=True)
        worker.start()
        # Both requests in flight on ONE pending plan before it resolves.
        wait_until(
            lambda: h.server.stats.coalesced == 1 and gate.entered == 1
        )
        gate.release.set()
        worker.join(timeout=120)

        forward, backward = results
        assert forward["ok"] and backward["ok"]
        assert h.server.stats.plans_computed == 1
        assert forward["answers"]["attributes"] == ["x0", "x2"]
        assert backward["answers"]["attributes"] == ["x2", "x0"]
        assert sorted(map(tuple, forward["answers"]["rows"])) == [
            (1, 3), (2, 1), (2, 4), (3, 2),
        ]
        assert sorted(map(tuple, backward["answers"]["rows"])) == [
            (1, 2), (2, 3), (3, 1), (4, 2),
        ]

    def test_query_admission_control(self, harness):
        h, client = harness(max_in_flight=1, max_queue=0)
        gate = h.gate("_run_plan")
        first = None

        def occupy():
            nonlocal first
            first = client.query(_CHAIN, _DB)

        occupier = threading.Thread(target=occupy, daemon=True)
        occupier.start()
        wait_until(lambda: len(h.server._pending) == 1)

        # A distinct query shape is refused with 429...
        with pytest.raises(ServeError) as excinfo:
            client.query(_CYCLE, _DB)
        assert excinfo.value.status == 429
        assert h.server.stats.rejected_busy == 1
        # ... and /solve admission shares the same pool.
        with pytest.raises(ServeError) as excinfo:
            client.solve(cycle(4), "ghw")
        assert excinfo.value.status == 429

        h.server._draining = True
        try:
            with pytest.raises(ServeError) as excinfo:
                client.query(_CYCLE, _DB)
            assert excinfo.value.status == 503
        finally:
            h.server._draining = False
            gate.release.set()
        occupier.join(timeout=120)
        assert first["ok"]

    def test_failing_query_is_422_and_does_not_poison_siblings(self, harness):
        h, client = harness()
        gate = h.gate("_run_plan")
        # The bad query's relations lack a name its atoms need, so its
        # execution fails after the (shared-machinery) plan resolves.
        bad_db = {"s": Relation.from_rows("s", ("a",), [(1,)])}
        results = None

        def workload():
            nonlocal results
            results = fire(
                [
                    lambda: client.query(_CHAIN, bad_db),
                    lambda: client.query(_CYCLE, _DB),
                ]
            )

        worker = threading.Thread(target=workload, daemon=True)
        worker.start()
        wait_until(lambda: gate.entered == 2)
        gate.release.set()
        worker.join(timeout=120)

        bad, good = results
        assert isinstance(bad, ServeError) and bad.status == 422
        assert bad.payload["stage"] == "execute"
        assert "unknown relation" in bad.payload["error"]
        assert good["ok"] and good["satisfied"]
        assert h.server.stats.errors == 1
        assert len(h.server._pending) == 0
        # The server still answers new queries afterwards.
        assert client.query(_CHAIN, _DB)["ok"]

    def test_restarted_daemon_answers_plan_warm(self, harness, tmp_path):
        """E24 in miniature: plans persist, answers stay identical."""
        h1, client1 = harness(store=tmp_path / "store")
        shapes = [_CHAIN, _CYCLE]
        cold = [client1.query(q, _DB) for q in shapes]
        assert all(not r["plan_from_store"] for r in cold)
        h1.shutdown()

        h2, client2 = harness(store=tmp_path / "store")
        warm = [client2.query(q, _DB) for q in shapes]
        assert all(r["plan_from_store"] for r in warm)
        assert [r["answers"] for r in warm] == [r["answers"] for r in cold]
        assert h2.server.stats.tasks_run == 0
        assert h2.server.stats.lp_solves == 0
        assert h2.server.stats.plan_store_hits == len(shapes)


# ----------------------------------------------------------------------
# The daemon on a remote worker fleet
# ----------------------------------------------------------------------
class TestServeWithRemoteExecutor:
    def test_solves_through_a_worker_and_reports_fleet(self, harness):
        from repro.dist import (
            WorkerClient,
            WorkerRegistry,
            close_registry,
            set_registry,
        )

        registry = WorkerRegistry(ping_interval=0.5)
        previous = set_registry(registry)
        client_worker = WorkerClient(
            registry.host, registry.port, jobs=2, idle_timeout=None,
            heartbeat_interval=0.3,
        )
        worker_thread = threading.Thread(
            target=client_worker.run, daemon=True
        )
        worker_thread.start()
        try:
            assert registry.wait_for_workers(1, timeout=10.0)
            h, client = harness(executor="remote")
            # cycle(6) survives the bounds pre-pass (a triangle would
            # collapse to zero block tasks and never touch the fleet).
            response = client.solve(cycle(6), "hw")
            assert response["ok"] and response["answer"]["width"] == 2
            stats = client.stats()
            assert stats["config"]["executor"] == "remote"
            workers = stats["workers"]
            assert workers is not None and workers["count"] == 1
            assert workers["capacity"] == 2
            # The executed counter travels on heartbeats; give one a
            # moment to arrive before asserting the task ran remotely.
            wait_until(
                lambda: client.stats()["workers"]["workers"][0]["executed"]
                >= 1
            )
        finally:
            close_registry()
            set_registry(previous)
            worker_thread.join(timeout=5.0)

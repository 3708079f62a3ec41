"""Tests for the remote executor stack (``repro.dist``).

Covers the RPW2 (JSON) wire protocol, registry/executor scheduling against
loopback workers (in-process for speed, real subprocesses where the
boundary matters), fault injection (killed workers requeue, zero
requests lost), cancellation propagation across the wire, idle
auto-shutdown, and the zero-worker local-fallback degradation.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib
from concurrent.futures import wait as cf_wait

import pytest

from repro.dist import (
    RemoteExecutor,
    WorkerClient,
    WorkerRegistry,
    close_registry,
    set_registry,
    spawn_worker,
)
from repro.dist.protocol import (
    MAGIC,
    MAX_FRAME_BYTES,
    ProtocolError,
    parse_endpoint,
    recv_message,
    send_message,
)
from repro.decomposition import validate
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import clique, cycle, grid, triangle_cascade
from repro.pipeline import EXECUTORS, WidthSolver, last_batch_stats, solve_many
from repro.pipeline.solve import run_block_task
from repro.serve.protocol import (
    answer_from_payload,
    answer_payload,
    hypergraph_to_payload,
)


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def _pair(self):
        a, b = socket.socketpair()
        return a, b

    def test_round_trip(self):
        a, b = self._pair()
        try:
            message = {"type": "task", "task": "t1", "params": {"k": 2}}
            send_message(a, message)
            assert recv_message(b) == message
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = self._pair()
        a.close()
        try:
            assert recv_message(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = self._pair()
        try:
            payload = json.dumps({"type": "ping"}).encode()
            frame = struct.pack(
                ">4sII", MAGIC, len(payload), zlib.crc32(payload)
            )
            a.sendall(frame + payload[:-2])  # cut mid-payload
            a.close()
            with pytest.raises(ProtocolError):
                recv_message(b)
        finally:
            b.close()

    def test_bad_magic_raises(self):
        a, b = self._pair()
        try:
            payload = json.dumps({"type": "ping"}).encode()
            a.sendall(
                struct.pack(">4sII", b"XXXX", len(payload), zlib.crc32(payload))
                + payload
            )
            with pytest.raises(ProtocolError, match="magic"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_corrupt_crc_raises(self):
        a, b = self._pair()
        try:
            payload = json.dumps({"type": "ping"}).encode()
            a.sendall(
                struct.pack(
                    ">4sII", MAGIC, len(payload), zlib.crc32(payload) ^ 0xFF
                )
                + payload
            )
            with pytest.raises(ProtocolError, match="CRC"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_oversize_frame_rejected_before_send(self):
        a, b = self._pair()
        try:
            with pytest.raises(ProtocolError, match="exceeds the"):
                send_message(a, {"blob": "x" * (MAX_FRAME_BYTES + 1)})
        finally:
            a.close()
            b.close()

    def test_oversize_header_rejected_on_recv(self):
        a, b = self._pair()
        try:
            a.sendall(struct.pack(">4sII", MAGIC, MAX_FRAME_BYTES + 1, 0))
            with pytest.raises(ProtocolError, match="exceeds the"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:9876") == ("127.0.0.1", 9876)
        assert parse_endpoint("host.example:1") == ("host.example", 1)
        for bad in ("no-port", "host:", ":", "host:abc", ""):
            with pytest.raises(ValueError):
                parse_endpoint(bad)


# ----------------------------------------------------------------------
# In-process fleets (fast: WorkerClient threads against a registry)
# ----------------------------------------------------------------------
def _thread_worker(registry, jobs=2, runner=None, idle_timeout=None):
    """Run a WorkerClient against ``registry`` in a daemon thread."""
    client = WorkerClient(
        registry.host,
        registry.port,
        jobs=jobs,
        idle_timeout=idle_timeout,
        heartbeat_interval=0.3,
        runner=runner,
    )
    thread = threading.Thread(target=client.run, daemon=True)
    thread.start()
    return client, thread


@pytest.fixture
def fleet():
    """A registry with two in-process workers, installed as ambient."""
    registry = WorkerRegistry(ping_interval=0.5, worker_timeout=5.0)
    previous = set_registry(registry)
    threads = [_thread_worker(registry, jobs=2)[1] for _ in range(2)]
    assert registry.wait_for_workers(2, timeout=10.0)
    yield registry
    close_registry()
    set_registry(previous)
    for thread in threads:
        thread.join(timeout=5.0)


@pytest.fixture
def empty_registry():
    """A registry with no workers at all, installed as ambient."""
    registry = WorkerRegistry(ping_interval=0.5)
    previous = set_registry(registry)
    yield registry
    close_registry()
    set_registry(previous)


REQUESTS = [(clique(4), "ghw"), (cycle(6), "hw"), (grid(3, 3), "ghw")]


class TestRemoteSolve:
    def test_matches_thread_executor(self, fleet):
        baseline = solve_many(REQUESTS, jobs=4, executor="thread")
        remote = solve_many(REQUESTS, jobs=4, executor="remote")
        assert all(r.ok for r in remote)
        assert [r.value[0] for r in remote] == [r.value[0] for r in baseline]
        stats = last_batch_stats()
        assert stats.tasks_remote > 0
        # remote_workers counts workers that actually ran something; a
        # small batch may fit on one of the fleet's two.
        assert 1 <= stats.remote_workers <= 2
        assert fleet.worker_count() == 2
        assert stats.requeued_tasks == 0
        assert stats.tasks_local_fallback == 0

    def test_zero_workers_degrades_to_local(self, empty_registry):
        results = solve_many(REQUESTS, jobs=2, executor="remote")
        assert [r.value[0] for r in results] == [2, 2, 2]
        stats = last_batch_stats()
        assert stats.tasks_remote == 0
        assert stats.tasks_local_fallback > 0
        assert stats.remote_workers == 0

    def test_check_rejection_cancels_remotely(self, fleet):
        # A check request rejects on its first block; the drive loop
        # then cancels the instance's other block tasks.  Remotely an
        # in-flight cancel crosses the wire as a cancel frame; blocks
        # never submitted are cancelled on the driver.  With 8 blocks
        # and 4 slots, at least 4 blocks are never submitted.
        requests = [(triangle_cascade(8), "check-ghd", {"k": 1}), *REQUESTS]
        baseline = solve_many(
            requests, jobs=4, executor="thread", bounds="none"
        )
        remote = solve_many(
            requests, jobs=4, executor="remote", bounds="none"
        )
        stats = last_batch_stats()
        assert all(r.ok for r in remote)
        assert remote[0].value is None and baseline[0].value is None
        assert [r.value[0] for r in remote[1:]] == [
            r.value[0] for r in baseline[1:]
        ]
        assert stats.tasks_cancelled >= 1
        assert stats.tasks_remote > 0

    def test_widthsolver_on_remote_pool(self, fleet):
        # A chorded C9 keeps its bounds open at [1, 2] (the bounds
        # pre-pass decides a plain cycle), so one exact task remains.
        h = Hypergraph({**cycle(9).edges, "chord": ("v1", "v4", "v7")})
        solver = WidthSolver(h, jobs=2, executor="remote")
        width, _d = solver.generalized_hypertree_width()
        assert width == 2
        assert solver.last_stats.executor == "remote"
        assert solver.last_stats.tasks_remote > 0


class TestRemoteExecutorUnit:
    def test_cancelled_dispatched_future_wakes_wait(self):
        # Regression: Future.cancel() parks a future in CANCELLED, but
        # concurrent.futures.wait() only counts CANCELLED_AND_NOTIFIED
        # as done — in a pool the worker thread promotes it.  The
        # remote executor must promote cancelled futures itself or the
        # batch drive loop waits forever on a cancelled twin.
        registry = WorkerRegistry(ping_interval=0.5)
        release = threading.Event()

        def stuck_runner(solver, hypergraph, params):
            release.wait(30.0)
            return run_block_task(solver, hypergraph, params)

        _client, thread = _thread_worker(registry, jobs=1, runner=stuck_runner)
        assert registry.wait_for_workers(1, timeout=10.0)
        executor = RemoteExecutor(registry, jobs=1)
        try:
            future = executor.submit(
                run_block_task, "bb-check-ghd", cycle(4), {"k": 2}
            )
            deadline = time.monotonic() + 5.0
            while registry.workers()[0]["in_flight"] == 0:
                assert time.monotonic() < deadline, "task never dispatched"
                time.sleep(0.01)
            assert future.cancel()
            done, pending = cf_wait({future}, timeout=5.0)
            assert done == {future} and not pending
            assert future.cancelled()
        finally:
            release.set()
            executor.shutdown(wait=False)
            registry.close()
            thread.join(timeout=5.0)

    def test_generic_submissions_run_locally(self, empty_registry):
        executor = RemoteExecutor(empty_registry, jobs=1)
        try:
            assert executor.submit(pow, 2, 10).result(timeout=5.0) == 1024
            stats = executor.remote_stats()
            assert stats["tasks_local"] == 1
            assert stats["tasks_remote"] == 0
        finally:
            executor.shutdown()

    def test_remote_error_propagates(self, empty_registry):
        registry = empty_registry

        def boom(solver, hypergraph, params):
            raise ValueError("remote boom")

        _client, thread = _thread_worker(registry, jobs=1, runner=boom)
        assert registry.wait_for_workers(1, timeout=10.0)
        executor = RemoteExecutor(registry, jobs=1)
        try:
            future = executor.submit(
                run_block_task, "bb-check-ghd", cycle(4), {"k": 2}
            )
            with pytest.raises(ValueError, match="remote boom"):
                future.result(timeout=10.0)
        finally:
            executor.shutdown(wait=False)
            registry.close()
            thread.join(timeout=5.0)


class TestJsonWire:
    """Tasks and results cross the wire as JSON, with no parity loss."""

    INT_TRIANGLE = Hypergraph({"a": [1, 2], "b": [2, 3], "c": [3, 1]})

    def test_int_vertices_match_thread_executor(self, empty_registry):
        _client, thread = _thread_worker(empty_registry, jobs=1)
        assert empty_registry.wait_for_workers(1, timeout=10.0)
        requests = [
            (h, kind)
            for h in (self.INT_TRIANGLE, cycle(5))
            for kind in ("ghw", "fhw", "bounds")
        ]
        baseline = solve_many(requests, bounds="none", executor="thread")
        remote = solve_many(requests, bounds="none", executor="remote")
        stats = last_batch_stats()
        assert stats.tasks_remote > 0
        assert stats.tasks_local_fallback == 0
        assert all(r.ok for r in remote), [r.error for r in remote]
        assert [r.value[:-1] for r in remote] == [
            r.value[:-1] for r in baseline
        ]
        for (h, kind), result in zip(requests, remote):
            witness = result.value[-1]
            validate(h, witness, kind="ghd" if kind == "ghw" else "fhd",
                     width=witness.width() + 1e-9)
            if h is self.INT_TRIANGLE:
                assert all(
                    isinstance(v, int)
                    for nid in witness.node_ids
                    for v in witness.bag(nid)
                )

    @pytest.mark.parametrize(
        "solver, params",
        [
            ("check-hd", {"k": 2}),
            ("check-ghd", {"k": 1}),
            ("check-fhd-bd", {"k": 2}),
            ("check-ghd", {"k": 2}),
            ("ghw-exact", {}),
            ("fhw-exact", {}),
            ("heuristic-bounds", {}),
            ("heuristic-decomposition", {}),
            ("fhw-approximation", {"K": 3.0, "eps": 0.5}),
        ],
    )
    def test_every_solver_answer_round_trips(self, solver, params):
        h = self.INT_TRIANGLE
        value = run_block_task(solver, h, params)
        wire = json.loads(json.dumps(answer_payload(solver, value)))
        back = answer_from_payload(solver, wire, h)
        assert answer_payload(solver, back) == answer_payload(solver, value)

    def test_colliding_vertex_names_run_locally(self, empty_registry):
        _client, thread = _thread_worker(empty_registry, jobs=1)
        assert empty_registry.wait_for_workers(1, timeout=10.0)
        h = Hypergraph({"a": [1, "1"], "b": ["1", 2], "c": [2, 1]})
        (result,) = solve_many([h], bounds="none", executor="remote")
        assert result.ok and result.value[0] == 2
        stats = last_batch_stats()
        assert stats.tasks_remote == 0
        assert stats.tasks_local_fallback > 0

    def test_bad_task_frame_gets_an_error_reply(self):
        server = socket.create_server(("127.0.0.1", 0))
        client = WorkerClient(
            *server.getsockname()[:2], jobs=1, idle_timeout=None
        )
        thread = threading.Thread(target=client.run, daemon=True)
        thread.start()
        conn, _addr = server.accept()
        try:
            assert recv_message(conn)["type"] == "hello"
            task = {"type": "task", "solver": "check-ghd", "params": {"k": 2}}
            send_message(conn, {**task, "task": "t1", "hypergraph": []})
            reply = _next_reply(conn)
            assert reply["type"] == "error" and reply["task"] == "t1"
            assert reply["error"]["type"] == "ProtocolError"
            # The connection survives: a good frame is still answered.
            good = hypergraph_to_payload(cycle(4))
            send_message(conn, {**task, "task": "t2", "hypergraph": good})
            reply = _next_reply(conn)
            assert reply["type"] == "result" and reply["task"] == "t2"
            assert reply["value"]["accepted"] is True
            send_message(conn, {"type": "shutdown"})
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        finally:
            conn.close()
            server.close()

    def test_bad_result_frame_fails_the_future(self, empty_registry):
        sock = socket.create_connection(
            (empty_registry.host, empty_registry.port)
        )
        executor = RemoteExecutor(empty_registry, jobs=1)
        try:
            send_message(sock, {"type": "hello", "jobs": 1, "pid": 0})
            assert empty_registry.wait_for_workers(1, timeout=10.0)
            future = executor.submit(
                run_block_task, "ghw-exact", cycle(4), {}
            )
            task = _next_reply(sock)
            assert task["type"] == "task"
            bad = {"width": "two", "witness": None}
            send_message(
                sock, {"type": "result", "task": task["task"], "value": bad}
            )
            with pytest.raises(ValueError, match="malformed ghw-exact"):
                future.result(timeout=10.0)
            assert empty_registry.worker_count() == 1
        finally:
            executor.shutdown(wait=False)
            sock.close()

    def test_non_boolean_verdict_frame_fails_the_future(self, empty_registry):
        """``"accepted": "yes"`` is malformed, not an unvalidated "no"."""
        sock = socket.create_connection(
            (empty_registry.host, empty_registry.port)
        )
        executor = RemoteExecutor(empty_registry, jobs=1)
        try:
            send_message(sock, {"type": "hello", "jobs": 1, "pid": 0})
            assert empty_registry.wait_for_workers(1, timeout=10.0)
            future = executor.submit(
                run_block_task, "check-ghd", cycle(4), {"k": 2}
            )
            task = _next_reply(sock)
            assert task["type"] == "task"
            bad = {"accepted": "yes", "witness": None}
            send_message(
                sock, {"type": "result", "task": task["task"], "value": bad}
            )
            with pytest.raises(ValueError, match="malformed check-ghd"):
                future.result(timeout=10.0)
        finally:
            executor.shutdown(wait=False)
            sock.close()

    def test_no_pickle_in_dist(self):
        import pathlib

        import repro.dist

        package = pathlib.Path(repro.dist.__file__).parent
        for path in package.glob("*.py"):
            assert "import pickle" not in path.read_text(), path.name


def _next_reply(sock):
    """The next frame that is not a heartbeat or ping."""
    while True:
        message = recv_message(sock)
        if message["type"] not in ("heartbeat", "ping"):
            return message


# ----------------------------------------------------------------------
# Fault injection: real subprocess workers
# ----------------------------------------------------------------------
SLOW_WORKER = """
import time
from repro.dist import WorkerClient
from repro.pipeline.solve import run_block_task

def slow(solver, hypergraph, params):
    time.sleep(60.0)
    return run_block_task(solver, hypergraph, params)

raise SystemExit(
    WorkerClient(HOST, PORT, jobs=JOBS, idle_timeout=IDLE,
                 heartbeat_interval=0.3, runner=slow).run()
)
"""


class TestWorkerFaults:
    def test_killed_worker_requeues_and_loses_nothing(self):
        registry = WorkerRegistry(ping_interval=0.3, worker_timeout=4.0)
        previous = set_registry(registry)
        stuck = spawn_worker(registry.address, jobs=2, bootstrap=SLOW_WORKER)
        normal = spawn_worker(registry.address, jobs=2, idle_timeout=60)
        try:
            assert registry.wait_for_workers(2, timeout=20.0)
            stuck_pid = stuck.pid
            holder = {}

            def solve():
                holder["results"] = solve_many(
                    REQUESTS, jobs=4, executor="remote"
                )
                holder["stats"] = last_batch_stats()

            driver = threading.Thread(target=solve, daemon=True)
            driver.start()
            # Wait until the stuck worker holds at least one task, then
            # kill it: the registry must requeue onto the survivor.
            deadline = time.monotonic() + 20.0
            while True:
                hung = [
                    w
                    for w in registry.workers()
                    if w["pid"] == stuck_pid and w["in_flight"] > 0
                ]
                if hung:
                    break
                assert time.monotonic() < deadline, (
                    "stuck worker never received a task"
                )
                time.sleep(0.02)
            stuck.kill()
            driver.join(timeout=60.0)
            assert not driver.is_alive(), "batch hung after worker death"
            results = holder["results"]
            assert all(r.ok for r in results), [r.error for r in results]
            assert [r.value[0] for r in results] == [2, 2, 2]
            assert holder["stats"].requeued_tasks > 0
        finally:
            close_registry()
            set_registry(previous)
            for proc in (stuck, normal):
                proc.kill()
                proc.wait(timeout=10.0)

    def test_idle_worker_shuts_itself_down(self):
        registry = WorkerRegistry(ping_interval=0.3, worker_timeout=6.0)
        bootstrap = (
            "from repro.dist import WorkerClient\n"
            "raise SystemExit(WorkerClient(HOST, PORT, jobs=JOBS,"
            " idle_timeout=1.0, heartbeat_interval=0.2).run())\n"
        )
        proc = spawn_worker(registry.address, jobs=1, bootstrap=bootstrap)
        try:
            assert registry.wait_for_workers(1, timeout=20.0)
            # Never send work: the worker must say bye and exit 0 on
            # its own once idle_timeout elapses.
            assert proc.wait(timeout=30.0) == 0
            deadline = time.monotonic() + 10.0
            while registry.worker_count() > 0:
                assert time.monotonic() < deadline
                time.sleep(0.05)
        finally:
            proc.kill()
            registry.close()

    def test_worker_redials_until_the_registry_appears(self):
        """A worker that races its driver retries instead of dying."""
        # Reserve a port, then leave it unbound while the worker dials.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()[:2]
        probe.close()
        client = WorkerClient(
            host, port, jobs=1, idle_timeout=None,
            heartbeat_interval=0.3, connect_timeout=15.0,
        )
        thread = threading.Thread(target=client.run, daemon=True)
        thread.start()
        time.sleep(0.7)  # a few refused dials happen in this window
        registry = WorkerRegistry(host=host, port=port, ping_interval=0.5)
        try:
            assert registry.wait_for_workers(1, timeout=15.0)
        finally:
            registry.close()
            thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# Satellite: pickle round-trips across a real subprocess boundary
# ----------------------------------------------------------------------
ECHO_CHILD = """
import pickle, sys
blob = sys.stdin.buffer.read()
objects = pickle.loads(blob)
h, d = objects
# Touch derived/cached state on the far side so the round-trip result
# carries a populated cache back across the boundary.
h.primal_graph()
canonical = h.canonical_hash()
width = d.width()
sys.stdout.buffer.write(pickle.dumps((h, d, canonical, width)))
"""


class TestPickleBoundary:
    def test_hypergraph_and_decomposition_round_trip(self):
        from repro.pipeline import solve_width

        h = grid(3, 3)
        # Populate every lazy cache before pickling: none of it may
        # leak into the payload or corrupt the copy.
        h.primal_graph()
        hash(h)
        local_canonical = h.canonical_hash()
        width, decomposition = solve_width(h, kind="ghw")

        import os

        src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir if not path else src_dir + os.pathsep + path
        )
        proc = subprocess.run(
            [sys.executable, "-c", ECHO_CHILD],
            input=pickle.dumps((h, decomposition)),
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        h2, d2, remote_canonical, remote_width = pickle.loads(proc.stdout)

        assert h2 == h
        assert h2.edges == h.edges
        assert remote_canonical == local_canonical
        assert h2.canonical_hash() == local_canonical
        assert remote_width == decomposition.width() == width
        assert d2.width() == decomposition.width()
        assert d2.node_ids == decomposition.node_ids
        # The copy is fully functional, not a shell: it validates
        # against the re-hydrated hypergraph.
        from repro.decomposition.validation import is_ghd

        assert is_ghd(h2, d2)


# ----------------------------------------------------------------------
# Satellite: executor validation is derived from EXECUTORS everywhere
# ----------------------------------------------------------------------
class TestExecutorValidation:
    def test_executors_tuple(self):
        assert EXECUTORS == ("thread", "process", "remote")

    def test_solve_many_message_lists_all_executors(self):
        with pytest.raises(ValueError) as err:
            solve_many([], executor="zzz")
        for name in EXECUTORS:
            assert name in str(err.value)

    def test_widthsolver_message_lists_all_executors(self):
        with pytest.raises(ValueError) as err:
            WidthSolver(cycle(4), jobs=2, executor="zzz").hypertree_width()
        for name in EXECUTORS:
            assert name in str(err.value)

    def test_make_pool_message_lists_all_executors(self):
        from repro.pipeline.solve import make_pool

        with pytest.raises(ValueError) as err:
            make_pool("zzz", 1)
        for name in EXECUTORS:
            assert name in str(err.value)

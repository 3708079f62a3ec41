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
import http.client
import json
import select
import socket
import threading
import time

import pytest

from repro.cqcsp import Relation
from repro.hypergraph import Hypergraph
from repro.pipeline.batch import BatchRequest, solve_many
from repro.serve import (
    DecompositionServer,
    ServeClient,
    ServeError,
    request_to_payload,
)
from repro.store import ResultStore, answer_payload, checked_witness

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


def read_to_eof(sock, timeout=15.0) -> bytes:
    """Every byte the server sends until it closes (a timeout fails)."""
    sock.settimeout(timeout)
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def parse_responses(data: bytes) -> list:
    """Split raw bytes into ``(status, headers, payload)`` responses."""
    responses = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        length = int(headers["Content-Length"])
        status = int(lines[0].split()[1])
        responses.append((status, headers, json.loads(rest[:length])))
        data = rest[length:]
    return responses


def solve_bytes(hypergraph) -> bytes:
    """A keep-alive ``POST /solve`` for ``hypergraph`` as raw bytes."""
    body = json.dumps(request_to_payload(BatchRequest(hypergraph))).encode()
    head = f"POST /solve HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("ascii") + body


@pytest.fixture
def connects(monkeypatch):
    """Records every TCP connect ``http.client`` (so ServeClient) makes."""
    made = []
    original = http.client.HTTPConnection.connect

    def connect(self):
        made.append((self.host, self.port))
        original(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", connect)
    return made


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

    @pytest.mark.parametrize("preprocess", ["split", "none"])
    def test_isolated_vertices_in_every_mode(self, harness, preprocess):
        """A ``"vertices"`` entry outside every edge is dropped, as under
        ``full``, instead of failing the solve."""
        h, client = harness(preprocess=preprocess)
        body = {
            "hypergraph": {
                "edges": {"e": ["a"], "f": ["a", "b"]}, "vertices": ["z"],
            },
            "kind": "ghw",
        }
        response = client._call("POST", "/solve", body)
        assert response["ok"] and response["answer"]["width"] == 1

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

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("ghw", {"bogus": 1}),
            ("ghw", {"kmax": "3"}),
            ("fhw", {"upper": 1.0}),
            ("ghw", {"method": "bip", "max_sets": 5}),
        ],
        ids=["unknown", "wrong-type", "task-only", "method-mismatch"],
    )
    def test_bad_params_are_400_in_every_bounds_mode(
        self, harness, kind, params
    ):
        for bounds in ("portfolio", "none"):
            h, client = harness(bounds=bounds)
            with pytest.raises(ServeError) as excinfo:
                client.solve(triangle(), kind, params)
            assert excinfo.value.status == 400
            assert h.server.stats.solves == 0

    def test_huge_k_is_400(self, harness):
        """A finite ``k`` too large for the engines' float arithmetic is
        refused by the params spec, not failed inside the task (422)."""
        h, client = harness()
        with pytest.raises(ServeError) as excinfo:
            client.solve(cycle(4), "check-fhd-bd", {"k": 1e308})
        assert excinfo.value.status == 400
        assert "k must be <=" in excinfo.value.payload["error"]
        assert h.server.stats.solves == 0

    def test_deeply_nested_json_is_400(self, harness):
        """JSON nested past the parser's recursion limit gets 400 on
        both endpoints (it used to drop the connection unanswered)."""
        h, client = harness()
        body = b"[" * 100_000
        for path in ("/solve", "/query"):
            conn = http.client.HTTPConnection(
                h.server.host, h.server.port, timeout=15
            )
            try:
                conn.request("POST", path, body=body)
                response = conn.getresponse()
                payload = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 400
            assert "nested too deeply" in payload["error"]
        assert client.solve(triangle(), "ghw")["answer"]["width"] == 2

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
        with socket.create_connection(
            (server.host, server.port), timeout=timeout
        ) as sock:
            sock.sendall(payload)
            return read_to_eof(sock, timeout)

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

    def test_pipelined_requests_answer_in_order(self, harness):
        h, _ = harness()
        response = self._raw(
            h.server,
            b"GET /healthz HTTP/1.1\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        answers = parse_responses(response)
        assert [status for status, _, _ in answers] == [200, 200]
        assert [headers["Connection"] for _, headers, _ in answers] == [
            "keep-alive", "close"
        ]

    def test_chunked_body_is_refused_and_closed(self, harness):
        h, _ = harness()
        # Read as framed by Content-Length (none), the chunks would be
        # parsed as the next request; the daemon refuses and closes.
        response = self._raw(
            h.server,
            b"POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n",
        )
        [(status, headers, payload)] = parse_responses(response)
        assert status == 400 and headers["Connection"] == "close"
        assert "Transfer-Encoding" in payload["error"]
        assert h.server.stats.requests == 0

    def test_content_lengths_must_agree(self, harness):
        h, _ = harness()
        response = self._raw(
            h.server,
            b"POST /solve HTTP/1.1\r\n"
            b"Content-Length: 2\r\nContent-Length: 40\r\n\r\n{}",
        )
        [(status, headers, _)] = parse_responses(response)
        assert status == 400 and headers["Connection"] == "close"
        # Repeated but equal lengths frame the body unambiguously.
        response = self._raw(
            h.server,
            b"GET /healthz HTTP/1.1\r\nContent-Length: 0, 0\r\n"
            b"Content-Length: 0\r\nConnection: close\r\n\r\n",
        )
        [(status, _, _)] = parse_responses(response)
        assert status == 200

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /healthz HTTP/1.0\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        ],
    )
    def test_http10_and_connection_close_end_the_connection(
        self, harness, request_bytes
    ):
        h, _ = harness()
        [(status, headers, payload)] = parse_responses(
            self._raw(h.server, request_bytes)
        )
        assert status == 200 and payload["ok"]
        assert headers["Connection"] == "close"


    def test_header_lines_are_bounded(self, harness):
        h, client = harness()

        def head(lines: int) -> bytes:
            return (
                b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * (lines - 1)
                + b"Connection: close\r\n\r\n"
            )

        [(status, _, payload)] = parse_responses(
            self._raw(h.server, head(100))
        )
        assert status == 200 and payload["ok"]
        [(status, headers, payload)] = parse_responses(
            self._raw(h.server, head(101))
        )
        assert status == 431 and headers["Connection"] == "close"
        assert "more than 100 header lines" in payload["error"]
        # A 2,000,000-line head is refused at line 101, so the daemon
        # stops reading: the sender is cut off long before its end.
        chunk, chunks = b"X-Pad: 1\r\n" * 10_000, 200
        sent = []
        with socket.create_connection(
            (h.server.host, h.server.port), timeout=15
        ) as sock:

            def send():
                try:
                    sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                    for _ in range(chunks):
                        sock.sendall(chunk)
                        sent.append(len(chunk))
                    sock.sendall(b"\r\n")
                except OSError:  # the daemon closed the connection
                    pass

            sender = threading.Thread(target=send)
            sender.start()
            data = b""
            try:
                while piece := sock.recv(65536):
                    data += piece
            except ConnectionResetError:  # unread lines reset the socket
                pass
            sender.join(timeout=15)
        [(status, headers, _)] = parse_responses(data)
        assert status == 431 and headers["Connection"] == "close"
        assert len(sent) < chunks
        assert client.health()["ok"]


# ----------------------------------------------------------------------
# Persistent connections: reuse, idle limit, drain, client retry
# ----------------------------------------------------------------------
class TestKeepAlive:
    def test_one_connection_serves_many_calls(self, harness, connects):
        h, client = harness()
        for _ in range(3):
            assert client.health()["ok"]
            assert client.solve(triangle(), "ghw")["ok"]
        assert len(connects) == 1

    def test_idle_connection_closes_after_read_timeout(
        self, harness, connects
    ):
        h, client = harness(read_timeout=0.3)
        assert client.health()["ok"]
        answered = time.monotonic()
        sock = client._local.connection.sock
        # No 408 for a connection that never began a next request: the
        # daemon just closes it, and the socket reads EOF.
        assert select.select([sock], [], [], 5.0)[0]
        idle = time.monotonic() - answered
        assert sock.recv(1, socket.MSG_PEEK) == b""
        assert 0.2 <= idle < 2.0
        # The next call meets the closed connection and resends once.
        assert client.health()["ok"]
        assert len(connects) == 2

    def test_stop_closes_idle_connections(self, harness):
        h, client = harness()
        clients = [client] + [
            ServeClient(h.server.host, h.server.port) for _ in range(2)
        ]
        for each in clients:
            assert each.health()["ok"]
        assert len(h.server._connections) == 3  # all idle now
        began = time.monotonic()
        h.shutdown()
        assert time.monotonic() - began < 2.0
        assert not h.server._connections

    def test_drain_answers_in_flight_request_then_closes(self, harness):
        h, _ = harness()
        gate = h.gate()
        with socket.create_connection(
            (h.server.host, h.server.port), timeout=15
        ) as sock:
            sock.sendall(solve_bytes(triangle()))
            wait_until(lambda: len(h.server._pending) == 1)
            stopping = asyncio.run_coroutine_threadsafe(
                h.server.stop(), h.loop
            )
            wait_until(lambda: h.server._draining)
            gate.release.set()
            response = read_to_eof(sock)
        stopping.result(timeout=15)
        [(status, headers, payload)] = parse_responses(response)
        assert status == 200 and payload["answer"]["width"] == 2
        assert headers["Connection"] == "close"

    def test_restart_on_same_port_reconnects_once(self, harness, connects):
        h1, client = harness()
        assert client.health()["ok"]
        h1.shutdown()
        h2, _ = harness(port=h1.server.port)
        assert client.solve(triangle(), "ghw")["ok"]
        assert len(connects) == 2
        assert h2.server.stats.requests == 1

    def test_resend_is_one_shot(self, harness, connects):
        h, client = harness()
        assert client.health()["ok"]
        h.shutdown()
        # The reused connection is closed and the fresh one refused:
        # the refusal surfaces, with no third attempt.
        with pytest.raises(ConnectionRefusedError):
            client.health()
        assert len(connects) == 2

    def test_413_closes_and_the_client_recovers(self, harness, connects):
        h, client = harness(max_body=1024)
        assert client.health()["ok"]
        with pytest.raises(ServeError) as excinfo:
            client.solve(cycle(64), "ghw")
        assert excinfo.value.status == 413
        # The client honoured the 413's Connection: close ...
        assert client._local.connection is None
        # ... and its next solve goes out on a fresh connection.
        assert client.solve(triangle(), "ghw")["ok"]
        assert len(connects) == 2
        assert h.server.stats.requests == 1

    def test_unanswered_request_is_not_resent(self, harness):
        h, _ = harness()
        client = ServeClient(h.server.host, h.server.port, timeout=0.5)
        assert client.health()["ok"]
        gate = h.gate()
        # The reused connection times out waiting for an answer: the
        # daemon may be running the solve, so it is not sent again.
        with pytest.raises(TimeoutError):
            client.solve(triangle(), "ghw")
        gate.release.set()
        wait_until(lambda: not h.server._pending)
        assert h.server.stats.requests == 1
        assert h.server.stats.solves == 1

    def test_fresh_connection_closed_unanswered_is_not_resent(
        self, harness
    ):
        h, client = harness()
        original = h.server._route

        async def dropped(method, path, body):
            h.server._route = original
            await original(method, path, body)
            raise ConnectionResetError("answer lost")

        h.server._route = dropped
        with pytest.raises(http.client.RemoteDisconnected):
            client.solve(triangle(), "ghw")
        assert h.server.stats.requests == 1


# ----------------------------------------------------------------------
# The client's own HTTP/1.1, against a scripted raw-socket server
# ----------------------------------------------------------------------
class StubServer:
    """Answers requests with scripted bytes, one connection at a time.

    Each script entry is ``(segments, close)``: the segments are sent
    apart (so the client sees them arrive split), then the connection
    closes if ``close``.  ``requests`` holds every request read, as
    raw bytes.
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while self.script:
            try:
                conn, _ = self.listener.accept()
            except OSError:  # closed by close()
                return
            with conn:
                while self.script:
                    request = self._read(conn)
                    if request is None:
                        break
                    self.requests.append(request)
                    segments, close = self.script.pop(0)
                    for segment in segments:
                        conn.sendall(segment)
                        time.sleep(0.02)
                    if close:
                        break

    @staticmethod
    def _read(conn):
        data = b""
        while b"\r\n\r\n" not in data:
            if not (chunk := conn.recv(65536)):
                return None
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        fields = dict(
            line.lower().split(b": ", 1) for line in head.split(b"\r\n")[1:]
        )
        while len(body) < int(fields.get(b"content-length", 0)):
            if not (chunk := conn.recv(65536)):
                return None
            body += chunk
        return head + b"\r\n\r\n" + body

    def close(self):
        self.listener.shutdown(socket.SHUT_RDWR)
        self.listener.close()
        self.thread.join(timeout=15)


@pytest.fixture
def stub():
    """Factory for scripted servers and a client of each."""
    made = []

    def make(*script):
        server = StubServer(script)
        made.append(server)
        return server, ServeClient("127.0.0.1", server.port, timeout=15.0)

    yield make
    for server in made:
        server.close()


def response(payload, fields="", version="HTTP/1.1") -> bytes:
    """A 200 answer carrying ``payload``, with extra header ``fields``."""
    body = json.dumps(payload).encode()
    head = (
        f"{version} 200 OK\r\nContent-Length: {len(body)}\r\n{fields}\r\n"
    )
    return head.encode("ascii") + body


class TestClientWire:
    def test_one_write_per_request(self, stub, monkeypatch):
        writes = []
        for name in ("send", "sendall"):
            original = getattr(socket.socket, name)

            def spy(sock, data, *args, _name=name, _original=original):
                writes.append((sock, _name, bytes(data)))
                return _original(sock, data, *args)

            monkeypatch.setattr(socket.socket, name, spy)
        server, client = stub(([response({"ok": True})], False))
        assert client.solve(triangle(), "ghw") == {"ok": True}
        sock = client._local.connection.sock
        [request] = server.requests
        # Head and body go out together, in one write.
        assert [(name, data) for s, name, data in writes if s is sock] == [
            ("sendall", request)
        ]
        head, _, body = request.partition(b"\r\n\r\n")
        assert head.startswith(b"POST /solve HTTP/1.1\r\n")
        assert json.loads(body) == request_to_payload(
            BatchRequest(triangle())
        )

    def test_response_split_across_segments_is_read_whole(self, stub):
        payload = {"ok": True, "pad": "x" * 20_000}
        raw = response(payload)
        cuts = [0, 7, 20, 40, 9_000, 17_000, len(raw)]
        server, client = stub(
            ([raw[a:b] for a, b in zip(cuts, cuts[1:])], False),
            ([response({"ok": True})], False),
        )
        assert client.health() == payload
        # Nothing of the first answer is left to misframe the second.
        assert client.health() == {"ok": True}
        assert len(server.requests) == 2

    @pytest.mark.parametrize(
        "answer",
        [
            response({"ok": True}, version="HTTP/1.0"),
            response({"ok": True}, fields="Connection: close\r\n"),
        ],
        ids=["http10", "connection-close"],
    )
    def test_closing_answer_drops_the_connection(
        self, stub, connects, answer
    ):
        server, client = stub(([answer], True), ([response({})], False))
        assert client.health() == {"ok": True}
        assert client._local.connection is None
        assert client.health() == {}
        assert len(connects) == 2

    def test_body_cut_short_is_incomplete_and_not_resent(
        self, stub, connects
    ):
        cut = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"ok\""
        server, client = stub(
            ([response({"ok": True})], False), ([cut], True)
        )
        assert client.health() == {"ok": True}
        # Cut short on a reused connection, after its status line: the
        # daemon may have run the call, so it is not sent again.
        with pytest.raises(http.client.IncompleteRead):
            client.solve(triangle(), "ghw")
        assert client._local.connection is None
        assert len(server.requests) == 2 and len(connects) == 1

    @pytest.mark.parametrize(
        "answer",
        [
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
            b"Content-Length: 12\r\n\r\n{\"ok\": true}",
            b"HTTP/1.1 200 OK\r\nContent-Length: 0x2\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\n\r\n{}",
        ],
        ids=["chunked", "conflicting-lengths", "hex-length", "no-length"],
    )
    def test_unframed_answer_is_an_error(self, stub, connects, answer):
        # The stub keeps its end open: had the client kept its end too,
        # its next call would read this answer's body as a response.
        server, client = stub(([answer], False), ([response({})], False))
        with pytest.raises(http.client.HTTPException, match="bad response"):
            client.health()
        assert client._local.connection is None
        assert client.health() == {}
        assert len(connects) == 2


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
            and gate.entered == 1
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

    def test_default_spelled_params_share_one_solve(self, harness):
        h, client = harness()
        gate = h.gate()
        results = None

        def workload():
            nonlocal results
            results = fire([
                lambda: client.solve(triangle(), "ghw"),
                lambda: client.solve(
                    triangle(), "ghw", {"method": "fixpoint"}
                ),
            ])

        worker = threading.Thread(target=workload, daemon=True)
        worker.start()
        wait_until(
            lambda: h.server.stats.coalesced == 1
            and len(h.server._pending) == 1
        )
        gate.release.set()
        worker.join(timeout=120)
        assert [r["answer"]["width"] for r in results] == [2, 2]
        assert sorted(r["coalesced"] for r in results) == [False, True]
        assert h.server.stats.solves == 1

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
class TestStatsUnderConcurrency:
    def test_concurrent_solves_count_only_their_own_lp_solves(
        self, harness
    ):
        """``/stats`` ``lp_solves`` is exact with runs in parallel: the
        daemon's concurrent scheduler runs each count their own work."""
        from repro.engine import clear_context_registry

        instances = [cycle(n) for n in (9, 10, 11, 12)]
        clear_context_registry()
        h, client = harness(max_in_flight=len(instances), bounds="none")
        gate = h.gate()
        results = None

        def workload():
            nonlocal results
            results = fire(
                [lambda inst=inst: client.solve(inst, "fhw")
                 for inst in instances]
            )

        worker = threading.Thread(target=workload, daemon=True)
        worker.start()
        # Hold every run until all are admitted, so they run at once.
        wait_until(lambda: gate.entered == len(instances))
        gate.release.set()
        worker.join(timeout=120)
        assert all(r["ok"] for r in results), results
        concurrent = client.stats()["server"]["lp_solves"]
        h.shutdown()

        clear_context_registry()
        _h, client = harness(bounds="none")
        for inst in instances:
            assert client.solve(inst, "fhw")["ok"]
        alone = client.stats()["server"]["lp_solves"]
        assert concurrent == alone > 0


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
        # A search capped below the width fails inside the scheduler.
        with pytest.raises(ServeError) as excinfo:
            client.solve(triangle(), "hw", {"kmax": 1})
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
            lambda: client.solve(triangle(), "hw", {"kmax": 1}),  # fails
            lambda: client.solve(cycle(4), "hw"),
            lambda: client.solve(cycle(5), "hw", {"kmax": 1}),  # fails
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
                [lambda: client.solve(triangle(), "hw", {"kmax": 1})] * 3
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


    def test_store_hit_is_answered_on_the_loop(self, harness, tmp_path):
        """A stored instance answers with no scheduler run: it comes
        back while every run is gated shut, and counts as a store hit,
        not a solve."""
        h, client = harness(store=tmp_path / "store")
        cold = client.solve(triangle(), "ghw")
        before = h.server.stats.as_dict()
        gate = h.gate()
        fast = ServeClient(h.server.host, h.server.port, timeout=15.0)
        warm = fast.solve(triangle(), "ghw")
        assert gate.entered == 0
        assert warm["from_store"] is True and warm["coalesced"] is False
        assert warm["answer"] == cold["answer"]
        after = h.server.stats.as_dict()
        assert after["solves"] == before["solves"]
        hits = after["store_instance_hits"] - before["store_instance_hits"]
        assert hits == 1
        assert after["answers"] == before["answers"] + 1

    def test_record_damaged_after_open_falls_through_to_a_run(
        self, harness, tmp_path
    ):
        h, client = harness(store=tmp_path / "store")
        cold = client.solve(triangle(), "ghw")
        log = h.server.store.log_path
        data = log.read_bytes()
        start = data.find(b'{"key": ["instance"')
        assert start != -1
        with open(log, "r+b") as f:  # one payload byte, behind its back
            f.seek(start + 1)
            f.write(bytes([data[start + 1] ^ 0x01]))
        solves = h.server.stats.solves
        again = client.solve(triangle(), "ghw")
        assert h.server.store.stats.records_damaged == 1
        assert h.server.stats.solves == solves + 1
        assert h.server.stats.store_instance_hits == 0
        assert again["from_store"] is False
        assert again["answer"] == cold["answer"]

    def test_record_failing_revalidation_is_recomputed(
        self, harness, tmp_path
    ):
        """A CRC-valid instance record whose witness does not validate
        (a width-2 witness stored as width 1) is a miss."""
        good = solve_many([BatchRequest(triangle(), "ghw")])[0].value
        with ResultStore(tmp_path / "store") as store:
            key = store._key("instance", triangle(), "ghw", params={})
            forged = answer_payload("ghw", (1, good[1]))
            assert store.append(key, forged)
        h, client = harness(store=tmp_path / "store")
        response = client.solve(triangle(), "ghw")
        assert response["answer"]["width"] == 2
        assert response["from_store"] is False
        assert h.server.stats.solves == 1
        assert h.server.stats.store_instance_hits == 0
        assert checked_witness(
            triangle(), response["answer"]["witness"], "ghd", width=2 + _EPS
        ) is not None

    def test_store_hit_on_a_draining_daemon_is_503(self, harness, tmp_path):
        h, client = harness(store=tmp_path / "store")
        client.solve(triangle(), "ghw")
        hits = h.server.stats.store_instance_hits
        h.server._draining = True
        try:
            with pytest.raises(ServeError) as excinfo:
                client.solve(triangle(), "ghw")
            assert excinfo.value.status == 503
        finally:
            h.server._draining = False
        assert h.server.stats.rejected_draining == 1
        assert h.server.stats.store_instance_hits == hits

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

    def test_cached_plan_is_taken_on_the_loop(self, harness):
        """A plan in the LRU needs no plan run: the query answers while
        every plan run is gated shut; only execution uses the pool."""
        h, client = harness()
        cold = client.query(_CHAIN, _DB)
        gate = h.gate("_run_plan")
        fast = ServeClient(h.server.host, h.server.port, timeout=15.0)
        warm = fast.query(_CHAIN, _DB)
        assert gate.entered == 0
        assert warm["plan_cached"] is True and warm["coalesced"] is False
        assert warm["answers"] == cold["answers"]
        assert h.server.stats.plans_computed == 1
        assert h.server.stats.query_answers == 2

    def test_one_plan_key_hash_per_query(self, harness, monkeypatch):
        """A query builds its hypergraph once, so one request hashes one
        hypergraph: a cold plan and a plan-LRU hit alike."""
        h, client = harness()
        hashed = []
        canonical_hash = Hypergraph.canonical_hash

        def counting(hypergraph):
            hashed.append(hypergraph)
            return canonical_hash(hypergraph)

        monkeypatch.setattr(Hypergraph, "canonical_hash", counting)
        for cached in (False, True):
            hashed.clear()
            assert client.query(_CHAIN, _DB)["plan_cached"] is cached
            assert len({id(hypergraph) for hypergraph in hashed}) == 1

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

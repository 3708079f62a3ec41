"""Blocking client helper for the ``repro serve`` daemon.

Thin on purpose: one persistent connection per thread (so one client
object is safe to share across threads — the concurrency stress tests
hammer a single instance), JSON in, JSON out, and a :class:`ServeError`
carrying the HTTP status and the server's error payload on any non-200
answer.

The client speaks the daemon's own subset of HTTP/1.1 itself: a request
goes out in one write, and a response is framed by its
``Content-Length`` alone (:func:`~.protocol.message_framing`, the rule
the daemon applies to requests), read from one buffered reader that
lives as long as its connection.  A response with ``Transfer-Encoding``
or with a missing or ambiguous length is an error, and one from
HTTP/1.0 or with ``Connection: close`` ends the connection.

A kept-alive connection can be closed by the daemon between two calls
(idle past its ``read_timeout``, or a restart).  A call on a *reused*
connection that fails before any status line arrives is therefore sent
once more on a fresh connection.  Nothing else is resent — not a
timeout, not a fresh connection's failure, not a response cut short —
so a call the daemon may still be running is never submitted twice.
"""

from __future__ import annotations

import http.client
import json
import threading

from collections.abc import Mapping

from ..cqcsp import ConjunctiveQuery, Relation, relation_to_payload
from ..hypergraph import Hypergraph
from ..pipeline.batch import BatchRequest
from .protocol import (
    MAX_HEADER_LINES,
    ProtocolError,
    message_framing,
    request_to_payload,
)

__all__ = ["ServeClient", "ServeError"]

#: Longest status or header line a response may have (the limit of
#: :mod:`http.client`).
_MAX_LINE = 65536


class ServeError(RuntimeError):
    """A non-200 answer from the daemon.

    Attributes
    ----------
    status : int
        The HTTP status (400 protocol error, 422 failed computation,
        429 admission refused, 503 draining).
    payload : dict
        The server's JSON error body (``{"error": ...}``).
    """

    def __init__(self, status: int, payload: dict) -> None:
        error = (
            payload.get("error", "") if isinstance(payload, dict) else ""
        )
        super().__init__(f"HTTP {status}: {error}")
        self.status = status
        self.payload = payload


class _Connection(http.client.HTTPConnection):
    """A kept-alive connection, closed once its thread or client is gone.

    Of :class:`http.client.HTTPConnection` only ``connect()``, ``sock``
    and ``close()`` are used; requests and responses go through
    :meth:`send_request` and :meth:`read_response` on ``reader``.
    """

    reader = None

    def connect(self) -> None:
        super().connect()
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
            self.reader = None
        super().close()

    def __del__(self) -> None:
        self.close()

    def _line(self) -> bytes:
        line = self.reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise http.client.LineTooLong("response line")
        return line

    def send_request(self, request: bytes) -> bytes:
        """Send ``request`` in one write; returns its response's status
        line, or raises ``RemoteDisconnected`` if the daemon closed the
        connection instead."""
        self.sock.sendall(request)
        status_line = self._line()
        if not status_line:
            raise http.client.RemoteDisconnected(
                "Remote end closed connection without response"
            )
        return status_line

    def read_response(self, status_line: bytes) -> tuple[int, bytes, bool]:
        """The rest of the response: ``(status, body, keep_alive)``."""
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/") or not (
            len(parts[1]) == 3 and parts[1].isdigit()
        ):
            raise http.client.BadStatusLine(status_line.decode("latin-1"))
        field_lines = []
        while (line := self._line()) not in (b"\r\n", b"\n", b""):
            field_lines.append(line)
            if len(field_lines) > MAX_HEADER_LINES:
                raise http.client.HTTPException(
                    f"got more than {MAX_HEADER_LINES} headers"
                )
        try:
            length, keep_alive = message_framing(
                parts[0].decode("latin-1"), field_lines
            )
        except ProtocolError as exc:
            raise http.client.HTTPException(f"bad response: {exc}") from None
        if length is None:
            raise http.client.HTTPException(
                "bad response: no Content-Length"
            )
        body = self.reader.read(length)
        if len(body) < length:
            raise http.client.IncompleteRead(body, length - len(body))
        return int(parts[1]), body, keep_alive


class ServeClient:
    """Call a running decomposition daemon.

    Parameters
    ----------
    host, port : str, int
        The daemon's listen address.
    timeout : float, optional
        Per-call socket timeout in seconds (default 300 — solves can
        legitimately take a while; admission rejections return fast).
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8765, timeout: float = 300.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()

    def _connect(self) -> _Connection:
        connection = _Connection(self.host, self.port, timeout=self.timeout)
        connection.connect()
        self._local.connection = connection
        return connection

    def _call(self, method: str, path: str, body: dict | None = None) -> dict:
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
        if body is None:
            request = f"{head}\r\n".encode("ascii")
        else:
            data = json.dumps(body).encode("utf-8")
            request = (
                f"{head}Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n\r\n"
            ).encode("ascii") + data
        connection = getattr(self._local, "connection", None)
        reused = connection is not None
        if not reused:
            connection = self._connect()
        kept = False
        try:
            try:
                status_line = connection.send_request(request)
            except (BrokenPipeError, ConnectionResetError):
                # Closed before any status line (RemoteDisconnected is a
                # reset too): a reused connection resends once, afresh.
                if not reused:
                    raise
                connection.close()
                connection = self._connect()
                status_line = connection.send_request(request)
            status, answer, kept = connection.read_response(status_line)
        finally:
            if not kept:
                connection.close()
                self._local.connection = None
        payload = json.loads(answer.decode("utf-8"))
        if status != 200:
            raise ServeError(status, payload)
        return payload

    def solve(
        self,
        hypergraph: Hypergraph,
        kind: str = "ghw",
        params: dict | None = None,
        label: str | None = None,
    ) -> dict:
        """Solve one width query on the daemon.

        Returns the full response payload: ``{"ok", "kind", "label",
        "answer", "coalesced", "from_store"}`` with the answer in the
        store's instance-record schema.

        Raises
        ------
        ServeError
            On any non-200 status — inspect ``.status`` to tell
            admission rejections (429/503) from computation failures
            (422) and malformed requests (400).
        """
        request = BatchRequest(
            hypergraph,
            kind=kind,
            params=dict(params or {}),
            label=label,
        )
        return self._call("POST", "/solve", request_to_payload(request))

    def query(
        self,
        query: str | ConjunctiveQuery,
        relations: Mapping[str, object],
        label: str | None = None,
    ) -> dict:
        """Answer one conjunctive query on the daemon.

        ``query`` is CQ text (or a :class:`ConjunctiveQuery`, sent as
        its text form); ``relations`` maps relation names to
        :class:`~repro.cqcsp.Relation` objects or pre-encoded
        ``{"attributes", "rows"}`` payloads.  Returns the full
        response: ``{"ok", "label", "width", "answers", "cost",
        "satisfied", "coalesced", "plan_from_store", "plan_cached"}``.

        Raises
        ------
        ServeError
            On any non-200 status, same taxonomy as :meth:`solve`.
        """
        encoded = {
            name: (
                relation_to_payload(rel)
                if isinstance(rel, Relation)
                else rel
            )
            for name, rel in relations.items()
        }
        body: dict = {"query": str(query), "relations": encoded}
        if label is not None:
            body["label"] = label
        return self._call("POST", "/query", body)

    def stats(self) -> dict:
        """The daemon's ``GET /stats`` payload (server/store/config)."""
        return self._call("GET", "/stats")

    def health(self) -> dict:
        """The daemon's ``GET /healthz`` payload."""
        return self._call("GET", "/healthz")

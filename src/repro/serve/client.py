"""Blocking client helper for the ``repro serve`` daemon.

Thin on purpose: one :class:`http.client.HTTPConnection` per call (so
one client object is safe to share across threads — the concurrency
stress tests hammer a single instance), JSON in, JSON out, and a
:class:`ServeError` carrying the HTTP status and the server's error
payload on any non-200 answer.
"""

from __future__ import annotations

import http.client
import json

from collections.abc import Mapping

from ..cqcsp import ConjunctiveQuery, Relation, relation_to_payload
from ..hypergraph import Hypergraph
from ..pipeline.batch import BatchRequest
from .protocol import request_to_payload

__all__ = ["ServeClient", "ServeError"]


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

    def _call(self, method: str, path: str, body: dict | None = None) -> dict:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            data = None if body is None else json.dumps(body).encode("utf-8")
            headers = {"Content-Type": "application/json"} if data else {}
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
            if response.status != 200:
                raise ServeError(response.status, payload)
            return payload
        finally:
            connection.close()

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

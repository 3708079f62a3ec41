"""The one JSON codec for hypergraphs, requests and answers: HTTP
bodies, CLI manifests and remote-worker frames (:mod:`repro.dist`).

Everything is plain JSON — no dependency beyond the standard library,
and no decoder that can execute code.  A solve request posts::

    {"hypergraph": {"edges": {"ab": ["a", "b"], ...},
                    "vertices": [...],          # optional isolated ones
                    "name": "query-17"},        # optional
     "kind": "ghw",                             # any BATCH_KINDS entry
     "params": {"k": 2, ...},                   # optional solver params
     "label": "q17"}                            # optional display name

and receives an answer in the schema :mod:`repro.store` owns
(:func:`repro.store.answer_payload`, also the encoding of its records:
width and witness, a check verdict and witness, or bounds and witness)
— so a response can be re-validated client-side with
:func:`repro.store.checked_witness` if desired.  A worker's block-task
result uses the same schema, keyed by its solver name, and decodes
through the store's decoder (:func:`answer_from_payload` here re-raises
its errors as :class:`ProtocolError`), and the task's engine counts
travel next to it (:func:`counts_payload`, :func:`counts_from_payload`).

:func:`request_key` is the coalescing identity: two requests with the
same canonical hypergraph hash, kind and parameter fingerprint are *the same computation* and share one
scheduler run server-side.

A query request (``POST /query``) posts a CQ plus its relations::

    {"query": "q(x, z) :- r(x, y), r(y, z).",
     "relations": {"r": {"attributes": ["a", "b"],
                         "rows": [[1, 2], [2, 3]]}},
     "label": "two-hop"}                        # optional display name

and receives ``{"width", "answers": {"attributes", "rows"}, "cost",
"satisfied"}``.  Its coalescing identity (:func:`query_key`) covers
only the *plan* — the query-shape solve — because two queries with
the same shape but different data must share the decomposition work,
never the answers.

The bodies travel in HTTP/1.1 messages framed by ``Content-Length``
alone; :func:`message_framing` is that framing rule, applied by the
daemon to each request and by :class:`~repro.serve.ServeClient` to each
response.
"""

from __future__ import annotations

from .. import store
from ..cqcsp import parse_cq, relation_from_payload
from ..engine.oracle import OracleStats
from ..cqcsp.planner import plan_key
from ..hypergraph import Hypergraph
from ..hypergraph.io import short_repr
from ..pipeline.batch import BATCH_KINDS, BatchRequest, request_params
from ..store import answer_payload, params_fingerprint

__all__ = [
    "MAX_HEADER_LINES",
    "ProtocolError",
    "message_framing",
    "hypergraph_to_payload",
    "hypergraph_from_payload",
    "request_from_payload",
    "request_to_payload",
    "request_key",
    "answer_payload",
    "answer_from_payload",
    "counts_payload",
    "counts_from_payload",
    "query_request_from_payload",
    "query_key",
    "query_answer_payload",
]


#: Most header lines one HTTP message may have, on either side (the
#: limit of :mod:`http.client`): the daemon refuses a longer request
#: head with 431 and the client a longer response head.
MAX_HEADER_LINES = 100


class ProtocolError(ValueError):
    """A malformed request payload (mapped to HTTP 400)."""


def message_framing(version: str, field_lines) -> tuple[int | None, bool]:
    """The body length and keep-alive of one HTTP/1.x message.

    ``version`` is the message's protocol (``"HTTP/1.1"``) and
    ``field_lines`` its raw header lines.  Returns ``(length,
    keep_alive)``: ``length`` is the ``Content-Length`` (None when the
    message has none), and only an HTTP/1.1 message without
    ``Connection: close`` keeps its connection.

    Raises
    ------
    ProtocolError
        On ``Transfer-Encoding``, or ``Content-Length`` values that
        disagree or are not decimal.  On a reused connection a body must
        end where its length says, or its tail would be read as the
        next message.
    """
    fields: dict[str, list[str]] = {}
    for line in field_lines:
        name, _, value = line.decode("latin-1").partition(":")
        # A repeated field is one comma-separated list (RFC 9110 §5.3).
        fields.setdefault(name.strip().lower(), []).extend(value.split(","))
    if "transfer-encoding" in fields:
        raise ProtocolError("Transfer-Encoding is not supported")
    lengths = {value.strip() for value in fields.get("content-length", ())}
    if len(lengths) > 1:
        raise ProtocolError("conflicting Content-Length values")
    if not all(value.isdecimal() for value in lengths):
        raise ProtocolError("bad Content-Length")
    length = int(lengths.pop()) if lengths else None
    tokens = {value.strip().lower() for value in fields.get("connection", ())}
    return length, version == "HTTP/1.1" and "close" not in tokens


def hypergraph_to_payload(hypergraph: Hypergraph) -> dict:
    """Encode a hypergraph as the wire's plain-JSON shape."""
    payload: dict = {
        "edges": {
            name: sorted(map(str, vs))
            for name, vs in hypergraph.edges.items()
        }
    }
    isolated = hypergraph.isolated_vertices()
    if isolated:
        payload["vertices"] = sorted(map(str, isolated))
    if hypergraph.name:
        payload["name"] = hypergraph.name
    return payload


def hypergraph_from_payload(obj) -> Hypergraph:
    """Decode the wire shape back into a :class:`Hypergraph`.

    Raises
    ------
    ProtocolError
        On any malformed shape — wrong types, empty edges, missing
        keys.  Vertices arrive as strings (the wire is JSON), which is
        also what keeps store keys and witnesses round-trippable.
    """
    if not isinstance(obj, dict):
        raise ProtocolError("hypergraph must be a JSON object")
    edges = obj.get("edges")
    if not isinstance(edges, dict) or not edges:
        raise ProtocolError("hypergraph needs a non-empty 'edges' object")
    for name, vs in edges.items():
        if not isinstance(vs, (list, tuple)) or not vs:
            raise ProtocolError(
                f"edge {short_repr(name)} must be a non-empty list"
            )
        if not all(isinstance(v, str) for v in vs):
            raise ProtocolError(
                f"edge {short_repr(name)} has non-string vertices"
            )
    declared = obj.get("vertices", [])
    if not isinstance(declared, (list, tuple)) or not all(
        isinstance(v, str) for v in declared
    ):
        raise ProtocolError("'vertices' must be a list of strings")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise ProtocolError("'name' must be a string")
    try:
        return Hypergraph(edges, vertices=declared, name=name)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def _check_fields(obj, fields: tuple) -> None:
    """Reject a non-object body or one with fields outside ``fields``."""
    if not isinstance(obj, dict):
        raise ProtocolError("request body must be a JSON object")
    unknown = set(obj) - set(fields)
    if unknown:
        raise ProtocolError(
            f"unknown request fields: {short_repr(sorted(unknown))}; "
            f"valid fields: {', '.join(fields)}"
        )


def request_from_payload(obj) -> BatchRequest:
    """Decode one solve request; raises :class:`ProtocolError`.

    The params come back normalised by
    :func:`~repro.pipeline.batch.request_params`."""
    _check_fields(obj, ("hypergraph", "kind", "label", "params"))
    hypergraph = hypergraph_from_payload(obj.get("hypergraph"))
    kind = obj.get("kind", "ghw")
    if kind not in BATCH_KINDS:
        raise ProtocolError(
            f"kind must be one of {', '.join(BATCH_KINDS)}; "
            f"got {short_repr(kind)}"
        )
    try:
        params = request_params(kind, obj.get("params"))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise ProtocolError("'label' must be a string")
    return BatchRequest(hypergraph, kind=kind, params=params, label=label)


def request_to_payload(request: BatchRequest) -> dict:
    """Encode a :class:`~repro.pipeline.batch.BatchRequest` for the wire."""
    payload: dict = {
        "hypergraph": hypergraph_to_payload(request.hypergraph),
        "kind": request.kind,
    }
    if request.params:
        payload["params"] = dict(request.params)
    if request.label is not None:
        payload["label"] = request.label
    return payload


def request_key(request: BatchRequest) -> tuple:
    """The coalescing identity of a request.

    Built from the canonical (process-stable) hypergraph hash, the
    request kind and the parameter fingerprint — exactly the dimensions
    the result store keys on, so coalesced requests are also the ones
    that would share a store record.
    """
    return (
        request.hypergraph.canonical_hash(),
        request.kind,
        params_fingerprint(request.params),
    )


def query_request_from_payload(obj) -> tuple:
    """Decode one query request into ``(query, database, label)``.

    Raises :class:`ProtocolError` (mapped to HTTP 400) on unknown
    fields, an unparseable CQ, or malformed relations — before any
    planning or execution happens.
    """
    _check_fields(obj, ("label", "query", "relations"))
    text = obj.get("query")
    if not isinstance(text, str):
        raise ProtocolError("'query' must be a CQ string")
    try:
        query = parse_cq(text)
    except ValueError as exc:
        raise ProtocolError(f"cannot parse query: {exc}") from exc
    relations = obj.get("relations")
    if not isinstance(relations, dict) or not relations:
        raise ProtocolError("'relations' must be a non-empty object")
    database = {}
    for name, payload in relations.items():
        try:
            database[name] = relation_from_payload(name, payload)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise ProtocolError("'label' must be a string")
    return query, database, label


def query_key(query) -> tuple:
    """The coalescing identity of a query request — its *plan*.

    A tagged :func:`repro.cqcsp.planner.plan_key`: canonical query-
    hypergraph hash × plan kind × params fingerprint.  The
    data is deliberately absent — N concurrent queries of one shape
    share one plan solve and then each execute on their own relations.
    The key identifies the *plan* only: distinct queries (different
    head, constants or argument order over the same hypergraph) also
    coalesce, which is safe because the server rebinds the shared plan
    to each request's own parsed query before executing — a coalesced
    caller never runs a sibling's query.  The tag keeps plan futures
    distinct from ``/solve`` futures in the server's single pending
    map (their resolved values differ).
    """
    return ("query-plan",) + plan_key(query)


def query_answer_payload(result) -> dict:
    """Encode a :class:`~repro.cqcsp.planner.QueryResult` for the wire.

    Rows are sorted deterministically, so equal answer sets encode
    byte-identically — the property benchmark E24 asserts between cold
    and plan-warm serving.
    """
    from ..cqcsp import relation_to_payload

    return {
        "width": result.plan.width,
        "answers": relation_to_payload(result.answers),
        "cost": result.cost,
        "satisfied": result.satisfied,
    }


def answer_from_payload(kind: str, payload, hypergraph: Hypergraph):
    """The store's answer decoder, raising :class:`ProtocolError` if bad."""
    try:
        return store.answer_from_payload(kind, payload, hypergraph)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


#: The largest count a worker may report: the largest integer every
#: JSON reader holds exactly, far above what one block task can do.
_MAX_COUNT = 2**53


def counts_payload(counts: OracleStats) -> dict:
    """A task's engine counts as a JSON object, one int per counter."""
    return {name: getattr(counts, name) for name in OracleStats.__slots__}


def counts_from_payload(payload) -> OracleStats:
    """Decode :func:`counts_payload`'s object, raising
    :class:`ProtocolError` unless it holds exactly the counters, each
    an int (never a bool) in ``[0, 2**53]``."""
    counts = OracleStats()
    if not isinstance(payload, dict) or payload.keys() != set(
        OracleStats.__slots__
    ) or not all(
        type(v) is int and 0 <= v <= _MAX_COUNT for v in payload.values()
    ):
        raise ProtocolError(f"malformed task counts: {short_repr(payload)}")
    for name, value in payload.items():
        setattr(counts, name, value)
    return counts

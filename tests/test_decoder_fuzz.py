"""Decoder fuzz: every decoder of outside input fails only in its own way.

Whatever arrives — an HTTP body, a manifest entry, a worker frame, a
stored witness — the decoder either returns a value or raises its
documented error type.  Nothing else (``TypeError``, ``KeyError``,
``AttributeError``, ...) may escape to kill a request handler or a
connection thread.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomposition.io import decomposition_from_dict
from repro.dist import protocol as wire
from repro.hypergraph import Hypergraph
from repro.pipeline.batch import BATCH_KINDS
from repro.serve.protocol import (
    ProtocolError,
    answer_from_payload,
    query_request_from_payload,
    request_from_payload,
)

FUZZ = settings(max_examples=150, deadline=None)

names = st.text(max_size=4)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(names, children, max_size=4),
    max_leaves=16,
)


def near(value_strategy):
    """The well-shaped values, or any JSON value at all."""
    return value_strategy | json_values


hypergraph_payloads = st.fixed_dictionaries(
    {"edges": near(st.dictionaries(names, near(st.lists(names, max_size=3))))},
    optional={"vertices": near(st.lists(names)), "name": near(names)},
)
solve_payloads = st.fixed_dictionaries(
    {},
    optional={
        "hypergraph": near(hypergraph_payloads),
        "kind": near(st.sampled_from(BATCH_KINDS)),
        "params": json_values,
        "label": near(names),
        "executor": json_values,
    },
)
relation_payloads = st.fixed_dictionaries(
    {"attributes": near(st.lists(names, max_size=3))},
    optional={"rows": near(st.lists(near(st.lists(json_values, max_size=3))))},
)
query_payloads = st.fixed_dictionaries(
    {},
    optional={
        "query": near(
            st.sampled_from(
                ["q(x) :- r(x, y).", ":- r(x, y), r(y, z).", "q(x :- r("]
            )
            | st.text(max_size=20)
        ),
        "relations": near(st.dictionaries(names, near(relation_payloads))),
        "label": near(names),
    },
)
node_payloads = st.fixed_dictionaries(
    {},
    optional={
        "bag": near(st.lists(names, max_size=3)),
        "cover": near(st.dictionaries(names, near(st.floats()))),
    },
)
decomposition_payloads = st.fixed_dictionaries(
    {},
    optional={
        "root": near(st.sampled_from(["n0", "n1"])),
        "nodes": near(
            st.dictionaries(st.sampled_from(["n0", "n1"]), near(node_payloads))
        ),
        "parent": near(st.dictionaries(names, near(names))),
    },
)


class TestRemovedSolverField:
    """There is no engine mode to pick: a ``/solve`` body or a CLI
    manifest entry that still sends ``"solver"`` — whatever its value —
    carries an unknown field and fails like any other (HTTP 400, exit
    2), before anything is solved."""

    _BODY = {"hypergraph": {"edges": {"ab": ["a", "b"]}}, "kind": "ghw"}

    @pytest.mark.parametrize("value", ["bb", "sat", "portfolio"])
    def test_solve_body_with_solver_is_a_protocol_error(self, value):
        with pytest.raises(
            ProtocolError, match=r"unknown request fields: \['solver'\]"
        ):
            request_from_payload({**self._BODY, "solver": value})

    def test_manifest_entry_with_solver_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{**self._BODY, "solver": "bb"}]))
        assert main(["batch", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "entry 0: unknown request fields: ['solver']" in err


class TestHttpDecoders:
    @FUZZ
    @given(payload=near(solve_payloads))
    def test_solve_requests_raise_only_protocol_errors(self, payload):
        try:
            request_from_payload(payload)
        except ProtocolError:
            pass

    @FUZZ
    @given(payload=near(query_payloads))
    def test_query_requests_raise_only_protocol_errors(self, payload):
        try:
            query_request_from_payload(payload)
        except ProtocolError:
            pass

    @pytest.mark.parametrize(
        "row", ["[NaN, 1]", "[1, Infinity]", "[-Infinity, 1]", "[true, 1]"]
    )
    def test_query_rows_hold_only_finite_non_bool_scalars(self, row):
        # ``json.loads`` accepts these; the daemon must answer 400, not
        # echo ``NaN`` back or merge ``true`` with ``1``.
        body = (
            '{"query": "q(x) :- r(x, y).", "relations": {"r": '
            '{"attributes": ["a", "b"], "rows": [[1, 2], ' + row + "]}}}"
        )
        with pytest.raises(ProtocolError):
            query_request_from_payload(json.loads(body))


class TestWitnessDecoders:
    @FUZZ
    @given(payload=near(decomposition_payloads))
    def test_decomposition_from_dict_raises_only_value_errors(self, payload):
        try:
            decomposition_from_dict(payload)
        except ValueError:
            pass

    @FUZZ
    @given(
        kind=st.sampled_from(
            ["check-ghd", "heuristic-bounds", "fhw-approximation", "ghw-exact"]
        ),
        payload=near(
            st.fixed_dictionaries(
                {},
                optional={
                    key: near(decomposition_payloads)
                    for key in (
                        "accepted", "witness", "decomposition", "width",
                        "lower", "iterations", "trace",
                    )
                },
            )
        ),
    )
    def test_worker_answers_raise_only_protocol_errors(self, kind, payload):
        h = Hypergraph({"a": [1, 2], "b": [2, 3]})
        try:
            answer_from_payload(kind, payload, h)
        except ProtocolError:
            pass


def _recv(raw: bytes):
    a, b = socket.socketpair()
    try:
        a.sendall(raw)
        a.close()
        return wire.recv_message(b)
    finally:
        b.close()


def _framed(payload: bytes) -> bytes:
    header = struct.pack(">4sII", wire.MAGIC, len(payload), zlib.crc32(payload))
    return header + payload


class TestWorkerFrames:
    @FUZZ
    @given(raw=st.binary(max_size=64))
    def test_random_bytes_raise_only_protocol_errors(self, raw):
        for data in (raw, _framed(raw)):
            try:
                message = _recv(data)
            except wire.ProtocolError:
                continue
            assert message is None or isinstance(message, dict)

    @FUZZ
    @given(value=json_values)
    def test_json_frames_decode_to_dicts_or_fail(self, value):
        data = _framed(json.dumps(value).encode("utf-8"))
        try:
            message = _recv(data)
        except wire.ProtocolError:
            assert not isinstance(value, dict)
        else:
            assert json.dumps(message) == json.dumps(value)

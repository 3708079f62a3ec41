"""Decoder fuzz: every decoder of outside input fails only in its own way.

Whatever arrives — an HTTP body, a manifest entry, a worker frame, a
stored witness, a result-log frame — the decoder either returns a value
or raises its documented error type (a store opens on any log).
Nothing else (``TypeError``, ``KeyError``, ``AttributeError``, ...) may
escape to kill a request handler or a connection thread.
"""

from __future__ import annotations

import json
import socket
import struct
import time
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomposition.io import decomposition_from_dict
from repro.dist import protocol as wire
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import triangle_cascade
from repro.pipeline import BOUNDS_MODES, BatchRequest, solve_many
from repro.pipeline.batch import (
    _KIND_TABLE,
    BATCH_KINDS,
    GHD_CAPS,
    request_params,
)
from repro.serve.protocol import (
    ProtocolError,
    answer_from_payload,
    query_request_from_payload,
    request_from_payload,
)
from repro.store import STORE_FILENAME, ResultStore

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


#: Params no spec takes, one per way to be wrong.
BAD_PARAMS = {
    "unknown": ("ghw", {"bogus": 1}),
    "wrong-type": ("ghw", {"kmax": "3"}),
    "bool-for-int": ("hw", {"kmax": True}),
    "task-only-upper": ("fhw", {"upper": 1.0}),
    "task-only-oracle": ("bounds", {"oracle": None}),
    "k-on-a-search": ("ghw", {"k": 2}),
    "method-mismatch": ("ghw", {"method": "bip", "max_sets": 5}),
    "bmip-without-c": ("check-ghd", {"k": 2, "method": "bmip"}),
    "check-without-k": ("check-hd", {}),
    "k-below-1": ("check-hd", {"k": 0}),
    "non-finite-k": ("check-fhd-bd", {"k": float("inf")}),
    "huge-k": ("check-fhd-bd", {"k": 1e308}),
    "huge-int-k": ("check-hd", {"k": 10**400}),
    "huge-kmax": ("hw", {"kmax": 10**400}),
}

#: Every name some spec takes, plus task-only and unknown ones.
param_names = st.sampled_from(
    sorted(
        {name for spec in _KIND_TABLE.values() for name in spec[3]}
        | {name for caps in GHD_CAPS.values() for name in caps}
        | {"upper", "oracle", "bogus"}
    )
)


class TestRequestParams:
    """Every request passes one params check before anything runs: a
    bad name or value is one ``ValueError`` in every bounds mode, and a
    ``ProtocolError`` (HTTP 400, exit 2) from the decoder."""

    @pytest.mark.parametrize("case", sorted(BAD_PARAMS))
    def test_bad_params_raise_only_protocol_errors(self, case):
        kind, params = BAD_PARAMS[case]
        body = {"hypergraph": {"edges": {"ab": ["a", "b"]}}, "kind": kind}
        with pytest.raises(ProtocolError):
            request_from_payload({**body, "params": params})

    @pytest.mark.parametrize("case", sorted(BAD_PARAMS))
    def test_bad_params_are_one_error_in_every_mode(self, case):
        kind, params = BAD_PARAMS[case]
        errors = set()
        for bounds in BOUNDS_MODES:
            (result,) = solve_many(
                [BatchRequest(triangle_cascade(3), kind, dict(params))],
                bounds=bounds,
            )
            assert type(result.error) is ValueError
            assert result.stats.tasks_run == 0
            errors.add(str(result.error))
        assert len(errors) == 1

    @FUZZ
    @given(
        kind=st.sampled_from(BATCH_KINDS),
        params=st.dictionaries(param_names, json_values, max_size=4),
    )
    def test_params_decode_normalised_or_fail(self, kind, params):
        body = {"hypergraph": {"edges": {"ab": ["a", "b"]}}, "kind": kind}
        try:
            request = request_from_payload({**body, "params": params})
        except ProtocolError:
            return
        assert request_params(kind, request.params) == request.params


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

    def test_query_text_parses_in_linear_time(self):
        # A run of identifier characters with no "(" holds no atom.
        # Trying the atom pattern from each of its positions would take
        # quadratic time on the event loop (minutes at this length).
        body = {"query": "q(x) :- r(x, y), " + "a" * 100_000, "relations": {}}
        began = time.perf_counter()
        with pytest.raises(ProtocolError, match="cannot parse"):
            query_request_from_payload(body)
        assert time.perf_counter() - began < 0.1


TRIANGLE = {"edges": {"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]}}

#: Payloads whose bad value is huge: the 400 message quotes a bounded
#: repr of it, not the value.
HUGE_BAD_PAYLOADS = {
    "params-list": lambda: request_from_payload(
        {"hypergraph": TRIANGLE, "params": list(range(100_000))}
    ),
    "param-value": lambda: request_from_payload(
        {"hypergraph": TRIANGLE, "params": {"kmax": list(range(100_000))}}
    ),
    "edge-name": lambda: request_from_payload(
        {"hypergraph": {"edges": {"e" * 100_000: []}}}
    ),
    "kind": lambda: request_from_payload(
        {"hypergraph": TRIANGLE, "kind": "k" * 100_000}
    ),
    "fields": lambda: request_from_payload(
        {str(i): 1 for i in range(20_000)}
    ),
    "query-text": lambda: query_request_from_payload(
        {"query": "q(x) :- r(x, y), " + "%" * 100_000, "relations": {}}
    ),
    "query-term": lambda: query_request_from_payload(
        {"query": "q(x) :- r(x, " + "%" * 100_000 + ").", "relations": {}}
    ),
    "relation-attributes": lambda: query_request_from_payload(
        {
            "query": "q(x) :- r(x, y).",
            "relations": {"r": {"attributes": ["a"] * 50_000, "rows": []}},
        }
    ),
    "relation-row": lambda: query_request_from_payload(
        {
            "query": "q(x) :- r(x, y).",
            "relations": {
                "r": {
                    "attributes": ["a", "b"],
                    "rows": [[list(range(50_000)), 1]],
                }
            },
        }
    ),
}


@pytest.mark.parametrize("case", sorted(HUGE_BAD_PAYLOADS))
def test_error_messages_stay_short(case):
    with pytest.raises(ProtocolError) as err:
        HUGE_BAD_PAYLOADS[case]()
    assert len(str(err.value)) < 512


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


def _framed(payload: bytes, magic: bytes = wire.MAGIC) -> bytes:
    header = struct.pack(">4sII", magic, len(payload), zlib.crc32(payload))
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


scalars = st.none() | st.booleans() | st.integers() | st.floats() | names
store_records = st.fixed_dictionaries(
    {},
    optional={
        "key": near(st.lists(near(scalars), max_size=4)),
        "value": json_values,
    },
)


def _is_scalar(part) -> bool:
    return part is None or isinstance(part, (str, int, float))


class TestStoreFrames:
    @FUZZ
    @given(records=st.lists(near(store_records), max_size=4))
    def test_crc_valid_frames_open_with_scalar_keys(
        self, records, tmp_path_factory
    ):
        """A log of CRC-valid frames holding any JSON opens, indexes only
        keys that are tuples of scalars, and stops at the first record
        that is not ``{"key": [scalars...], "value": ...}``."""
        base = tmp_path_factory.mktemp("store")
        (base / STORE_FILENAME).write_bytes(
            b"".join(
                _framed(json.dumps(record).encode("utf-8"), magic=b"RPS1")
                for record in records
            )
        )
        good = {}
        for record in records:
            key = record.get("key") if isinstance(record, dict) else None
            if not (
                isinstance(key, list)
                and all(map(_is_scalar, key))
                and "value" in record
            ):
                break
            good[tuple(key)] = record["value"]
        with ResultStore(base) as store:
            for key in store._index:
                assert isinstance(key, tuple)
                assert all(map(_is_scalar, key))
            assert [json.dumps(k) for k in store._index] == [
                json.dumps(k) for k in good
            ]

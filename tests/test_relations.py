"""Tests for the relational algebra substrate."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cqcsp import (
    Relation,
    join_all,
    relation_from_payload,
    relation_to_payload,
)


def rel(name, attrs, rows):
    return Relation.from_rows(name, attrs, rows)


class TestConstruction:
    def test_basic(self):
        r = rel("r", ["a", "b"], [(1, 2), (3, 4)])
        assert len(r) == 2
        assert ("a", "b") == r.attributes

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(ValueError):
            rel("r", ["a", "a"], [])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rel("r", ["a"], [(1, 2)])


class TestOperators:
    def test_project(self):
        r = rel("r", ["a", "b"], [(1, 2), (1, 3)])
        assert r.project(["a"]).tuples == frozenset({(1,)})

    def test_project_unknown(self):
        with pytest.raises(KeyError):
            rel("r", ["a"], []).project(["z"])

    def test_rename(self):
        r = rel("r", ["a", "b"], [(1, 2)]).rename({"a": "x"})
        assert r.attributes == ("x", "b")

    def test_select_equal(self):
        r = rel("r", ["a", "b"], [(1, 2), (3, 2), (1, 5)])
        assert len(r.select_equal("a", 1)) == 2

    def test_join_shared_attribute(self):
        r = rel("r", ["a", "b"], [(1, 2), (2, 3)])
        s = rel("s", ["b", "c"], [(2, 9), (7, 8)])
        out = r.join(s)
        assert out.tuples == frozenset({(1, 2, 9)})
        assert out.attributes == ("a", "b", "c")

    def test_join_no_shared_is_product(self):
        r = rel("r", ["a"], [(1,), (2,)])
        s = rel("s", ["b"], [(8,), (9,)])
        assert len(r.join(s)) == 4

    def test_semijoin(self):
        r = rel("r", ["a", "b"], [(1, 2), (2, 3)])
        s = rel("s", ["b"], [(2,)])
        assert r.semijoin(s).tuples == frozenset({(1, 2)})

    def test_empty_relation_flows(self):
        r = rel("r", ["a"], [])
        s = rel("s", ["a"], [(1,)])
        assert r.join(s).is_empty()
        assert s.semijoin(r).is_empty()

    def test_join_all_tracks_intermediates(self):
        rs = [
            rel("r1", ["a", "b"], [(i, i + 1) for i in range(5)]),
            rel("r2", ["b", "c"], [(i, i + 1) for i in range(5)]),
        ]
        out, cost = join_all(rs)
        assert cost == len(rs[0]) + len(out)

    def test_join_all_empty_input(self):
        with pytest.raises(ValueError):
            join_all([])


@given(
    st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12),
    st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12),
)
@settings(max_examples=40, deadline=None)
def test_join_matches_nested_loop_semantics(rows_r, rows_s):
    r = rel("r", ["a", "b"], rows_r)
    s = rel("s", ["b", "c"], rows_s)
    expected = frozenset(
        (ra, rb, sc) for ra, rb in rows_r for sb, sc in rows_s if rb == sb
    )
    assert r.join(s).tuples == expected


@given(
    st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12),
    st.sets(st.tuples(st.integers(0, 4),), max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_semijoin_matches_filter_semantics(rows_r, rows_s):
    r = rel("r", ["a", "b"], rows_r)
    s = rel("s", ["b"], rows_s)
    keys = {b for (b,) in rows_s}
    expected = frozenset(row for row in rows_r if row[1] in keys)
    assert r.semijoin(s).tuples == expected


def test_bad_arity_row_names_that_row():
    with pytest.raises(ValueError, match=r"row \(3,\) does not match"):
        Relation("r", ("a", "b"), frozenset({(1, 2), (3,), (4, 5)}))


def test_join_without_extra_columns_is_a_semijoin():
    r = rel("r", ["a", "b"], [(1, 2), (2, 3), (4, 4)])
    s = rel("s", ["b"], [(2,), (4,)])
    out = r.join(s)
    assert out.attributes == ("a", "b")
    assert out.tuples == frozenset({(1, 2), (4, 4)})


# Columns of ``r`` in the kernel differentials below; ``s`` picks any
# subset of them as join keys, so 0, 1 and many key columns all occur.
_ATTRS = ("a", "b", "c")
_ROWS3 = st.sets(st.tuples(*[st.integers(0, 2)] * 3), max_size=12)


@given(rows=_ROWS3, keep=st.permutations(_ATTRS), width=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_project_matches_comprehension_semantics(rows, keep, width):
    keep = keep[:width]
    idx = [_ATTRS.index(a) for a in keep]
    out = rel("r", _ATTRS, rows).project(keep)
    assert out.attributes == tuple(keep)
    assert out.tuples == frozenset(tuple(row[i] for i in idx) for row in rows)


@given(
    rows_r=_ROWS3,
    rows_s=st.sets(st.tuples(*[st.integers(0, 2)] * 4), max_size=12),
    keys=st.permutations(_ATTRS),
    n_keys=st.integers(0, 3),
)
@settings(max_examples=80, deadline=None)
def test_semijoin_and_join_match_comprehension_semantics(
    rows_r, rows_s, keys, n_keys
):
    keys = tuple(keys[:n_keys])
    s_attrs = keys + ("d",)
    rows_s = {row[: len(s_attrs)] for row in rows_s}
    r = rel("r", _ATTRS, rows_r)
    s = rel("s", s_attrs, rows_s)

    def agree(row_r, row_s):
        return all(
            row_r[_ATTRS.index(a)] == row_s[j] for j, a in enumerate(keys)
        )

    assert r.semijoin(s).tuples == frozenset(
        row_r
        for row_r in rows_r
        if any(agree(row_r, row_s) for row_s in rows_s)
    )
    joined = r.join(s)
    assert joined.attributes == _ATTRS + ("d",)
    assert joined.tuples == frozenset(
        row_r + (row_s[-1],)
        for row_r in rows_r
        for row_s in rows_s
        if agree(row_r, row_s)
    )


def _assert_join_project(a, b, keep):
    joined = a.join(b)
    kept = [x for x in joined.attributes if x in keep]
    assert a.join_project(b, keep) == (joined.project(kept), len(joined))


class TestJoinProject:
    @pytest.mark.parametrize(
        "a, b, keep",
        [
            # An empty join key: a cross product, one side dropped.
            (rel("a", ["x"], [(1,), (2,)]), rel("b", ["y"], [(7,), (8,)]),
             {"y"}),
            # ``keep`` covers everything: the plain join.
            (rel("a", ["x", "y"], [(1, 2), (2, 3)]),
             rel("b", ["y", "z"], [(2, 5), (2, 6), (3, 5)]),
             {"x", "y", "z"}),
            # ``b``'s attributes inside ``a``'s: a semijoin, projected.
            (rel("a", ["x", "y", "z"], [(1, 2, 3), (1, 2, 4), (5, 6, 7)]),
             rel("b", ["z", "y"], [(3, 2), (4, 2), (7, 9)]),
             {"x"}),
            # An empty ``keep``: the 0-ary truth value, with the count.
            (rel("a", ["x", "y"], [(1, 2), (2, 3)]),
             rel("b", ["y", "z"], [(2, 5), (2, 6)]),
             set()),
            # Empty relations on either side.
            (rel("a", ["x", "y"], []), rel("b", ["y", "z"], [(2, 5)]),
             {"x", "z"}),
            (rel("a", ["x", "y"], [(1, 2)]), rel("b", ["y", "z"], []),
             {"z"}),
        ],
    )
    def test_cases(self, a, b, keep):
        _assert_join_project(a, b, keep)

    def test_size_counts_rows_that_projection_merges(self):
        a = rel("a", ["x", "y"], [(1, 2), (1, 3)])
        b = rel("b", ["y", "z"], [(2, 9), (3, 9), (3, 8)])
        out, size = a.join_project(b, {"x", "z"})
        assert out.tuples == frozenset({(1, 9), (1, 8)})
        assert size == 3


_UNIVERSE = ("a", "b", "c", "d")


@st.composite
def _relations(draw, name):
    attrs = draw(st.permutations(_UNIVERSE))[: draw(st.integers(0, 3))]
    rows = draw(
        st.sets(st.tuples(*[st.integers(0, 2)] * len(attrs)), max_size=10)
    )
    return rel(name, attrs, rows)


@given(
    a=_relations("a"),
    b=_relations("b"),
    keep=st.sets(st.sampled_from(_UNIVERSE)),
)
@settings(max_examples=150, deadline=None)
def test_join_project_is_join_then_project(a, b, keep):
    _assert_join_project(a, b, keep)


class TestPayloadDecoding:
    def test_round_trip(self):
        r = rel("r", ["a", "b"], [(1, "x"), (2.5, "y")])
        assert relation_from_payload("r", relation_to_payload(r)) == r

    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_rejected(self, value):
        # ``true == 1`` and they hash alike: a row would silently merge.
        with pytest.raises(ValueError, match="non-scalar"):
            relation_from_payload(
                "r", {"attributes": ["x", "y"], "rows": [[1, 2], [value, 3]]}
            )

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_numbers_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            relation_from_payload(
                "r", {"attributes": ["x", "y"], "rows": [[value, 1]]}
            )

    def test_first_bad_row_is_named(self):
        # Row 1 holds NaN and row 2 has the wrong arity: the message
        # names row 1, as a row-by-row check would.
        rows = [[1, 2], [float("nan"), 3], [4]]
        with pytest.raises(ValueError, match="row 1 holds non-finite"):
            relation_from_payload(
                "r", {"attributes": ["x", "y"], "rows": rows}
            )
        with pytest.raises(ValueError, match="row 0 must be a list"):
            relation_from_payload("r", {"attributes": ["x"], "rows": [7, [1]]})


#: Encodes a relation of string values with one column mixing strings
#: and ints, as a ``/query`` answer; run under two hash seeds.
_ENCODE = """
import json, sys
from repro.cqcsp import Relation, answer_query, parse_cq
from repro.serve.protocol import query_answer_payload
rows = [(f"v{i % 7}", i if i % 3 else f"s{i}", f"w{i}") for i in range(60)]
database = {"r": Relation.from_rows("r", ("a", "b", "c"), rows)}
result = answer_query(parse_cq("q(x, y, z) :- r(x, y, z)."), database)
sys.stdout.write(json.dumps(query_answer_payload(result)))
"""


class TestPayloadEncoding:
    def test_rows_ascend_by_value(self):
        r = rel("r", ["a", "b"], [(10, "x"), (9, "y"), (9, "x"), (2.5, "z")])
        assert relation_to_payload(r)["rows"] == [
            [2.5, "z"], [9, "x"], [9, "y"], [10, "x"],
        ]

    def test_numbers_before_strings_in_a_mixed_column(self):
        r = rel("r", ["a", "b"], [("b", 1), (3, 2), ("a", 3), (-1, 4)])
        assert relation_to_payload(r)["rows"] == [
            [-1, 4], [3, 2], ["a", 3], ["b", 1],
        ]

    def test_answer_bytes_do_not_depend_on_the_hash_seed(self):
        src = str(Path(repro.__file__).resolve().parent.parent)
        outputs = [
            subprocess.run(
                [sys.executable, "-c", _ENCODE],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, check=True, timeout=120,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1]
        rows = json.loads(outputs[0])["answers"]["rows"]
        assert len(rows) == 60
        assert rows == sorted(rows, key=lambda row: (
            row[0], isinstance(row[1], str), row[1], row[2]
        ))

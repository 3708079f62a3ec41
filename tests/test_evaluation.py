"""Tests for Yannakakis and decomposition-guided CQ evaluation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import generalized_hypertree_decomposition
from repro.cqcsp import (
    Relation,
    atom_relation,
    chain_query,
    evaluate,
    evaluate_naive,
    evaluate_with_decomposition,
    hub_relation,
    node_relations_from_ghd,
    parse_cq,
    semijoin_reduce,
    yannakakis,
)
from repro.cqcsp.yannakakis import _join_pass, _join_root
from repro.decomposition import Decomposition


def random_graph_db(n_vertices=15, n_edges=40, seed=0):
    rng = random.Random(seed)
    rows = set()
    while len(rows) < n_edges:
        a, b = rng.randint(1, n_vertices), rng.randint(1, n_vertices)
        if a != b:
            rows.add((a, b))
    return {"r": Relation.from_rows("r", ["a", "b"], rows)}


class TestAtomRelation:
    def test_rename(self):
        db = {"r": Relation.from_rows("r", ["c0", "c1"], [(1, 2)])}
        q = parse_cq("q(x) :- r(x, y).")
        rel = atom_relation(db, q.atoms[0])
        assert rel.attributes == ("x", "y")

    def test_repeated_variable_filters(self):
        db = {"r": Relation.from_rows("r", ["c0", "c1"], [(1, 1), (1, 2)])}
        q = parse_cq("q(x) :- r(x, x).")
        rel = atom_relation(db, q.atoms[0])
        assert rel.tuples == frozenset({(1,)})
        assert rel.attributes == ("x",)

    def test_arity_mismatch(self):
        db = {"r": Relation.from_rows("r", ["c0"], [(1,)])}
        q = parse_cq("q(x) :- r(x, y).")
        with pytest.raises(ValueError, match="arity"):
            atom_relation(db, q.atoms[0])


class TestYannakakis:
    def test_attribute_outside_bag_rejected(self):
        d = Decomposition.single_node(["x"], {"e": 1.0})
        rel = Relation.from_rows("n", ["x", "y"], [(1, 2)])
        with pytest.raises(ValueError, match="outside the bag"):
            yannakakis(d, {"root": rel}, ["x"])

    def test_semijoin_reduce_removes_dangling(self):
        d = Decomposition.path(
            [("a", ["x", "y"], {}), ("b", ["y", "z"], {})]
        )
        rels = {
            "a": Relation.from_rows("a", ["x", "y"], [(1, 2), (9, 9)]),
            "b": Relation.from_rows("b", ["y", "z"], [(2, 3)]),
        }
        reduced = semijoin_reduce(d, rels)
        assert reduced["a"].tuples == frozenset({(1, 2)})

    def test_boolean_result(self):
        d = Decomposition.single_node(["x"], {})
        rel = Relation.from_rows("n", ["x"], [(1,)])
        answers, _cost = yannakakis(d, {"root": rel}, [])
        assert answers.tuples == frozenset({()})

    def test_empty_means_no(self):
        d = Decomposition.single_node(["x"], {})
        rel = Relation.from_rows("n", ["x"], [])
        answers, _cost = yannakakis(d, {"root": rel}, [])
        assert answers.is_empty()


class TestEndToEnd:
    @pytest.mark.parametrize(
        "query_text",
        [
            "q(x, y, z) :- r(x, y), r(y, z), r(z, x).",  # triangle
            "q(x, w) :- r(x, y), r(y, z), r(z, w).",      # path, projected
            "q(x) :- r(x, y), r(y, x).",                  # 2-cycle
            ":- r(x, y), r(y, z).",                       # Boolean
        ],
    )
    def test_matches_naive(self, query_text):
        db = random_graph_db(seed=5)
        q = parse_cq(query_text)
        fast = evaluate(q, db)
        slow = evaluate_naive(q, db)
        assert fast.answers.tuples == slow.answers.tuples

    def test_explicit_width(self):
        db = random_graph_db(seed=6)
        q = parse_cq("q(x) :- r(x, y), r(y, z), r(z, x).")
        res = evaluate(q, db, k=2)
        assert res.answers.tuples == evaluate_naive(q, db).answers.tuples

    def test_width_too_small_rejected(self):
        db = random_graph_db(seed=6)
        q = parse_cq("q(x) :- r(x, y), r(y, z), r(z, x).")
        with pytest.raises(ValueError, match="no GHD"):
            evaluate(q, db, k=1)

    def test_fractional_cover_rejected(self):
        db = random_graph_db(seed=1)
        q = parse_cq("q(x) :- r(x, y).")
        d = Decomposition.single_node(["x", "y"], {"r#0": 0.5})
        with pytest.raises(ValueError, match="integral"):
            evaluate_with_decomposition(q, db, d)


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_4cycle_query_random_dbs(seed):
    """The 4-cycle CQ (ghw 2) agrees with naive evaluation on random data."""
    db = random_graph_db(n_vertices=8, n_edges=20, seed=seed)
    q = parse_cq("q(a, c) :- r(a, b), r(b, c), r(c, d), r(d, a).")
    fast = evaluate(q, db)
    slow = evaluate_naive(q, db)
    assert fast.answers.tuples == slow.answers.tuples


def _ghd(query):
    """A minimum-width GHD of the query's hypergraph."""
    hypergraph = query.hypergraph()
    for k in range(1, hypergraph.num_edges + 1):
        decomp = generalized_hypertree_decomposition(hypergraph, k)
        if decomp is not None:
            return decomp
    raise AssertionError("every hypergraph has a GHD of width |E|")


def _costs_by_root(decomp, node_rels, head):
    """The join pass's ``(answers, cost)`` rooted at every node."""
    reduced = semijoin_reduce(decomp, node_rels)
    return {
        nid: _join_pass(decomp, reduced, head, nid)
        for nid in decomp.node_ids
    }


_VARS = ("x", "y", "z", "u", "w")


@given(
    atoms=st.lists(
        st.tuples(st.sampled_from(_VARS), st.sampled_from(_VARS)),
        min_size=1,
        max_size=5,
    ),
    head_size=st.integers(0, 5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_every_join_root_matches_naive(atoms, head_size, seed):
    """After the full reducer any node may root the join pass."""
    body = ", ".join(f"r({a}, {b})" for a, b in atoms)
    scope = list(dict.fromkeys(v for atom in atoms for v in atom))
    head = ", ".join(scope[:head_size])
    q = parse_cq(f"q({head}) :- {body}.")
    db = random_graph_db(n_vertices=6, n_edges=12, seed=seed)
    decomp = _ghd(q)
    node_rels, _ = node_relations_from_ghd(q, db, decomp)
    expected = evaluate_naive(q, db).answers
    for answers, _cost in _costs_by_root(decomp, node_rels, q.head).values():
        assert answers.attributes == expected.attributes
        assert answers.tuples == expected.tuples


def test_chain_join_pass_roots_at_a_head_end():
    """A 5-atom chain with head = its two ends, stored root in the middle.

    The join pass roots itself at an end bag (it holds a head variable)
    and costs no more than any fixed root.  On this symmetric hub data
    the two ends tie; on skewed data the other end or an inner node can
    be cheaper, since the rule reads head overlap, not sizes.
    """
    q = chain_query(5)
    nodes = [
        (f"n{i}", [f"x{i}", f"x{i + 1}"], {f"r#{i}": 1}) for i in range(5)
    ]
    decomp = Decomposition(
        nodes, parent={"n0": "n1", "n1": "n2", "n3": "n2", "n4": "n3"},
        root="n2",
    )
    db = {"r": hub_relation(4, 5)}
    node_rels, _ = node_relations_from_ghd(q, db, decomp)
    answers, cost = yannakakis(decomp, node_rels, q.head)
    by_root = _costs_by_root(decomp, node_rels, q.head)
    assert (answers, cost) == by_root["n0"]
    assert cost == min(c for _answers, c in by_root.values())
    assert cost < by_root[decomp.root][1]


def test_branching_join_keeps_the_later_childs_connector():
    """Two children meet their parent on a non-head variable, ``y``.

    Rooted at the parent, the first join must keep ``y`` for the second
    one, or the two children's head variables pair up freely.
    """
    q = parse_cq("q(z, w) :- r(x, y), r(y, z), r(y, w).")
    decomp = Decomposition(
        [("a", ["x", "y"], {"r#0": 1}), ("b", ["y", "z"], {"r#1": 1}),
         ("c", ["y", "w"], {"r#2": 1})],
        parent={"b": "a", "c": "a"},
        root="a",
    )
    db = random_graph_db(n_vertices=8, n_edges=14, seed=3)
    node_rels, _ = node_relations_from_ghd(q, db, decomp)
    expected = evaluate_naive(q, db).answers.tuples
    for answers, _cost in _costs_by_root(decomp, node_rels, q.head).values():
        assert answers.tuples == expected


def test_join_root_is_the_first_bag_with_most_head_variables():
    q = chain_query(5)
    nodes = [(f"n{i}", [f"x{i}", f"x{i + 1}"], {}) for i in range(5)]
    middle = Decomposition(
        nodes, parent={"n0": "n1", "n1": "n2", "n3": "n2", "n4": "n3"},
        root="n2",
    )
    # Preorder n2, n1, n0, n3, n4: n0 and n4 tie, n0 comes first.
    assert _join_root(middle, q.head) == "n0"
    # The stored root wins a tie it takes part in.
    assert _join_root(Decomposition.path(nodes[::-1]), q.head) == "n4"
    assert _join_root(middle, ["x2"]) == "n2"

"""Differential evaluation harness: planner answers vs brute force.

Every test answers conjunctive queries twice — once through the full
plan-then-execute path (``QueryPlanner``: ghw solve, join tree from the
stitched witness, semijoin reduction + Yannakakis) and once through an
independent nested-loop reference evaluator written here from the CQ
semantics alone — and asserts the answer sets are identical.  Random
queries and databases come from Hypothesis; the canonical benchmark
shapes (star / chain / cycle / snowflake) run against the workload
generators.  Edge cases the harness pins explicitly: empty relations,
repeated variables in one atom, constants, Boolean (empty-head)
queries, self-joins and duplicated atoms.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.cqcsp import (
    Atom,
    ConjunctiveQuery,
    Const,
    QueryPlanner,
    Relation,
    answer_query,
    atom_relation,
    chain_query,
    cycle_query,
    evaluate_naive,
    evaluate_with_decomposition,
    hub_relation,
    join_all,
    node_relations_from_ghd,
    parse_cq,
    random_graph_relation,
    snowflake_query,
    star_query,
)
from repro.decomposition import Decomposition

# ---------------------------------------------------------------------------
# The reference evaluator: nested-loop backtracking straight from the
# CQ semantics.  Shares no code with the planner path on purpose.
# ---------------------------------------------------------------------------


def reference_evaluate(query: ConjunctiveQuery, database) -> frozenset:
    """All head tuples, by enumerating atom rows and unifying bindings."""
    atoms = list(query.atoms)
    answers = set()

    def extend(i: int, binding: dict) -> None:
        if i == len(atoms):
            answers.add(tuple(binding[v] for v in query.head))
            return
        atom = atoms[i]
        relation = database[atom.relation]
        if len(atom.variables) != len(relation.attributes):
            raise ValueError("arity mismatch")
        for row in relation.tuples:
            extended = dict(binding)
            consistent = True
            for term, value in zip(atom.variables, row):
                if isinstance(term, Const):
                    if term.value != value:
                        consistent = False
                        break
                elif term in extended:
                    if extended[term] != value:
                        consistent = False
                        break
                else:
                    extended[term] = value
            if consistent:
                extend(i + 1, extended)

    extend(0, {})
    return frozenset(answers)


def planner_answers(query, database, **options) -> frozenset:
    result = answer_query(query, database, **options)
    assert result.answers.attributes == tuple(query.head)
    return result.answers.tuples


def assert_differential(query, database, **options) -> None:
    assert planner_answers(query, database, **options) == reference_evaluate(
        query, database
    )


# ---------------------------------------------------------------------------
# Hypothesis: random schemas, databases and queries
# ---------------------------------------------------------------------------

_VALUES = st.integers(min_value=0, max_value=2)
_VARIABLES = ("x", "y", "z", "u")


@st.composite
def random_instance(draw):
    """A random (query, database) pair over a small random schema."""
    schema = draw(
        st.dictionaries(
            st.sampled_from(["r", "s", "t"]),
            st.integers(min_value=1, max_value=3),
            min_size=1,
            max_size=3,
        )
    )
    names = sorted(schema)
    database = {}
    for name in names:
        rows = draw(
            st.lists(
                st.tuples(*[_VALUES] * schema[name]),
                max_size=6,
                unique=True,
            )
        )
        database[name] = Relation.from_rows(
            name,
            tuple(f"c{j}" for j in range(schema[name])),
            rows,
        )
    n_atoms = draw(st.integers(min_value=1, max_value=3))
    atoms = []
    for _ in range(n_atoms):
        name = draw(st.sampled_from(names))
        arity = schema[name]
        # At least one variable per position-set (Atom requires it);
        # remaining positions are variables or constants.
        terms = [draw(st.sampled_from(_VARIABLES))]
        for _ in range(arity - 1):
            if draw(st.booleans()) and draw(st.booleans()):
                terms.append(Const(draw(_VALUES)))
            else:
                terms.append(draw(st.sampled_from(_VARIABLES)))
        draw(st.randoms(use_true_random=False)).shuffle(terms)
        if not any(isinstance(t, str) for t in terms):
            terms[0] = draw(st.sampled_from(_VARIABLES))
        atoms.append(Atom(name, tuple(terms)))
    scope = sorted(
        {t for atom in atoms for t in atom.variables if isinstance(t, str)}
    )
    head = tuple(draw(st.permutations(scope))[: draw(st.integers(0, len(scope)))])
    return ConjunctiveQuery(head, tuple(atoms)), database


class TestRandomQueries:
    @settings(max_examples=40, deadline=None)
    @given(instance=random_instance())
    def test_planner_matches_reference(self, instance):
        query, database = instance
        assert_differential(query, database)

    @settings(max_examples=15, deadline=None)
    @given(instance=random_instance())
    def test_planner_matches_naive_evaluator(self, instance):
        query, database = instance
        result = evaluate_naive(query, database)
        assert result.answers.tuples == reference_evaluate(query, database)


class TestBackends:
    """The harness holds on every available LP backend (no-scipy too)."""

    @pytest.mark.parametrize("backend", engine.available_backends())
    def test_cycle_with_constant_on_backend(self, backend):
        config = engine.engine_config()
        previous = config.backend
        engine.configure(backend=backend)
        try:
            database = {"r": random_graph_relation(8, 0.35, seed=5)}
            query = parse_cq("q(x, z) :- r(x, y), r(y, z), r(z, x), r(x, 1).")
            assert_differential(query, database)
        finally:
            config.backend = previous


# ---------------------------------------------------------------------------
# Canonical shapes over the workload generators
# ---------------------------------------------------------------------------


class TestShapes:
    @pytest.mark.parametrize(
        "query",
        [
            star_query(3),
            chain_query(4),
            chain_query(3, boolean=True),
            cycle_query(4),
            snowflake_query(2, 2),
        ],
        ids=lambda q: q.name,
    )
    def test_shape_matches_reference(self, query):
        database = {"r": random_graph_relation(9, 0.3, seed=11)}
        assert_differential(query, database)

    def test_chain_on_hub_relation(self):
        database = {"r": hub_relation(3, 4, seed=2)}
        query = chain_query(3)
        assert_differential(query, database)

    def test_shapes_match_naive(self):
        database = {"r": random_graph_relation(8, 0.3, seed=7)}
        for query in (star_query(2), cycle_query(3), chain_query(5)):
            naive = evaluate_naive(query, database)
            assert planner_answers(query, database) == naive.answers.tuples


# ---------------------------------------------------------------------------
# Pinned edge cases
# ---------------------------------------------------------------------------


class TestEdgeCases:
    def test_empty_relation(self):
        database = {
            "r": Relation.from_rows("r", ("a", "b"), [(1, 2)]),
            "s": Relation.from_rows("s", ("a",), []),
        }
        query = parse_cq("q(x) :- r(x, y), s(y).")
        assert planner_answers(query, database) == frozenset()
        assert reference_evaluate(query, database) == frozenset()

    def test_repeated_variable_in_atom(self):
        database = {
            "r": Relation.from_rows("r", ("a", "b"), [(1, 1), (1, 2), (3, 3)])
        }
        query = parse_cq("q(x) :- r(x, x).")
        assert_differential(query, database)
        assert planner_answers(query, database) == frozenset({(1,), (3,)})

    def test_constants_select(self):
        database = {
            "r": Relation.from_rows("r", ("a", "b"), [(1, 2), (2, 3), (1, 3)])
        }
        query = parse_cq("q(y) :- r(1, y).")
        assert_differential(query, database)
        assert planner_answers(query, database) == frozenset({(2,), (3,)})

    def test_string_constant(self):
        database = {
            "r": Relation.from_rows(
                "r", ("a", "b"), [("ann", 1), ("bob", 2), ("ann", 3)]
            )
        }
        query = parse_cq("q(y) :- r('ann', y).")
        assert_differential(query, database)
        assert planner_answers(query, database) == frozenset({(1,), (3,)})

    def test_boolean_satisfied_and_not(self):
        database = {"r": Relation.from_rows("r", ("a", "b"), [(1, 2)])}
        sat = parse_cq(":- r(x, y).")
        unsat = parse_cq(":- r(x, x).")
        assert reference_evaluate(sat, database) == frozenset({()})
        assert answer_query(sat, database).satisfied
        assert reference_evaluate(unsat, database) == frozenset()
        assert not answer_query(unsat, database).satisfied

    def test_duplicated_atom_self_join(self):
        database = {
            "r": Relation.from_rows("r", ("a", "b"), [(1, 2), (2, 1), (2, 3)])
        }
        query = parse_cq("q(x, y) :- r(x, y), r(y, x), r(x, y).")
        assert_differential(query, database)
        assert planner_answers(query, database) == frozenset(
            {(1, 2), (2, 1)}
        )

    def test_subsumed_atom_still_enforced(self):
        # The unary atom's scope sits inside the binary atom's bag, so
        # it lands in no λ of its own and is enforced as a bag-covered
        # atom of that node.
        database = {
            "r": Relation.from_rows("r", ("a", "b"), [(1, 2), (3, 4)]),
            "s": Relation.from_rows("s", ("a",), [(1,)]),
        }
        query = parse_cq("q(x, y) :- r(x, y), s(x).")
        assert_differential(query, database)
        assert planner_answers(query, database) == frozenset({(1, 2)})

    def test_unknown_relation_raises(self):
        database = {"r": Relation.from_rows("r", ("a",), [(1,)])}
        query = parse_cq("q(x) :- missing(x).")
        with pytest.raises(ValueError, match="unknown relation"):
            answer_query(query, database)


# ---------------------------------------------------------------------------
# Plan-cache rebinding: one hypergraph shape, many distinct queries
# ---------------------------------------------------------------------------


class TestPlanCacheRebinding:
    """Distinct queries that share a hypergraph must not share answers.

    The plan cache keys on the canonical query hypergraph, which does
    not see the head, constants, atom argument order or repeated-
    variable patterns.  Such queries used to collide in the in-memory
    LRU: the second one silently received the first one's answers.
    Now the decomposition is shared (that is the point of the cache)
    and the plan is rebound to each asking query before execution.
    """

    def test_different_constants_same_shape(self):
        database = {
            "r": Relation.from_rows("r", ("a", "b"), [(1, 3), (2, 5)])
        }
        planner = QueryPlanner()
        three = planner.answer(parse_cq("q(x) :- r(x, 3)."), database)
        five = planner.answer(parse_cq("q(x) :- r(x, 5)."), database)
        assert three.answers.tuples == frozenset({(1,)})
        assert five.answers.tuples == frozenset({(2,)})
        # ... while the shared shape still paid for one plan solve.
        assert planner.stats.plans == 1
        assert planner.stats.plan_cache_hits == 1

    def test_different_heads_same_shape(self):
        database = {"r": Relation.from_rows("r", ("a", "b"), [(1, 2)])}
        planner = QueryPlanner()
        first = planner.answer(parse_cq("q(x) :- r(x, y)."), database)
        second = planner.answer(parse_cq("q(y) :- r(x, y)."), database)
        assert first.answers.attributes == ("x",)
        assert second.answers.attributes == ("y",)
        assert first.answers.tuples == frozenset({(1,)})
        assert second.answers.tuples == frozenset({(2,)})
        assert planner.stats.plans == 1

    def test_different_argument_order_same_shape(self):
        database = {"r": Relation.from_rows("r", ("a", "b"), [(1, 2)])}
        planner = QueryPlanner()
        forward = planner.answer(parse_cq("q(x, y) :- r(x, y)."), database)
        backward = planner.answer(parse_cq("q(x, y) :- r(y, x)."), database)
        assert forward.answers.tuples == frozenset({(1, 2)})
        assert backward.answers.tuples == frozenset({(2, 1)})
        assert planner.stats.plans == 1

    def test_different_repeated_variable_patterns(self):
        database = {
            "r": Relation.from_rows(
                "r", ("a", "b", "c"), [(1, 1, 2), (3, 4, 4), (5, 6, 7)]
            )
        }
        planner = QueryPlanner()
        left = planner.answer(parse_cq("q(x, y) :- r(x, x, y)."), database)
        right = planner.answer(parse_cq("q(x, y) :- r(x, y, y)."), database)
        assert left.answers.tuples == frozenset({(1, 2)})
        assert right.answers.tuples == frozenset({(3, 4)})
        assert planner.stats.plans == 1

    def test_rebound_rejects_other_shapes(self):
        planner = QueryPlanner()
        plan = planner.plan(parse_cq("q(x) :- r(x, y)."))
        with pytest.raises(ValueError, match="hypergraph shape"):
            plan.rebound(parse_cq("q(x) :- s(x, y)."))

    def test_plan_is_bound_to_the_asking_query(self):
        planner = QueryPlanner()
        first = parse_cq("q(x) :- r(x, 3).")
        second = parse_cq("q(x) :- r(x, 5).")
        assert planner.plan(first).query == first
        assert planner.plan(second).query == second  # a rebound cache hit
        assert planner.plan(first).key == planner.plan(second).key

    @settings(max_examples=25, deadline=None)
    @given(instances=st.lists(random_instance(), min_size=2, max_size=4))
    def test_shared_planner_matches_reference(self, instances):
        # The rest of this harness answers each query with a throwaway
        # planner, so cross-query cache collisions were invisible to
        # it.  One planner answering a whole workload closes that
        # blind spot.
        planner = QueryPlanner()
        for query, database in instances:
            result = planner.execute(planner.plan(query), database)
            assert result.answers.tuples == reference_evaluate(
                query, database
            )


# ---------------------------------------------------------------------------
# Plan persistence: a store round trip answers identically
# ---------------------------------------------------------------------------


class TestStoreRoundTrip:
    def test_store_warm_plans_answer_identically(self, tmp_path):
        database = {"r": random_graph_relation(10, 0.3, seed=3)}
        queries = [chain_query(4), cycle_query(4), star_query(3)]

        cold = QueryPlanner(str(tmp_path / "cache"))
        try:
            cold_answers = [cold.answer(q, database).answers for q in queries]
            assert cold.stats.plan_store_hits == 0
        finally:
            cold.close()

        warm = QueryPlanner(str(tmp_path / "cache"))
        try:
            for query, expected in zip(queries, cold_answers):
                plan, info = warm.plan_detailed(query)
                assert info.from_store and not info.cache_hit
                assert info.tasks_run == 0 and info.lp_solves == 0
                result = warm.execute(plan, database)
                assert result.answers == expected
                assert result.answers.tuples == reference_evaluate(
                    query, database
                )
            assert warm.stats.plan_store_hits == len(queries)
            assert warm.stats.tasks_run == 0 and warm.stats.lp_solves == 0
        finally:
            warm.close()

    def test_same_plan_different_databases(self, tmp_path):
        planner = QueryPlanner(str(tmp_path / "cache"))
        try:
            query = chain_query(3)
            db1 = {"r": random_graph_relation(8, 0.3, seed=1)}
            db2 = {"r": random_graph_relation(8, 0.3, seed=2)}
            assert planner.answer(query, db1).answers.tuples == (
                reference_evaluate(query, db1)
            )
            assert planner.answer(query, db2).answers.tuples == (
                reference_evaluate(query, db2)
            )
            # One plan solve, two executions.
            assert planner.stats.plans == 1
            assert planner.stats.plan_cache_hits == 1
            assert planner.stats.executions == 2
        finally:
            planner.close()


# ---------------------------------------------------------------------------
# Node builds: every node relation vs join-then-project
# ---------------------------------------------------------------------------


def reference_node_relations(query, database, decomp) -> dict:
    """π_bag of the left-deep join of λ-atoms ∪ bag-covered atoms."""
    out = {}
    for nid in decomp.node_ids:
        bag = decomp.bag(nid)
        atoms = [
            query.atom_for_edge(edge)
            for edge in sorted(decomp.cover(nid).support)
        ] + [a for a in query.atoms if set(a.variable_names) <= bag]
        if not atoms:
            out[nid] = Relation.from_rows(nid, (), [()])
            continue
        joined, _ = join_all([atom_relation(database, a) for a in atoms])
        out[nid] = joined.project(sorted(bag))
    return out


def assert_node_build_matches(query, database, decomp) -> None:
    built, _cost = node_relations_from_ghd(query, database, decomp)
    expected = reference_node_relations(query, database, decomp)
    assert set(built) == set(decomp.node_ids)
    for nid, relation in built.items():
        bag = sorted(decomp.bag(nid))
        assert sorted(relation.attributes) == bag, nid
        assert relation.project(bag).tuples == expected[nid].tuples, nid
    answers = evaluate_with_decomposition(query, database, decomp).answers
    assert answers.tuples == evaluate_naive(query, database).answers.tuples


def _c5_plan() -> Decomposition:
    """The 5-cycle GHD whose middle λ-atoms share no variable."""
    return Decomposition.path(
        [
            ("n0", {"x1", "x2", "x5"}, {"r#0": 1, "r#3": 1}),
            ("n1", {"x2", "x3", "x5"}, {"r#1": 1, "r#3": 1}),
            ("n2", {"x3", "x4", "x5"}, {"r#2": 1, "r#3": 1}),
        ]
    )


class TestNodeBuild:
    @settings(max_examples=40, deadline=None)
    @given(instance=random_instance())
    def test_random_queries_match_reference(self, instance):
        query, database = instance
        decomp = QueryPlanner().plan(query).decomposition
        assert_node_build_matches(query, database, decomp)

    def test_lambda_atoms_sharing_no_variable(self):
        database = {"r": random_graph_relation(12, 0.3, seed=4)}
        assert_node_build_matches(cycle_query(5), database, _c5_plan())

    def test_cross_product_is_not_materialised(self):
        # Node n1 joins r(x2, x3) with r(x4, x5): joining them before
        # projecting to the bag builds all len(r)² pairs.
        database = {"r": random_graph_relation(40, 0.1, seed=8)}
        _, cost = node_relations_from_ghd(cycle_query(5), database, _c5_plan())
        assert cost < len(database["r"]) ** 2

    def test_empty_lambda_node(self):
        database = {"r": Relation.from_rows("r", ("a", "b"), [(1, 2), (2, 2)])}
        query = parse_cq("q(x) :- r(x, y).")
        decomp = Decomposition(
            [("root", {"x", "y"}, {"r#0": 1}), ("leaf", set(), {})],
            parent={"leaf": "root"},
        )
        built, _ = node_relations_from_ghd(query, database, decomp)
        assert built["leaf"].tuples == frozenset({()})
        assert_node_build_matches(query, database, decomp)

    def test_repeated_variables_and_constants(self):
        database = {
            "r": Relation.from_rows(
                "r", ("a", "b", "c"), [(1, 1, 2), (2, 2, 2), (3, 4, 2)]
            ),
            "s": Relation.from_rows("s", ("a", "b"), [(2, 7), (2, 8), (1, 9)]),
        }
        query = parse_cq("q(x, z) :- r(x, x, y), s(y, z), s(2, z).")
        decomp = QueryPlanner().plan(query).decomposition
        assert_node_build_matches(query, database, decomp)

    def test_all_constant_atom_never_reaches_the_build(self):
        with pytest.raises(ValueError, match="no variables"):
            Atom("r", (Const(1), Const(2)))

    def test_duplicated_atom(self):
        database = {"r": random_graph_relation(8, 0.4, seed=3)}
        query = parse_cq("q(x, y) :- r(x, y), r(y, z), r(x, y), r(z, x).")
        decomp = QueryPlanner().plan(query).decomposition
        assert_node_build_matches(query, database, decomp)


class TestNodeBuildRejectsBrokenGHDs:
    _DB = {
        "r": Relation.from_rows("r", ("a", "b"), [(1, 2)]),
        "s": Relation.from_rows("s", ("a", "b"), [(2, 3)]),
    }
    _QUERY = parse_cq("q(x) :- r(x, y), s(y, z).")

    def test_fractional_cover(self):
        decomp = Decomposition.single_node(
            {"x", "y", "z"}, {"r#0": 0.5, "s#1": 1}
        )
        with pytest.raises(ValueError, match="integral"):
            node_relations_from_ghd(self._QUERY, self._DB, decomp)

    def test_bag_outside_lambda(self):
        decomp = Decomposition.single_node({"x", "y", "z"}, {"r#0": 1})
        with pytest.raises(ValueError, match=r"bag variables \['z'\]"):
            node_relations_from_ghd(self._QUERY, self._DB, decomp)

    def test_atom_in_no_bag(self):
        decomp = Decomposition.single_node({"x", "y"}, {"r#0": 1})
        with pytest.raises(ValueError, match="no bag covers atom s"):
            node_relations_from_ghd(self._QUERY, self._DB, decomp)

"""Tests for the reduce → split → solve → stitch pipeline.

The headline invariant (pinned property-based below): pipeline-on and
pipeline-off agree on hw / ghw / fhw for random hypergraphs, and every
stitched decomposition validates against the *original* hypergraph.
"""

import pytest
from hypothesis import given, settings

from repro.algorithms import (
    fractional_hypertree_width_exact,
    generalized_hypertree_width,
    generalized_hypertree_width_exact,
    hypertree_decomposition,
    hypertree_width,
    width_bounds,
)
from repro.covers import EPS
from repro.decomposition import (
    Decomposition,
    is_fhd,
    is_ghd,
    is_hd,
    replay_reductions,
    reroot,
    stitch_blocks,
)
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import (
    clique,
    cycle,
    grid,
    path_hypergraph,
    triangle_cascade,
)
from repro.pipeline import (
    Block,
    articulation_points,
    reduce_instance,
    rules_for,
    solve_many,
    split_instance,
)

from .strategies import hypergraphs


class TestReduce:
    def test_duplicates_and_subsumed(self):
        h = Hypergraph(
            {
                "big": ["a", "b", "c"],
                "dup": ["a", "b", "c"],
                "sub": ["a", "b"],
                "other": ["c", "d", "e"],
            }
        )
        r = reduce_instance(h, kind="ghd")
        assert "dup" not in r.hypergraph.edge_names
        assert "sub" not in r.hypergraph.edge_names
        assert r.edges_removed >= 2

    def test_twin_fusion(self):
        h = Hypergraph({"e1": ["a", "b", "x"], "e2": ["a", "b", "y"]})
        r = reduce_instance(h, kind="hd")
        # a and b share the edge-type {e1, e2}: one survives.
        assert r.hypergraph.num_vertices < h.num_vertices
        assert r.rule_counts.get("twin-vertices", 0) >= 1

    def test_degree_one_collapses_acyclic(self):
        h = path_hypergraph(5, 3, 1)
        r = reduce_instance(h, kind="ghd")
        assert r.hypergraph.num_vertices <= 2
        assert r.rule_counts.get("degree-one", 0) >= 1

    def test_hd_rules_keep_subsumed_edges(self):
        """hw is sensitive to subedges (Section 4): hd-safe rules must
        not drop them or strip degree-1 vertices."""
        assert "subsumed-edges" not in rules_for("hd")
        assert "degree-one" not in rules_for("hd")
        assert "subsumed-edges" in rules_for("ghd")

    def test_no_op_returns_same_object(self):
        h = cycle(6)
        r = reduce_instance(h, kind="ghd")
        assert r.hypergraph is h
        assert not r.changed

    def test_isolated_vertices_dropped(self):
        h = Hypergraph({"e": ["a", "b"]}, vertices=["z"])
        r = reduce_instance(h, kind="ghd")
        assert "z" not in r.hypergraph.vertices

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rules"):
            reduce_instance(cycle(4), rules=["zzz"])


class TestSplit:
    def test_triangle_cascade_blocks(self):
        h = triangle_cascade(3)
        blocks = split_instance(h)
        assert len(blocks) == 3
        # Forest is rooted and every non-root shares one articulation
        # vertex with its parent.
        roots = [b for b in blocks if b.parent is None]
        assert len(roots) == 1
        for b in blocks:
            if b.parent is not None:
                parent = blocks[b.parent]
                shared = b.hypergraph.vertices & parent.hypergraph.vertices
                assert shared == {b.cut_vertex}
        assert articulation_points(h) == {"t1", "t2"}

    def test_edges_partition_across_blocks(self):
        h = triangle_cascade(2)
        blocks = split_instance(h)
        names = sorted(
            name for b in blocks for name in b.hypergraph.edge_names
        )
        assert names == sorted(h.edge_names)

    def test_biconnected_instance_is_one_block(self):
        h = grid(3, 3)
        blocks = split_instance(h)
        assert len(blocks) == 1
        assert blocks[0].hypergraph is h

    def test_components_mode(self):
        h = Hypergraph({"e1": ["a", "b"], "e2": ["c", "d"]})
        blocks = split_instance(h, mode="components")
        assert len(blocks) == 2
        assert all(b.parent is None for b in blocks)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            split_instance(cycle(4), mode="zzz")


class TestStitch:
    def test_reroot_preserves_nodes(self):
        d = Decomposition(
            [("a", ["x"], {"e": 1.0}), ("b", ["x", "y"], {"e": 1.0})],
            parent={"b": "a"},
        )
        r = reroot(d, "b")
        assert r.root == "b"
        assert set(r.node_ids) == {"a", "b"}
        assert r.parent("a") == "b"

    def test_stitch_blocks_joins_on_cut_vertex(self):
        d0 = Decomposition.single_node(["a", "b"], {"e1": 1.0}, node_id="n0")
        d1 = Decomposition.single_node(["b", "c"], {"e2": 1.0}, node_id="n0")
        joined = stitch_blocks([(d0, None, None), (d1, 0, "b")])
        assert len(joined) == 2
        h = Hypergraph({"e1": ["a", "b"], "e2": ["b", "c"]})
        assert is_ghd(h, joined, width=1)

    def test_replay_restores_degree_one_leaf(self):
        h = Hypergraph({"e1": ["a", "b"], "e2": ["b", "c"]})
        r = reduce_instance(h, kind="ghd")
        solved = Decomposition.single_node(
            r.hypergraph.vertices, {next(iter(r.hypergraph.edge_names)): 1.0}
        )
        lifted = replay_reductions(solved, r.undo)
        assert is_ghd(h, lifted, width=1)


# ----------------------------------------------------------------------
# The pipeline invariant (acceptance criterion): pipeline-on equals
# pipeline-off on every width measure, and stitched witnesses validate
# against the original hypergraph.
# ----------------------------------------------------------------------
@given(hypergraphs(max_vertices=7, max_edges=6))
@settings(max_examples=25, deadline=None)
def test_pipeline_invariant_hw(h: Hypergraph):
    k_on, d_on = hypertree_width(h)
    k_off, _d_off = hypertree_width(h, preprocess="none", bounds="none")
    assert k_on == k_off
    assert is_hd(h, d_on, width=k_on)


@given(hypergraphs(max_vertices=7, max_edges=6))
@settings(max_examples=25, deadline=None)
def test_pipeline_invariant_ghw(h: Hypergraph):
    k_on, d_on = generalized_hypertree_width_exact(h)
    k_off, _d_off = generalized_hypertree_width_exact(
        h, preprocess="none", bounds="none"
    )
    assert k_on == k_off
    assert is_ghd(h, d_on, width=k_on)


@given(hypergraphs(max_vertices=7, max_edges=6))
@settings(max_examples=25, deadline=None)
def test_pipeline_invariant_fhw(h: Hypergraph):
    w_on, d_on = fractional_hypertree_width_exact(h)
    w_off, _d_off = fractional_hypertree_width_exact(
        h, preprocess="none", bounds="none"
    )
    assert w_on == pytest.approx(w_off)
    assert is_fhd(h, d_on, width=w_on + EPS)


@given(hypergraphs(max_vertices=7, max_edges=6))
@settings(max_examples=15, deadline=None)
def test_pipeline_invariant_subedge_ghw(h: Hypergraph):
    """The polynomial Check(GHD,k) route agrees with itself across
    pipeline settings (and with the exact oracle transitively)."""
    k_on, d_on = generalized_hypertree_width(h)
    k_off, _d_off = generalized_hypertree_width(
        h, preprocess="none", bounds="none"
    )
    assert k_on == k_off
    assert is_ghd(h, d_on, width=k_on)


class TestOneRequestRuns:
    def test_blocks_solved_independently(self):
        h = triangle_cascade(3)
        (result,) = solve_many([(h, "ghw")])
        width, d = result.unwrap()
        assert width == 2
        assert is_ghd(h, d, width=2)
        stats = result.stats
        assert stats.blocks == 3
        assert stats.block_sizes == [(3, 3)] * 3
        assert stats.kinds == {"ghw": 1}

    def test_parallel_matches_serial(self):
        h = triangle_cascade(3)
        serial = generalized_hypertree_width(h)
        threaded = generalized_hypertree_width(h, jobs=2)
        assert serial[0] == threaded[0] == 2
        assert is_ghd(h, threaded[1], width=2)

    def test_process_executor(self):
        h = triangle_cascade(2)
        (result,) = solve_many([(h, "fhw")], jobs=2, executor="process")
        width, d = result.unwrap()
        assert width == pytest.approx(1.5)
        assert is_fhd(h, d, width=width + EPS)

    def test_preprocess_none_is_single_block(self):
        h = triangle_cascade(2)
        (result,) = solve_many([(h, "ghw")], preprocess="none")
        width, _d = result.unwrap()
        assert width == 2
        assert result.stats.blocks == 1

    def test_block_vertex_limit_beats_whole_instance(self):
        """Two K6 blocks share a vertex: 11 vertices per block but 2^22
        for the raw DP — the pipeline solves it under a per-block limit
        that the raw oracle rejects."""
        k6a = {f"a{i}{j}": [f"x{i}", f"x{j}"] for i in range(6) for j in range(i + 1, 6)}
        k6b = {f"b{i}{j}": [f"y{i}", f"y{j}"] for i in range(6) for j in range(i + 1, 6)}
        for name in list(k6b):
            k6b[name] = ["x0" if v == "y0" else v for v in k6b[name]]
        h = Hypergraph({**k6a, **k6b})
        assert h.num_vertices == 11
        width, d = fractional_hypertree_width_exact(h, vertex_limit=6)
        assert width == pytest.approx(3.0)
        assert is_fhd(h, d, width=width + EPS)
        with pytest.raises(ValueError, match="exceeds"):
            fractional_hypertree_width_exact(
                h, vertex_limit=6, preprocess="none", bounds="none"
            )

    def test_kmax_cap_error_preserved(self):
        with pytest.raises(ValueError, match="cap"):
            hypertree_width(clique(6), kmax=2)

    def test_bad_preprocess(self):
        with pytest.raises(ValueError, match="preprocess"):
            hypertree_width(cycle(4), preprocess="zzz")

    def test_kind_dispatch(self):
        (result,) = solve_many([(cycle(6), "fhw")])
        assert result.unwrap()[0] == pytest.approx(2.0)
        (bad,) = solve_many([(cycle(6), "zzz")])
        with pytest.raises(ValueError, match="kind"):
            bad.unwrap()

    def test_heuristic_bounds_blockwise(self):
        h = triangle_cascade(3)
        lower, upper, witness = width_bounds(h)
        assert lower == pytest.approx(1.5)
        assert upper == pytest.approx(1.5)
        assert is_fhd(h, witness, width=upper + EPS)


class TestSchedulerCounters:
    """One exact engine per task and one rung per open block:
    deterministic counters, no check above a block's frontier."""

    def test_serial_counts_deterministic(self):
        h = triangle_cascade(3)
        (result,) = solve_many([(h, "ghw")], bounds="none")
        width, d = result.unwrap()
        assert width == 2
        assert is_ghd(h, d, width=2)
        stats = result.stats
        # 3 blocks x (k=1 reject, k=2 accept), nothing to cancel inline.
        assert stats.tasks_run == 6
        assert stats.tasks_cancelled == 0

    def test_parallel_search_settles(self):
        # bounds="none" so the full k = 1..3 climb runs (the clique
        # lower bound would otherwise prune k < 3).
        h = clique(5)
        (result,) = solve_many([(h, "hw")], jobs=3, bounds="none")
        width, d = result.unwrap()
        assert width == 3
        assert is_hd(h, d, width=3)
        stats = result.stats
        # One block asks one rung at a time: idle workers add nothing.
        assert stats.tasks_run == 3
        assert stats.tasks_cancelled == 0

    def test_check_verdicts_match_widths_e07(self):
        """The E07 scaling instance: widths and check verdicts agree,
        and all witnesses validate."""
        h = triangle_cascade(4)
        hw_w, hw_d = hypertree_width(h)
        ghw_w, ghw_d = generalized_hypertree_width(h)
        assert (hw_w, ghw_w) == (2, 2)
        assert is_hd(h, hw_d, width=hw_w)
        assert is_ghd(h, ghw_d, width=ghw_w)
        assert hypertree_decomposition(h, 1) is None
        assert is_hd(h, hypertree_decomposition(h, 2), width=2)

    def test_no_speculation_above_accepted_k(self):
        """Once some k is accepted, no task above it is ever generated,
        whatever the budget (monotonicity of Check(X, k))."""
        from repro.pipeline.batch import BatchRequest, BatchScheduler

        scheduler = BatchScheduler(bounds="none")
        scheduler.submit(BatchRequest(clique(4), "ghw"))
        instance = scheduler.instances[0]
        instance.prepare("full", "none")
        instance.record(0, 3, object())  # accepted at k=3, k<3 unknown
        tasks = instance.next_tasks(100)
        assert tasks, "k < 3 still needs checking"
        assert all(k < 3 for _b, k in tasks)

    def test_busy_block_does_not_starve_the_next(self):
        """Each open block asks its frontier rung only, so with block
        0's frontier in flight a budget of one goes to block 1's
        frontier, not to a higher rung of block 0."""
        from repro.pipeline.batch import BatchRequest, BatchScheduler

        scheduler = BatchScheduler(bounds="none")
        scheduler.submit(BatchRequest(triangle_cascade(3), "ghw"))
        instance = scheduler.instances[0]
        instance.prepare("full", "none")
        assert instance.next_tasks(2) == [(0, 1), (1, 1)]
        instance.in_flight.add(0)
        assert instance.next_tasks(1) == [(1, 1)]

    @pytest.mark.parametrize(
        "h, kind",
        [
            (triangle_cascade(6), "ghw"),
            (triangle_cascade(6), "hw"),
            (clique(6), "hw"),
            (grid(4, 4), "ghw"),
        ],
        ids=["triangles(6)-ghw", "triangles(6)-hw", "K6-hw", "grid(4,4)-ghw"],
    )
    def test_search_counters_independent_of_jobs(self, h, kind):
        """A search that settles every block runs each block's climb
        from k = 1 to its width and nothing else, on any pool."""
        observed = set()
        for jobs, executor in ((1, "thread"), (2, "thread"), (2, "process")):
            (result,) = solve_many(
                [(h, kind)], jobs=jobs, executor=executor, bounds="none"
            )
            stats = result.stats
            observed.add(
                (result.unwrap()[0], stats.tasks_run, stats.tasks_cancelled)
            )
        assert len(observed) == 1, observed

    def test_solver_knob_removed(self):
        with pytest.raises(TypeError, match="solver"):
            solve_many([cycle(4)], solver="bb")

    def test_batch_counts_deterministic(self):
        results = solve_many([(triangle_cascade(3), "ghw")], bounds="none")
        assert results[0].unwrap()[0] == 2
        stats = results[0].stats
        assert stats.tasks_run == 6
        assert stats.tasks_cancelled == 0

    def test_stats_dict_is_the_fields_and_two_rates(self):
        import dataclasses
        import json

        from repro.pipeline import BatchStats, solve_many

        payload = solve_many([(cycle(4), "hw")])[0].stats.as_dict()
        fields = [f.name for f in dataclasses.fields(BatchStats)]
        assert list(payload) == [*fields, "requests_per_second", "hit_rate"]
        json.dumps(payload)  # JSON-ready

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
    WidthSolver,
    articulation_points,
    reduce_instance,
    rules_for,
    solve_width,
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
    k_off, _d_off = hypertree_width(h, preprocess="none")
    assert k_on == k_off
    assert is_hd(h, d_on, width=k_on)


@given(hypergraphs(max_vertices=7, max_edges=6))
@settings(max_examples=25, deadline=None)
def test_pipeline_invariant_ghw(h: Hypergraph):
    k_on, d_on = generalized_hypertree_width_exact(h)
    k_off, _d_off = generalized_hypertree_width_exact(h, preprocess="none")
    assert k_on == k_off
    assert is_ghd(h, d_on, width=k_on)


@given(hypergraphs(max_vertices=7, max_edges=6))
@settings(max_examples=25, deadline=None)
def test_pipeline_invariant_fhw(h: Hypergraph):
    w_on, d_on = fractional_hypertree_width_exact(h)
    w_off, _d_off = fractional_hypertree_width_exact(h, preprocess="none")
    assert w_on == pytest.approx(w_off)
    assert is_fhd(h, d_on, width=w_on + EPS)


@given(hypergraphs(max_vertices=7, max_edges=6))
@settings(max_examples=15, deadline=None)
def test_pipeline_invariant_subedge_ghw(h: Hypergraph):
    """The polynomial Check(GHD,k) route agrees with itself across
    pipeline settings (and with the exact oracle transitively)."""
    k_on, d_on = generalized_hypertree_width(h)
    k_off, _d_off = generalized_hypertree_width(h, preprocess="none")
    assert k_on == k_off
    assert is_ghd(h, d_on, width=k_on)


class TestWidthSolver:
    def test_blocks_solved_independently(self):
        h = triangle_cascade(3)
        solver = WidthSolver(h)
        width, d = solver.generalized_hypertree_width()
        assert width == 2
        assert is_ghd(h, d, width=2)
        stats = solver.last_stats
        assert stats.blocks == 3
        assert stats.block_sizes == [(3, 3)] * 3
        assert stats.kinds == {"ghw": 1}

    def test_parallel_matches_serial(self):
        h = triangle_cascade(3)
        serial = WidthSolver(h).generalized_hypertree_width()
        threaded = WidthSolver(h, jobs=2).generalized_hypertree_width()
        assert serial[0] == threaded[0] == 2
        assert is_ghd(h, threaded[1], width=2)

    def test_process_executor(self):
        h = triangle_cascade(2)
        solver = WidthSolver(h, jobs=2, executor="process")
        width, d = solver.fractional_hypertree_width_exact()
        assert width == pytest.approx(1.5)
        assert is_fhd(h, d, width=width + EPS)

    def test_speculative_cross_k(self):
        """With one block and several jobs, checks above the frontier
        run speculatively; the answer is still the minimum k."""
        h = clique(5)
        solver = WidthSolver(h, jobs=3)
        width, d = solver.hypertree_width()
        assert width == 3
        assert is_hd(h, d, width=3)
        assert solver.last_stats.speculative_checks >= 1

    def test_preprocess_none_is_single_block(self):
        h = triangle_cascade(2)
        solver = WidthSolver(h, preprocess="none")
        width, _d = solver.generalized_hypertree_width()
        assert width == 2
        assert solver.last_stats.blocks == 1

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
                h, vertex_limit=6, preprocess="none"
            )

    def test_kmax_cap_error_preserved(self):
        with pytest.raises(ValueError, match="cap"):
            WidthSolver(clique(6)).hypertree_width(kmax=2)

    def test_bad_preprocess(self):
        with pytest.raises(ValueError, match="preprocess"):
            WidthSolver(cycle(4), preprocess="zzz")

    def test_solve_width_dispatch(self):
        width, _d = solve_width(cycle(6), kind="fhw")
        assert width == pytest.approx(2.0)
        with pytest.raises(ValueError, match="kind"):
            solve_width(cycle(6), kind="zzz")

    def test_heuristic_bounds_blockwise(self):
        h = triangle_cascade(3)
        lower, upper, witness = width_bounds(h)
        assert lower == pytest.approx(1.5)
        assert upper == pytest.approx(1.5)
        assert is_fhd(h, witness, width=upper + EPS)


class TestSchedulerCounters:
    """One exact engine per task: deterministic counters, no speculation
    above an accepted k."""

    def test_serial_counts_deterministic(self):
        h = triangle_cascade(3)
        solver = WidthSolver(h, bounds="none")
        width, d = solver.generalized_hypertree_width()
        assert width == 2
        assert is_ghd(h, d, width=2)
        stats = solver.last_stats
        # 3 blocks x (k=1 reject, k=2 accept), nothing to cancel inline.
        assert stats.tasks_run == 6
        assert stats.tasks_cancelled == 0

    def test_parallel_speculation_settles(self):
        # bounds="none" so the full k = 1..3 climb runs (the clique
        # lower bound would otherwise prune k < 3).
        h = clique(5)
        solver = WidthSolver(h, jobs=3, bounds="none")
        width, d = solver.hypertree_width()
        assert width == 3
        assert is_hd(h, d, width=3)
        stats = solver.last_stats
        # k = 1..3 all ran; settling may cancel at most one queued
        # speculative future per worker.
        assert stats.tasks_run >= 3
        assert stats.tasks_cancelled <= 3

    def test_check_verdicts_match_widths_e07(self):
        """The E07 scaling instance: widths and check verdicts agree,
        and all witnesses validate."""
        h = triangle_cascade(4)
        hw_w, hw_d = WidthSolver(h).hypertree_width()
        ghw_w, ghw_d = WidthSolver(h).generalized_hypertree_width()
        assert (hw_w, ghw_w) == (2, 2)
        assert is_hd(h, hw_d, width=hw_w)
        assert is_ghd(h, ghw_d, width=ghw_w)
        assert WidthSolver(h).hypertree_decomposition(1) is None
        assert is_hd(h, WidthSolver(h).hypertree_decomposition(2), width=2)

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
        assert all(k < 3 for _prio, _b, k in tasks)

    def test_solver_knob_removed(self):
        with pytest.raises(TypeError, match="solver"):
            WidthSolver(cycle(4), solver="bb")

    def test_batch_counts_deterministic(self):
        from repro.pipeline import solve_many
        from repro.pipeline.batch import last_batch_stats

        results = solve_many([(triangle_cascade(3), "ghw")], bounds="none")
        assert results[0].unwrap()[0] == 2
        stats = last_batch_stats()
        assert stats.tasks_run == 6
        assert stats.tasks_cancelled == 0

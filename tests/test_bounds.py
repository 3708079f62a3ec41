"""Tests for the bounds pre-pass (repro.pipeline.bounds).

The headline invariants (pinned property-based below): the pre-pass
never changes an answer — bounds-on and bounds-off agree on hw / ghw /
fhw and on every check verdict — and decided blocks run **zero** exact
Check(X, k) tasks.
"""

import math

import pytest
from hypothesis import given, settings

from repro.algorithms import (
    fractional_hypertree_decomposition_bounded_degree,
    fractional_hypertree_width_exact,
    generalized_hypertree_width,
    hypertree_width,
)
from repro.covers import EPS
from repro.decomposition import is_fhd, is_ghd, is_hd
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import (
    clique,
    cycle,
    grid,
    triangle_cascade,
)
from repro.pipeline import (
    BOUNDS_MODES,
    BlockBounds,
    BlockState,
    compute_block_bounds,
    solve_many,
)

from .strategies import hypergraphs


class TestBlockBounds:
    def test_lower_k_rounds_up(self):
        b = BlockBounds(kind="fhd", lower=1.5)
        assert b.lower_k == 2
        assert BlockBounds(kind="ghd", lower=3.0).lower_k == 3
        assert BlockBounds(kind="ghd").lower_k == 1

    def test_upper_k_requires_witness(self):
        assert BlockBounds(kind="ghd", upper=2.0).upper_k is None
        b = compute_block_bounds(triangle_cascade(1), "ghd")
        assert b.upper_k == 2

    def test_decided_needs_meeting_bounds_and_witness(self):
        assert not BlockBounds(kind="ghd", lower=2.0, upper=2.0).decided
        b = compute_block_bounds(triangle_cascade(1), "ghd")
        assert b.decided
        assert b.lower == pytest.approx(b.upper)

    def test_mode_none_is_trivial(self):
        b = compute_block_bounds(clique(4), "ghd", mode="none")
        assert (b.lower, b.upper, b.witness) == (1.0, math.inf, None)

    def test_mode_clique_lower_only(self):
        b = compute_block_bounds(clique(4), "ghd", mode="clique")
        assert b.lower >= 2.0
        assert b.witness is None and b.upper == math.inf

    def test_bad_mode_and_kind(self):
        with pytest.raises(ValueError, match="bounds"):
            compute_block_bounds(clique(3), "ghd", mode="zzz")
        with pytest.raises(ValueError, match="kind"):
            compute_block_bounds(clique(3), "zzz")

    def test_hd_candidates_validated_for_special_condition(self):
        # Elimination-ordering witnesses need not satisfy the HD special
        # condition; any surviving witness must re-validate as an hd.
        b = compute_block_bounds(clique(5), "hd")
        assert b.lower >= 2.0
        if b.witness is not None:
            assert is_hd(clique(5), b.witness, width=b.upper)

    def test_fhd_uses_fractional_covers(self):
        b = compute_block_bounds(cycle(4), "fhd")
        assert b.witness is not None
        assert is_fhd(cycle(4), b.witness, width=b.upper + EPS)

    def test_modes_tuple_pinned(self):
        assert BOUNDS_MODES == ("portfolio", "clique", "none")


def seeded_block_state(bounds, cap):
    """A width search's block state after recording the bounds' facts."""
    state = BlockState(range(1, cap + 1))
    for k, verdict in bounds.facts(state.ladder):
        state.record(k, verdict)
    return state


class TestSeededBlockState:
    def test_none_bounds_gives_fresh_state(self):
        state = seeded_block_state(BlockBounds(kind="ghd"), cap=5)
        assert state.frontier == 0 and not state.settled
        assert state.next_rung == 1

    def test_lower_bound_seeds_rejections(self):
        b = BlockBounds(kind="ghd", lower=3.0)
        state = seeded_block_state(b, cap=6)
        assert state.ladder[state.frontier] == 3
        assert state.results[1] is None and state.results[2] is None
        assert not state.settled

    def test_decided_bounds_settle_instantly(self):
        b = compute_block_bounds(triangle_cascade(1), "ghd")
        assert b.decided
        state = seeded_block_state(b, cap=3)
        assert state.rung == 2
        assert state.value is b.witness

    def test_upper_beyond_cap_not_seeded(self):
        b = compute_block_bounds(triangle_cascade(1), "ghd")
        state = seeded_block_state(b, cap=1)
        # upper_k = 2 exceeds the cap: only the k <= cap part is usable.
        assert not state.settled


class TestNoExactChecksWhenDecided:
    """Regression (the tentpole's point): ``lower == upper`` blocks run
    zero exact Check(X, k) tasks; the heuristic witness is stitched."""

    def test_decided_runs_zero_tasks(self):
        h = triangle_cascade(3)
        (result,) = solve_many([(h, "ghw")])
        width, d = result.unwrap()
        assert width == 2 and is_ghd(h, d, width=2)
        stats = result.stats
        assert stats.tasks_run == 0
        assert stats.bounds_blocks_decided == 3
        assert stats.anytime_answers == 1
        assert result.anytime_width == 2.0

    def test_serial_and_parallel_prune_identically(self):
        # Satellite: the --jobs 1 path honours the same seeding as the
        # parallel path.  C9 with the chord edge {v1, v4, v7} has bounds
        # [1, 2] (no primal triangle outside the chord, treewidth 2,
        # rank 3), so exactly one exact check (the k = 1 reject)
        # remains in both.
        h = Hypergraph({**cycle(9).edges, "chord": ("v1", "v4", "v7")})
        for jobs in (1, 3):
            (result,) = solve_many([(h, "ghw")], jobs=jobs)
            width, _d = result.unwrap()
            assert width == 2
            assert result.stats.tasks_run == 1

    def test_exact_oneshot_skips_decided_blocks(self):
        h = triangle_cascade(2)
        (result,) = solve_many([(h, "ghw-exact")])
        width, d = result.unwrap()
        assert width == 2 and is_ghd(h, d, width=2)
        assert result.stats.tasks_run == 0
        assert result.stats.bounds_blocks_decided == 2

    def test_check_prerejects_below_lower_bound(self):
        (result,) = solve_many([(clique(5), "check-ghd", {"k": 2})])
        assert result.unwrap() is None
        stats = result.stats
        assert stats.tasks_run == 0
        assert stats.bounds_checks_avoided >= 1

    def test_check_preaccepts_with_witness(self):
        h = triangle_cascade(2)
        (result,) = solve_many([(h, "check-ghd", {"k": 2})])
        assert is_ghd(h, result.unwrap(), width=2)
        assert result.stats.tasks_run == 0

    def test_capped_checks_never_preaccept(self):
        # Bounded-degree fhd checks may intentionally reject instances a
        # better witness would accept: the pre-pass must not answer them.
        h = cycle(4)
        d = fractional_hypertree_decomposition_bounded_degree(h, 2.0)
        d_off = fractional_hypertree_decomposition_bounded_degree(
            h, 2.0, bounds="none"
        )
        assert (d is None) == (d_off is None)

    def test_batch_decided_instances_and_anytime(self):
        requests = [
            (triangle_cascade(3), "ghw"),
            (clique(4), "ghw"),
            (clique(5), "check-ghd", {"k": 2}),
        ]
        results = solve_many(requests)
        assert [r.ok for r in results] == [True, True, True]
        assert results[0].value[0] == 2
        assert results[1].value[0] == 2
        assert results[2].value is None  # lower bound 3 > 2
        stats = results[0].stats
        assert stats.tasks_run == 0
        assert stats.bounds_blocks_decided >= 4
        assert stats.anytime_answers >= 2


def _binary_csp(pairs: str) -> Hypergraph:
    """A binary CSP from ``"1-3 1-5 ..."``: one constraint per pair."""
    return Hypergraph(
        [[f"x{a}", f"x{b}"] for a, b in (p.split("-") for p in pairs.split())]
    )


class TestMinorWidthDecidesCsps:
    """Binary CSPs shaped like ``random_csp_hypergraph(9, 13)`` and
    ``(11, 18)``: the clique bound leaves fhw (and, on the larger two,
    ghw) open, while ``(minor-width + 1) / 2`` meets the portfolio
    witness, so neither measure runs an exact task.  Where the bounds
    stay open, the witness width caps the exact DP."""

    @pytest.mark.parametrize(
        "pairs, ghw, fhw",
        [
            ("1-3 1-5 1-6 2-4 2-6 2-7 2-8 2-9 4-5 4-7 5-8 6-7 6-8", 2, 2.0),
            (
                "1-2 1-4 1-5 2-8 3-5 3-11 4-8 4-10 4-11 5-6 5-8 5-10 6-11 "
                "7-8 7-10 7-11 8-9 10-11",
                3,
                2.5,
            ),
            (
                "1-2 1-3 1-7 2-5 2-8 2-10 3-10 4-8 4-10 5-6 5-7 5-8 5-10 "
                "6-9 7-8 7-9 8-9 9-11",
                3,
                2.5,
            ),
        ],
    )
    def test_zero_exact_tasks(self, pairs, ghw, fhw):
        h = _binary_csp(pairs)
        (result,) = solve_many([(h, "ghw")])
        width, d = result.unwrap()
        assert width == ghw and is_ghd(h, d, width=ghw)
        assert result.stats.tasks_run == 0
        (result,) = solve_many([(h, "fhw")])
        width, d = result.unwrap()
        assert width == pytest.approx(fhw) and is_fhd(h, d, width=fhw + EPS)
        assert result.stats.tasks_run == 0

    def test_open_block_caps_the_dp(self, monkeypatch, tmp_path):
        # Treewidth 2 leaves fhw open at [1.5, 2]: the one exact task
        # gets the witness width as the DP's cap, the store key not.
        from repro.pipeline import batch
        from repro.store import ResultStore

        seen = []
        original = batch.run_block_task

        def spy(solver, hypergraph, params):
            seen.append((solver, dict(params)))
            return original(solver, hypergraph, params)

        monkeypatch.setattr(batch, "run_block_task", spy)
        h = _binary_csp("1-2 1-5 1-7 1-8 2-6 3-4 3-8 4-6 5-8 5-9 6-8 7-8 8-9")
        with ResultStore(tmp_path) as store:
            (result,) = solve_many([(h, "fhw")], store=store)
            keys = [k for k in store._index if k[0] == "block-exact"]
        assert result.value[0] == pytest.approx(2.0)
        assert seen == [("fhw-exact", {"upper": pytest.approx(2.0)})]
        assert keys and all(k[-1] == "{}" for k in keys)


class TestBoundsModesAgree:
    def test_clique_mode_agrees(self):
        h = grid(3, 3)
        (on,) = solve_many([(h, "ghw")], bounds="clique")
        width, d = on.unwrap()
        width_off, _ = generalized_hypertree_width(h, bounds="none")
        assert width == width_off and is_ghd(h, d, width=width)
        assert on.stats.bounds == "clique"

    def test_bad_bounds_mode(self):
        with pytest.raises(ValueError, match="bounds"):
            generalized_hypertree_width(cycle(4), bounds="zzz")
        with pytest.raises(ValueError, match="bounds"):
            solve_many([(cycle(4), "ghw")], bounds="zzz")


class TestBoundsOnOffProperty:
    """Bounds-on and bounds-off agree on every width measure, and the
    bounds-on witnesses validate on the original hypergraph."""

    @settings(max_examples=25, deadline=None)
    @given(hypergraphs(max_vertices=7, max_edges=6))
    def test_hw_agrees(self, h):
        w_on, d_on = hypertree_width(h)
        w_off, _ = hypertree_width(h, bounds="none")
        assert w_on == w_off
        assert is_hd(h, d_on, width=w_on)

    @settings(max_examples=25, deadline=None)
    @given(hypergraphs(max_vertices=7, max_edges=6))
    def test_ghw_agrees(self, h):
        w_on, d_on = generalized_hypertree_width(h)
        w_off, _ = generalized_hypertree_width(h, bounds="none")
        assert w_on == w_off
        assert is_ghd(h, d_on, width=w_on)

    @settings(max_examples=25, deadline=None)
    @given(hypergraphs(max_vertices=7, max_edges=6))
    def test_fhw_agrees(self, h):
        w_on, d_on = fractional_hypertree_width_exact(h)
        w_off, _ = fractional_hypertree_width_exact(h, bounds="none")
        assert w_on == pytest.approx(w_off, abs=1e-6)
        assert is_fhd(h, d_on, width=w_on + EPS)

    @settings(max_examples=15, deadline=None)
    @given(hypergraphs(max_vertices=6, max_edges=5))
    def test_batch_agrees_with_bounds_off(self, h):
        (on,) = solve_many([(h, "ghw")])
        (off,) = solve_many([(h, "ghw")], bounds="none")
        assert on.value[0] == off.value[0]
        assert is_ghd(h, on.value[1], width=on.value[0])

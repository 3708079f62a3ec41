"""E18 (ablation) — heuristic width bounds vs the exact oracle.

DESIGN.md calls out the exact-oracle range limit (18 vertices by default) as the
library's main scalability trade-off; practical systems pair exact
methods with elimination heuristics.  This ablation quantifies the
sandwich quality: clique lower bound <= exact fhw <= heuristic upper
bound, with the gap and the speedup, and shows the heuristics keep
working past the exact oracle's range.
"""

import time

from _tables import emit, emit_engine_stats, measure_engine

from repro.algorithms import (
    clique_lower_bound,
    fractional_hypertree_width_exact,
    width_bounds,
)
from repro.hypergraph.generators import (
    clique,
    cycle,
    grid,
    triangle_cascade,
)
from repro.paper_artifacts import example_4_3_hypergraph


def sandwich_rows() -> list[tuple]:
    instances = [
        ("C7", cycle(7)),
        ("K5", clique(5)),
        ("grid(3,3)", grid(3, 3)),
        ("triangles(3)", triangle_cascade(3)),
        ("Example4.3-H0", example_4_3_hypergraph()),
    ]
    rows = []
    for label, h in instances:
        t0 = time.perf_counter()
        exact, _d = fractional_hypertree_width_exact(h)
        exact_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        lower, upper, _w = width_bounds(h)
        heur_time = time.perf_counter() - t0
        rows.append(
            (
                label,
                round(lower, 3),
                round(exact, 3),
                round(upper, 3),
                round(upper - exact, 3),
                f"{exact_time * 1000:.0f}ms",
                f"{heur_time * 1000:.0f}ms",
            )
        )
    return rows


def test_e18_sandwich_quality(benchmark):
    rows = benchmark(sandwich_rows)
    for label, lower, exact, upper, gap, _te, _th in rows:
        assert lower <= exact + 1e-9, label
        assert exact <= upper + 1e-9, label
        assert gap <= 1.0 + 1e-9, f"{label}: heuristic gap too large"
    emit(
        "E18 / heuristic sandwich: clique LB <= exact fhw <= heuristic UB",
        ["instance", "lower", "exact fhw", "upper", "gap", "exact time", "heuristic time"],
        rows,
    )


def test_e18_beyond_exact_range(benchmark):
    """grid(5,5): 25 vertices, past the default vertex limit; heuristics answer."""

    def big():
        h = grid(5, 5)
        lower, upper, _w = width_bounds(h)
        return lower, upper, h.num_vertices

    lower, upper, n = benchmark(big)
    assert n == 25 and lower <= upper
    emit(
        "E18 supplement: past the exact-oracle limit",
        ["instance", "|V|", "fhw lower", "fhw upper"],
        [("grid(5,5)", n, round(lower, 3), round(upper, 3))],
    )


def bounds_pruning_rows() -> list[tuple]:
    """The same heuristics wired in as the solver's bounds pre-pass.

    For each instance: exact ghw Check tasks run with the portfolio
    pre-pass (the default) vs ``bounds="none"``, plus the number of
    blocks the pre-pass decided outright.  Widths must match — the
    pre-pass witnesses are re-validated, so it never changes answers.
    """
    from repro.pipeline import solve_many

    instances = [
        ("C7", cycle(7)),
        ("K5", clique(5)),
        ("grid(3,3)", grid(3, 3)),
        ("triangles(3)", triangle_cascade(3)),
        ("Example4.3-H0", example_4_3_hypergraph()),
    ]
    rows = []
    for label, h in instances:
        (on,) = solve_many([(h, "ghw")])
        width_on, _d = on.unwrap()
        (off,) = solve_many([(h, "ghw")], bounds="none")
        width_off, _d = off.unwrap()
        assert width_on == width_off, label
        rows.append(
            (
                label,
                width_on,
                off.stats.tasks_run,
                on.stats.tasks_run,
                on.stats.bounds_blocks_decided,
            )
        )
    return rows


def test_e18_bounds_pruning(benchmark):
    """The ablation's practical payoff: the sandwich, used as a
    pre-pass, removes exact Check tasks without changing any width."""
    rows = benchmark(bounds_pruning_rows)
    total_off = sum(row[2] for row in rows)
    total_on = sum(row[3] for row in rows)
    assert total_on < total_off
    assert any(decided > 0 for *_rest, decided in rows)
    emit(
        "E18 / heuristics as bounds pre-pass: exact ghw tasks removed",
        ["instance", "ghw", "tasks (no bounds)", "tasks (portfolio)", "blocks decided"],
        rows,
    )


def test_e18_engine_stats_on_sandwich(benchmark):
    """The exact-vs-heuristic sandwich shares one CoverOracle per
    instance, so the heuristic pass re-reads bags the exact search already
    solved — the nonzero cross-algorithm hit count on the combined
    workload is the sharing the engine exists for."""
    stats = benchmark(lambda: measure_engine(sandwich_rows))
    assert stats["cache_hits"] > 0
    assert stats["lp_solves"] > 0
    emit_engine_stats("E18 / engine stats on the sandwich workload", {"cached": stats})


if __name__ == "__main__":
    emit(
        "E18 sandwich",
        ["inst", "lb", "exact", "ub", "gap", "t_exact", "t_heur"],
        sandwich_rows(),
    )
    emit_engine_stats(
        "E18 engine stats (sandwich workload)",
        {"cached": measure_engine(sandwich_rows)},
    )
    emit(
        "E18 bounds pre-pass pruning",
        ["inst", "ghw", "tasks off", "tasks on", "decided"],
        bounds_pruning_rows(),
    )

"""E12 — Theorem 6.20 / Algorithm 4: the PTAAS for K-Bounded-FHW.

Runs FHW-Approximation and reproduces its guarantees: final width within
ε of fhw(H), failure exactly when fhw(H) > K, and the iteration count
bounded by the ⌈log(K'/ε')⌉ analysis at the end of the Theorem 6.20 proof.
"""

import math

from _tables import emit, emit_engine_stats, emit_pipeline_stats, measure_engine

from repro.algorithms import (
    fhw_approximation,
    fractional_hypertree_width_exact,
)
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import clique, cycle, triangle_cascade
from repro.pipeline import solve_many


def instances():
    return [
        ("triangle", Hypergraph({"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]})),
        ("C6", cycle(6)),
        ("K5", clique(5)),
        ("triangles(2)", triangle_cascade(2)),
    ]


def ptaas_rows(K: float = 3.0, eps: float = 0.5) -> list[tuple]:
    rows = []
    iteration_bound = math.ceil(math.log2((K + eps - 1) / (eps / 3))) + 1
    for label, h in instances():
        exact, _w = fractional_hypertree_width_exact(h)
        result = fhw_approximation(h, K=K, eps=eps)
        rows.append(
            (
                label,
                round(exact, 4),
                round(result.width, 4),
                round(result.width - exact, 6),
                result.iterations,
                iteration_bound,
            )
        )
    return rows


def test_e12_ptaas_guarantees(benchmark):
    K, eps = 3.0, 0.5
    rows = benchmark(ptaas_rows, K, eps)
    for label, exact, width, gap, iters, bound in rows:
        assert gap < eps + 1e-9, f"{label}: PTAAS gap {gap} >= ε"
        assert iters <= bound + 1, f"{label}: too many iterations"
    emit(
        "E12 / Thm 6.20: PTAAS widths and iteration counts (K=3, ε=0.5)",
        ["instance", "fhw", "PTAAS width", "gap", "iterations", "⌈log(K'/ε')⌉ bound"],
        rows,
    )


REPEAT_QUERIES = 3


def engine_cache_stats() -> dict[str, dict]:
    """Cover-LP solve counts for repeated PTAAS queries, cached vs not.

    Each search memoizes its own covers per run (that guarantee never
    depends on the engine), so the CoverOracle's contribution is the
    sharing *across* searches: Algorithm 4's probes partially overlap,
    and a repeated width query — the ROADMAP's query-serving pattern,
    here the same PTAAS asked three times — re-reads covers an earlier
    search already solved.  The shared (bag, allowed_edges) cache must
    cut cover solves by at least 2x on this traffic (measured: ~3.4x;
    a second identical query is nearly LP-free).
    """

    def workload():
        for _ in range(REPEAT_QUERIES):
            fhw_approximation(cycle(6), K=3.0, eps=0.5)

    return {
        "cached": measure_engine(workload),
        "uncached": measure_engine(workload, cache_size=0),
    }


def test_e12_engine_cache_reduces_lp_solves(benchmark):
    stats = benchmark(engine_cache_stats)
    cached, uncached = stats["cached"], stats["uncached"]
    solves_cached = cached["lp_solves"] + cached["set_cover_solves"]
    solves_uncached = uncached["lp_solves"] + uncached["set_cover_solves"]
    assert solves_uncached >= 2 * solves_cached, (
        f"cache should cut cover solves >= 2x: "
        f"{solves_uncached} uncached vs {solves_cached} cached"
    )
    assert cached["hit_rate"] > 0.5
    emit_engine_stats(
        f"E12 / engine cache: LP solves across {REPEAT_QUERIES} repeated "
        "PTAAS queries (C6)",
        stats,
    )


def ptaas_pipeline_stats() -> dict:
    """Per-stage pipeline stats of the PTAAS on each E12 instance.

    triangles(2) splits into two triangle blocks whose binary searches
    run independently; the single-block instances show the no-op reduce
    and split stages costing microseconds.
    """
    out = {}
    for label, h in instances():
        (result,) = solve_many(
            [(h, "fhw-approximation", {"K": 3.0, "eps": 0.5})]
        )
        result.unwrap()
        out[label] = result.stats
    return out


def test_e12_pipeline_stage_stats(benchmark):
    stats = benchmark(ptaas_pipeline_stats)
    assert stats["triangles(2)"].blocks == 2
    emit_pipeline_stats(
        "E12 / pipeline per-stage stats of the PTAAS (K=3, ε=0.5)", stats
    )


def test_e12_fails_above_K(benchmark):
    """fhw(K6) = 3 > K = 2: the algorithm must answer 'fhw > K'."""
    result = benchmark(fhw_approximation, clique(6), 2.0, 0.5)
    assert result.failed
    emit(
        "E12 supplement: K-boundedness",
        ["instance", "K", "outcome"],
        [("K6 (fhw = 3)", 2.0, "fails as required")],
    )


if __name__ == "__main__":
    emit(
        "E12 / PTAAS",
        ["inst", "fhw", "width", "gap", "iters", "bound"],
        ptaas_rows(),
    )
    emit_engine_stats("E12 engine cache (cached vs uncached)", engine_cache_stats())
    emit_pipeline_stats("E12 pipeline per-stage stats", ptaas_pipeline_stats())

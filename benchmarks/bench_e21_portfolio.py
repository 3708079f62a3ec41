"""E21 — the exact engine alone: CheckSearch on ghw, bounds pre-pass off.

Each ``Check(X, k)`` block task has one exact engine, the engine-backed
branch-and-bound of :mod:`repro.engine.search`.  This benchmark times
it with the bounds pre-pass pinned off, so every k of every block is an
exact Check task (the pre-pass would decide most of this corpus
without one — that effect is E22's subject,
bench_e22_bounds_collapse.py).  Every width is checked against the
elimination DP (:func:`repro.generalized_hypertree_width_exact`), an
independent exact procedure.

Corpora:

* **dense** — small dense blocks (cliques, arity-3 CSPs) where subedge
  combinations make the search work, next to long cycles and grids.
* **smoke** — a tiny subset for CI: the same parity check, no timing
  assertion (shared runners are too noisy for one).

Run ``python benchmarks/bench_e21_portfolio.py --corpus dense`` for
the full corpus, or ``--corpus smoke`` for the CI check.
"""

import random
import time

from _tables import emit

from repro import engine, generalized_hypertree_width_exact
from repro.pipeline import BatchRequest, solve_many
from repro.hypergraph.generators import (
    clique,
    cycle,
    grid,
    random_csp_hypergraph,
    triangle_cascade,
)

#: corpus name -> list of (label, make()) thunks, all ghw.
CORPORA = {
    "dense": [
        ("K7", lambda: clique(7)),
        ("csp(9,16)", lambda: random_csp_hypergraph(9, 16, arity=3, rng=random.Random(3))),
        ("csp(10,18)", lambda: random_csp_hypergraph(10, 18, arity=3, rng=random.Random(4))),
        ("C12", lambda: cycle(12)),
        ("C14", lambda: cycle(14)),
        ("K5", lambda: clique(5)),
        ("K6", lambda: clique(6)),
        ("C9", lambda: cycle(9)),
        ("grid(3,3)", lambda: grid(3, 3)),
        ("tri4", lambda: triangle_cascade(4)),
    ],
    "smoke": [
        ("K5", lambda: clique(5)),
        ("C9", lambda: cycle(9)),
        ("tri3", lambda: triangle_cascade(3)),
        ("grid(3,3)", lambda: grid(3, 3)),
    ],
}


def build_requests(corpus: str = "dense") -> list[BatchRequest]:
    """The ghw request list for one named corpus."""
    return [
        BatchRequest(make(), "ghw", label=label)
        for label, make in CORPORA[corpus]
    ]


def run_engine(requests, jobs: int):
    """One timed ``solve_many`` pass from cold caches, bounds off."""
    engine.clear_context_registry()
    start = time.perf_counter()
    results = solve_many(requests, jobs=jobs, bounds="none")
    elapsed = time.perf_counter() - start
    widths = []
    for request, handle in zip(requests, results):
        assert handle.ok, f"{request.label}: {handle.error!r}"
        widths.append(handle.value[0])
    return widths, elapsed, results[0].stats


def measure(jobs: int = 1, corpus: str = "dense") -> dict:
    """Time the engine over one corpus and check it against the DP.

    Returns a ``{"metrics": ..., "timings": ...}`` report (the shape
    ``tools/record_bench.py`` records as ``BENCH_E21.json``) after
    asserting that every width equals the elimination DP's.
    """
    requests = build_requests(corpus)
    widths, seconds, stats = run_engine(requests, jobs)
    for request, width in zip(requests, widths):
        exact, _witness = generalized_hypertree_width_exact(request.hypergraph)
        assert width == exact, f"{request.label}: engine {width} vs DP {exact}"
    return {
        "metrics": {
            "corpus": corpus,
            "jobs": jobs,
            "instances": [
                {
                    "instance": request.label,
                    "vertices": request.hypergraph.num_vertices,
                    "edges": request.hypergraph.num_edges,
                    "ghw": width,
                }
                for request, width in zip(requests, widths)
            ],
            "tasks": {
                "run": stats.tasks_run,
                "cancelled": stats.tasks_cancelled,
            },
        },
        "timings": {"seconds": round(seconds, 4)},
    }


def emit_report(report: dict) -> None:
    metrics, timings = report["metrics"], report["timings"]
    n = len(metrics["instances"])
    emit(
        f"E21 / exact engine, bounds off: {n} ghw requests "
        f"({metrics['corpus']} corpus, jobs={metrics['jobs']})",
        ["wall", "req/s", "tasks run", "cancelled"],
        [
            (
                f"{timings['seconds']:.3f}s",
                f"{n / timings['seconds']:.1f}",
                metrics["tasks"]["run"],
                metrics["tasks"]["cancelled"],
            )
        ],
    )
    emit(
        "E21 / per-instance widths (equal to the elimination DP's)",
        ["instance", "n", "m", "ghw"],
        [
            (row["instance"], row["vertices"], row["edges"], row["ghw"])
            for row in metrics["instances"]
        ],
    )


def test_e21_engine_matches_elimination_dp(benchmark):
    report = benchmark.pedantic(
        lambda: measure(jobs=1, corpus="dense"), rounds=1, iterations=1
    )
    emit_report(report)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--corpus", choices=sorted(CORPORA), default="dense")
    args = parser.parse_args()
    report = measure(jobs=args.jobs, corpus=args.corpus)
    emit_report(report)
    print("\nOK: every width equals the elimination DP's")

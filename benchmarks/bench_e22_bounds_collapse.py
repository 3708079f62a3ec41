"""E22 (ablation) — the bounds pre-pass collapsing the k-search.

The exact ``Check(X, k)`` solves dominate every width query; the
bounds pre-pass (``pipeline/bounds.py``) brackets each block with a
near-linear ordering portfolio (upper bound + witness) and the
Lemma 2.8 clique cover (lower bound) before the first exact task is
generated.  Blocks whose bounds meet are answered by the re-validated
heuristic witness and never reach an exact engine; the rest start
their k-climb at the lower bound and stop at the upper at the latest.

This ablation counts the exact Check tasks with and without the
pre-pass over the E15 HyperBench-style corpus plus the E21 dense
corpus, asserting the acceptance criterion: **>= 2x fewer exact
tasks, byte-identical widths**.

Corpora:

* **full** — the E15 suite (``hyperbench_like_suite(seed=0)``) plus
  the E21 dense instances; the headline >= 2x assertion lives here.
* **smoke** — a small subset for CI: the same parity + reduction
  checks with a lighter >= 1.5x floor (tiny corpora leave less slack).

Run ``python benchmarks/bench_e22_bounds_collapse.py`` for the full
ablation, or ``--corpus smoke`` for the CI check.
"""

import random
import time

from _tables import emit

from repro import engine
from repro.pipeline import BatchRequest, solve_many
from repro.hypergraph.generators import (
    clique,
    cycle,
    grid,
    hyperbench_like_suite,
    random_csp_hypergraph,
    triangle_cascade,
)

#: The two bounds modes under comparison (clique-only sits between).
MODES = ("portfolio", "none")


def _e21_dense() -> list[tuple]:
    return [
        ("K7", clique(7)),
        ("csp(9,16)", random_csp_hypergraph(9, 16, arity=3, rng=random.Random(3))),
        ("csp(10,18)", random_csp_hypergraph(10, 18, arity=3, rng=random.Random(4))),
        ("C12", cycle(12)),
        ("C14", cycle(14)),
        ("K5", clique(5)),
        ("K6", clique(6)),
        ("C9", cycle(9)),
        ("grid(3,3)", grid(3, 3)),
        ("tri4", triangle_cascade(4)),
    ]


def build_requests(corpus: str = "full") -> list[BatchRequest]:
    """The ghw request list for one named corpus."""
    if corpus == "full":
        suite = hyperbench_like_suite(seed=0, n_cq=20, n_csp=6)
        named = [(f"hb{i:02d}", h) for i, h in enumerate(suite)]
        named += _e21_dense()
    elif corpus == "smoke":
        suite = hyperbench_like_suite(seed=0, n_cq=6, n_csp=2)
        named = [(f"hb{i:02d}", h) for i, h in enumerate(suite)]
        named += [("K5", clique(5)), ("tri3", triangle_cascade(3))]
    else:
        raise ValueError(f"unknown corpus {corpus!r}")
    return [BatchRequest(h, "ghw", label=label) for label, h in named]


def run_mode(requests, bounds: str, jobs: int):
    """One timed ``solve_many`` pass from cold caches."""
    engine.clear_context_registry()
    start = time.perf_counter()
    results = solve_many(requests, jobs=jobs, bounds=bounds)
    elapsed = time.perf_counter() - start
    widths = []
    for request, handle in zip(requests, results):
        assert handle.ok, f"bounds={bounds}/{request.label}: {handle.error!r}"
        widths.append(handle.value[0])
    return widths, elapsed, results[0].stats


def collapse(jobs: int = 1, corpus: str = "full") -> dict:
    """Run the corpus with and without the bounds pre-pass.

    Returns a ``{"metrics": ..., "timings": ...}`` report (the shape
    ``tools/record_bench.py`` records as ``BENCH_E22.json``) after
    asserting that both modes return identical widths on every
    instance.
    """
    requests = build_requests(corpus)
    widths, seconds, stats = {}, {}, {}
    for mode in MODES:
        widths[mode], seconds[mode], stats[mode] = run_mode(
            requests, mode, jobs
        )
    for request, on_w, off_w in zip(
        requests, widths["portfolio"], widths["none"]
    ):
        assert on_w == off_w, (
            f"{request.label}: bounds=portfolio says {on_w}, "
            f"bounds=none says {off_w}"
        )
    on, off = stats["portfolio"], stats["none"]
    return {
        "metrics": {
            "corpus": corpus,
            "jobs": jobs,
            "requests": len(requests),
            "blocks": on.blocks,
            "ghw_histogram": {
                str(w): widths["none"].count(w)
                for w in sorted(set(widths["none"]))
            },
            "tasks": {
                mode: {
                    "run": stats[mode].tasks_run,
                    "cancelled": stats[mode].tasks_cancelled,
                }
                for mode in MODES
            },
            "bounds": {
                "ks_pruned": on.bounds_ks_pruned,
                "checks_avoided": on.bounds_checks_avoided,
                "blocks_decided": on.bounds_blocks_decided,
                "anytime_answers": on.anytime_answers,
            },
            "task_reduction": round(
                off.tasks_run / max(1, on.tasks_run), 2
            ),
        },
        "timings": {
            **{f"{mode}_seconds": round(seconds[mode], 4) for mode in MODES},
            "bounds_seconds": round(on.bounds_seconds, 4),
        },
    }


def emit_report(report: dict) -> None:
    metrics, timings = report["metrics"], report["timings"]
    emit(
        f"E22 / bounds pre-pass collapse: {metrics['requests']} ghw "
        f"requests, {metrics['blocks']} blocks "
        f"({metrics['corpus']} corpus, jobs={metrics['jobs']})",
        ["bounds mode", "exact tasks", "cancelled", "wall"],
        [
            (
                mode,
                metrics["tasks"][mode]["run"],
                metrics["tasks"][mode]["cancelled"],
                f"{timings[f'{mode}_seconds']:.3f}s",
            )
            for mode in MODES
        ],
    )
    bounds = metrics["bounds"]
    emit(
        f"E22 / pre-pass effect ({metrics['task_reduction']}x fewer "
        f"exact tasks, identical widths)",
        ["counter", "value"],
        [
            ("blocks decided by bounds", bounds["blocks_decided"]),
            ("k-values pruned", bounds["ks_pruned"]),
            ("exact checks avoided", bounds["checks_avoided"]),
            ("anytime answers", bounds["anytime_answers"]),
            ("bounds pass wall", f"{timings['bounds_seconds']:.3f}s"),
        ],
    )


def _reduction_floor(corpus: str) -> float:
    return 2.0 if corpus == "full" else 1.5


def test_e22_bounds_collapse(benchmark):
    report = benchmark.pedantic(
        lambda: collapse(jobs=1, corpus="full"), rounds=1, iterations=1
    )
    metrics = report["metrics"]
    assert metrics["task_reduction"] >= _reduction_floor("full"), (
        f"bounds pre-pass only cut exact tasks "
        f"{metrics['task_reduction']}x (< 2x): "
        f"{metrics['tasks']['none']['run']} -> "
        f"{metrics['tasks']['portfolio']['run']}"
    )
    assert metrics["bounds"]["blocks_decided"] > 0
    emit_report(report)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--corpus", choices=("full", "smoke"), default="full"
    )
    args = parser.parse_args()
    report = collapse(jobs=args.jobs, corpus=args.corpus)
    emit_report(report)
    metrics = report["metrics"]
    floor = _reduction_floor(args.corpus)
    assert metrics["task_reduction"] >= floor, (
        f"bounds pre-pass only cut exact tasks "
        f"{metrics['task_reduction']}x (< {floor}x)"
    )
    print(
        f"\nOK: identical widths; {metrics['task_reduction']}x fewer "
        f"exact Check tasks with the bounds pre-pass"
    )

#!/usr/bin/env python
"""Record benchmark perf baselines as ``BENCH_*.json`` in the repo root.

The ROADMAP asked for checked-in baselines so re-anchors can see the
speed trajectory, not just benchmark prose.  This regenerator runs the
benchmark workloads in-process and writes one JSON file per benchmark:

* ``BENCH_E12.json``  — the PTAAS guarantees (per-instance widths,
  gaps, iteration counts) and the engine-cache LP-solve reduction;
* ``BENCH_E19b.json`` — batched serving vs one-at-a-time (answer
  parity, scheduler counters, speedup), with a ``remote`` section
  (E19r) comparing ``executor="remote"`` (a two-worker loopback TCP
  fleet) against the local executors;
* ``BENCH_E21.json``  — the exact engine alone with the bounds
  pre-pass off (widths equal to the elimination DP's, Check task
  counts, wall clock), when ``--only e21`` is requested (not in the
  default set);
* ``BENCH_E22.json``  — the bounds pre-pass collapse (exact Check
  tasks with vs without the pre-pass, identical widths), when
  ``--only e22`` is requested;
* ``BENCH_E23.json``  — the serve-daemon warm restart (cold vs
  restarted counters — the warm daemon must report zero LP solves and
  zero exact tasks — plus the coalescing window), when ``--only e23``
  is requested;
* ``BENCH_E24.json``  — end-to-end query serving over cached plans
  (cold vs plan-warm restarted counters — the warm daemon answers
  with zero solver work and byte-identical answers — plus the
  plan-coalescing window), when ``--only e24`` is requested.

Each file separates ``metrics`` (deterministic counters — meaningful to
diff across commits) from ``timings`` (wall-clock — machine-dependent,
informational).  Child-component order follows frozenset iteration, so
witness numbering and search counters depend on the string hash seed;
the recorder therefore re-executes itself under ``PYTHONHASHSEED=0``
and stamps ``"hash_seed": 0`` into every file.  Regenerate after
perf-relevant changes::

    python tools/record_bench.py            # E12 + E19b
    python tools/record_bench.py --only e21 # the exact engine, bounds off
    python tools/record_bench.py --only e22 # the bounds collapse
    python tools/record_bench.py --only e23 # the serve warm restart
    python tools/record_bench.py --only e24 # query serving over plans
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))


def record_e12() -> dict:
    """The E12 PTAAS rows and cache stats, counters only."""
    import time

    from bench_e12_ptaas import engine_cache_stats, ptaas_rows

    t0 = time.perf_counter()
    rows = ptaas_rows(K=3.0, eps=0.5)
    ptaas_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    cache = engine_cache_stats()
    cache_seconds = time.perf_counter() - t0
    solves = lambda s: s["lp_solves"] + s["set_cover_solves"]  # noqa: E731
    return {
        "benchmark": "E12",
        "title": "PTAAS guarantees and engine-cache LP reduction",
        "metrics": {
            "instances": [
                {
                    "instance": label,
                    "fhw": exact,
                    "ptaas_width": width,
                    "gap": gap,
                    "iterations": iters,
                    "iteration_bound": bound,
                }
                for label, exact, width, gap, iters, bound in rows
            ],
            "cache": {
                "cover_solves_cached": solves(cache["cached"]),
                "cover_solves_uncached": solves(cache["uncached"]),
                "hit_rate_cached": round(cache["cached"]["hit_rate"], 4),
            },
        },
        "timings": {
            "ptaas_seconds": round(ptaas_seconds, 4),
            "cache_comparison_seconds": round(cache_seconds, 4),
        },
    }


def record_e19b(jobs: int = 2, remote_jobs: int = 4, workers: int = 2) -> dict:
    """The E19b serving comparison and its E19r remote section.

    Counters plus the headline speedup, then the remote-executor
    comparison: fleet counters (deterministic up to scheduling) and
    the thread/process/remote wall-clocks.
    """
    from bench_e19_batch_serving import compare, compare_remote

    requests, (seq_seconds, seq_engine), (batch_seconds, stats) = compare(
        jobs=jobs
    )
    payload = {
        "benchmark": "E19b",
        "title": "batched multi-instance serving vs one-at-a-time",
        "metrics": {
            "requests": len(requests),
            "kinds": sorted({r.kind for r in requests}),
            "blocks": stats.blocks,
            "tasks_run": stats.tasks_run,
            "speculative_checks": stats.speculative_checks,
            "tasks_cancelled": stats.tasks_cancelled,
            "failures": stats.failures,
            "batched_lp_solves": stats.lp_solves,
            "sequential_lp_solves": seq_engine["lp_solves"],
            "batched_hit_rate": round(stats.hit_rate, 4),
            "jobs": jobs,
        },
        "timings": {
            "sequential_seconds": round(seq_seconds, 4),
            "batched_seconds": round(batch_seconds, 4),
            "speedup": round(seq_seconds / batch_seconds, 2),
        },
    }
    requests, timings, stats = compare_remote(
        jobs=remote_jobs, workers=workers
    )
    thread_seconds, process_seconds, remote_seconds = timings
    payload["metrics"]["remote"] = {
        "requests": len(requests),
        "jobs": remote_jobs,
        "workers": workers,
        "tasks_remote": stats.tasks_remote,
        "tasks_local_fallback": stats.tasks_local_fallback,
        "requeued_tasks": stats.requeued_tasks,
        "remote_workers": stats.remote_workers,
        "answers_identical": True,  # compare_remote asserts it
    }
    payload["timings"]["remote"] = {
        "thread_seconds": round(thread_seconds, 4),
        "process_seconds": round(process_seconds, 4),
        "remote_seconds": round(remote_seconds, 4),
        "remote_vs_process_speedup": round(
            process_seconds / remote_seconds, 2
        ),
    }
    return payload


def record_e21() -> dict:
    """The E21 exact engine alone: task counts, timing, DP parity."""
    from bench_e21_portfolio import measure

    report = measure()
    return {
        "benchmark": "E21",
        "title": "exact CheckSearch engine alone, bounds pre-pass off",
        "metrics": report["metrics"],
        "timings": report["timings"],
    }


def record_e22() -> dict:
    """The E22 bounds collapse: exact tasks with vs without the pass."""
    from bench_e22_bounds_collapse import collapse

    report = collapse()
    return {
        "benchmark": "E22",
        "title": "bounds pre-pass collapsing the exact k-search",
        "metrics": report["metrics"],
        "timings": report["timings"],
    }


def record_e23() -> dict:
    """The E23 warm restart: cold vs restarted daemon counters."""
    from bench_e23_warm_restart import warm_restart

    report = warm_restart()
    return {
        "benchmark": "E23",
        "title": "serve daemon warm restart from the persistent store",
        "metrics": report["metrics"],
        "timings": report["timings"],
    }


def record_e24() -> dict:
    """The E24 query serving: cold vs plan-warm daemon counters."""
    from bench_e24_query_serving import plan_warm_restart

    report = plan_warm_restart()
    return {
        "benchmark": "E24",
        "title": "query serving over store-cached decomposition plans",
        "metrics": report["metrics"],
        "timings": report["timings"],
    }


RECORDERS = {
    "e12": ("BENCH_E12.json", record_e12),
    "e19b": ("BENCH_E19b.json", record_e19b),
    "e21": ("BENCH_E21.json", record_e21),
    "e22": ("BENCH_E22.json", record_e22),
    "e23": ("BENCH_E23.json", record_e23),
    "e24": ("BENCH_E24.json", record_e24),
}

#: E21–E24 run multi-phase comparisons, so they are opt-in.
DEFAULT = ("e12", "e19b")

#: The string hash seed every baseline is recorded under.
HASH_SEED = "0"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        choices=sorted(RECORDERS),
        action="append",
        help="record just these benchmarks (repeatable; default: e12 e19b)",
    )
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        cli = sys.argv[1:] if argv is None else argv
        os.execve(sys.executable, [sys.executable, __file__, *cli], env)
    for key in args.only or DEFAULT:
        path, recorder = RECORDERS[key]
        payload = recorder()
        payload["hash_seed"] = int(HASH_SEED)
        target = ROOT / path
        target.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {target.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

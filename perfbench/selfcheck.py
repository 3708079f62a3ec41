"""Seed-invariance and correctness self-check of the benchmark.

Run from the repository root::

    python3 perfbench/selfcheck.py

For seeds 1 and 2 it checks, per workload, that

* the corpora are isomorphic: removing the seed's name prefix gives the
  same instances, and sorting names before or after removing it gives
  the same order;
* the canonical hashes of the two corpora are disjoint, so no request
  of one seed can hit a cache filled by the other;
* a 5-second run of each seed does the same exact work per pass: exact
  tasks and LP solves agree within 1%, and every answer is right
  (``ok_frac`` is 1.0).

Exits 1 when any check fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, load_pool, pass_jobs  # noqa: E402

TOLERANCE = 0.01
SEEDS = (1, 2)
SECONDS = 5.0


def corpus(workload, pool, seed):
    """(stripped structure, sorted-name order, canonical hashes) of a pass."""
    from repro.cqcsp import parse_cq
    from repro.hypergraph import Hypergraph

    shapes, orders, hashes = [], [], set()
    for job in pass_jobs(workload, pool, seed, "t", 0):
        cut = len(job.prefix)
        if job.is_query:
            text = job.query_text()
            hypergraph = parse_cq(text).hypergraph()
            names = sorted(set(hypergraph.vertices) | set(hypergraph.edges))
            shape = (job.entry["id"], text.replace(job.prefix, ""))
        else:
            edges = job.edges()
            hypergraph = Hypergraph(edges)
            names = sorted(set(edges) | {v for vs in edges.values() for v in vs})
            shape = (job.entry["id"], tuple(
                (e[cut:], tuple(sorted(v[cut:] for v in vs)))
                for e, vs in sorted(edges.items())
            ))
        shapes.append(shape)
        orders.append((job.entry["id"], tuple(n[cut:] for n in names)))
        hashes.add(hypergraph.canonical_hash())
    return sorted(shapes), sorted(orders), hashes


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(abs(a), abs(b)) or a == b


def check(name: str, seeds: tuple[int, int], seconds: float) -> list[str]:
    workload = WORKLOADS[name]
    pool = load_pool(workload)
    problems = []
    (shape_a, order_a, hash_a), (shape_b, order_b, hash_b) = (
        corpus(workload, pool, s) for s in seeds
    )
    if shape_a != shape_b:
        problems.append("corpora are not isomorphic")
    if order_a != order_b:
        problems.append("sorted-name order differs")
    if hash_a & hash_b:
        problems.append(f"{len(hash_a & hash_b)} canonical hashes shared")
    results = [run.run_workload(name, s, seconds, False) for s in seeds]
    for result, seed in zip(results, seeds):
        ok_frac = result["metrics"]["ok_frac"]
        print(f"  seed {seed}: work per pass {result['work_per_pass']}, "
              f"ok_frac {ok_frac}, passes {result['passes']}")
        if ok_frac != 1.0:
            problems.append(f"seed {seed}: ok_frac {ok_frac}")
    for counter in ("tasks", "lp_solves", "requests"):
        a, b = (r["work_per_pass"][counter] for r in results)
        if not close(a, b):
            problems.append(f"{counter} per pass {a} vs {b}")
    return problems


def main() -> int:
    failed = False
    for name in WORKLOADS:
        print(f"{name}: seeds {SEEDS[0]} and {SEEDS[1]}", flush=True)
        problems = check(name, SEEDS, SECONDS)
        for problem in problems:
            print(f"  FAIL {problem}")
        if not problems:
            print("  PASS")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

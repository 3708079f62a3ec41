"""E19b — batched multi-instance serving: ``solve_many`` vs one-at-a-time.

The serving scenario behind the ROADMAP's batching item: a workload of
many width queries (HyperBench-style — mixed hw/ghw/fhw over many small
instances, with repeated query shapes, as heavy traffic produces).  Two
ways to answer it:

* **one-at-a-time** — one :mod:`repro.algorithms` function call per
  request, from cold engine caches (each serving call pays the full
  cost, the deployment model ``solve_many`` replaces);
* **batched** — one :func:`~repro.pipeline.solve_many` call: reduce and
  split for every instance up front, per-block tasks from different
  instances interleaved on one shared pool, one warm
  SearchContext/CoverOracle cache domain for the whole batch.

The assertions pin the acceptance criteria: every batched answer equals
the corresponding single-instance function answer, and the
batched run (``--jobs 2``) beats the sequential one on wall-clock.
"""

import time

from _tables import emit

from repro import engine
from repro.algorithms import (
    fractional_hypertree_width_exact,
    generalized_hypertree_width,
    hypertree_width,
)
from repro.pipeline import BatchRequest, solve_many
from repro.hypergraph.generators import (
    clique,
    cycle,
    grid,
    path_hypergraph,
    triangle_cascade,
)


def build_workload() -> list[BatchRequest]:
    """A >= 20-request mixed-measure workload with repeated shapes.

    Shapes repeat (distinct ``Hypergraph`` objects that compare equal),
    exactly as real query traffic repeats — which is what a shared warm
    cache domain amortizes.
    """
    requests: list[BatchRequest] = []

    def add(make, kind):
        h = make()
        requests.append(BatchRequest(h, kind, label=f"{h.name}:{kind}"))

    for _repeat in range(3):
        for n in (6, 7, 8):
            add(lambda n=n: cycle(n), "ghw")
        add(lambda: triangle_cascade(3), "hw")
        add(lambda: triangle_cascade(4), "ghw")
        add(lambda: grid(3, 3), "ghw")
        add(lambda: clique(5), "fhw")
        add(lambda: clique(6), "fhw")
        add(lambda: path_hypergraph(6, 3, 1), "ghw")
        add(lambda: grid(2, 4), "hw")
        add(lambda: cycle(9), "fhw")
    return requests


def solve_one(request: BatchRequest):
    """The single-instance function answer for one request."""
    solve = {
        "hw": hypertree_width,
        "ghw": generalized_hypertree_width,
        "fhw": fractional_hypertree_width_exact,
    }[request.kind]
    return solve(request.hypergraph, **dict(request.params))


def run_sequential(requests) -> tuple[list, float, dict]:
    """One-at-a-time serving: cold caches per call, like isolated calls."""
    results = []
    start = time.perf_counter()
    with engine.counting() as counts:
        for request in requests:
            engine.clear_context_registry()
            results.append(solve_one(request))
    elapsed = time.perf_counter() - start
    return results, elapsed, counts.as_dict()


def run_batched(requests, jobs: int, executor: str = "thread"):
    """One ``solve_many`` call over the whole workload."""
    engine.clear_context_registry()
    start = time.perf_counter()
    results = solve_many(requests, jobs=jobs, executor=executor)
    elapsed = time.perf_counter() - start
    return results, elapsed, results[0].stats


def run_remote(requests, jobs: int, workers: int = 2):
    """E19r: the same batch through a loopback TCP worker fleet.

    Spawns ``workers`` real ``repro worker`` subprocesses dialing an
    ephemeral registry, runs ``solve_many(..., executor="remote")``,
    and tears the fleet down.  Returns the same triple as
    :func:`run_batched`.
    """
    from repro.dist import (
        WorkerRegistry,
        close_registry,
        set_registry,
        spawn_worker,
    )

    registry = WorkerRegistry()
    previous = set_registry(registry)
    procs = [
        spawn_worker(registry.address, jobs=2, idle_timeout=300)
        for _ in range(workers)
    ]
    try:
        if not registry.wait_for_workers(workers, timeout=60.0):
            raise RuntimeError(
                f"only {registry.worker_count()}/{workers} workers joined"
            )
        engine.clear_context_registry()
        start = time.perf_counter()
        results = solve_many(requests, jobs=jobs, executor="remote")
        elapsed = time.perf_counter() - start
        return results, elapsed, results[0].stats
    finally:
        close_registry()
        set_registry(previous)
        for proc in procs:
            proc.kill()
            proc.wait(timeout=10)


def compare(jobs: int = 2):
    requests = build_workload()
    assert len(requests) >= 20, "acceptance: >= 20-instance workload"
    assert {r.kind for r in requests} >= {"hw", "ghw", "fhw"}

    sequential, seq_seconds, seq_engine = run_sequential(requests)
    batched, batch_seconds, batch_stats = run_batched(requests, jobs)

    for request, single, handle in zip(requests, sequential, batched):
        assert handle.ok, f"{request.label}: {handle.error!r}"
        single_width, _w = single
        batch_width, _w = handle.value
        assert abs(single_width - batch_width) < 1e-9, (
            f"{request.label}: sequential={single_width} "
            f"batched={batch_width}"
        )
    return (
        requests,
        (seq_seconds, seq_engine),
        (batch_seconds, batch_stats),
    )


def compare_remote(jobs: int = 4, workers: int = 2):
    """E19r: ``executor="remote"`` vs the local executors, same answers.

    Runs the full E19b workload three ways — thread pool, process pool
    (the local multi-process baseline a worker fleet must not lose to)
    and a two-worker loopback fleet — and asserts every width is
    identical across all three.
    """
    requests = build_workload()
    thread_results, thread_seconds, _ = run_batched(requests, jobs, "thread")
    process_results, process_seconds, _ = run_batched(
        requests, jobs, "process"
    )
    remote_results, remote_seconds, remote_stats = run_remote(
        requests, jobs, workers
    )
    for request, t, p, r in zip(
        requests, thread_results, process_results, remote_results
    ):
        assert t.ok and p.ok and r.ok, (
            f"{request.label}: {t.error!r} / {p.error!r} / {r.error!r}"
        )
        assert t.value[0] == p.value[0] == r.value[0], (
            f"{request.label}: thread={t.value[0]} "
            f"process={p.value[0]} remote={r.value[0]}"
        )
    assert remote_stats.tasks_remote > 0, "fleet never received a task"
    assert remote_stats.requeued_tasks == 0, "no worker died in this run"
    return (
        requests,
        (thread_seconds, process_seconds, remote_seconds),
        remote_stats,
    )


def emit_remote_report(requests, timings, remote_stats, jobs, workers):
    thread_seconds, process_seconds, remote_seconds = timings
    n = len(requests)
    emit(
        f"E19r / remote executor: {n} mixed requests, jobs={jobs}, "
        f"{workers} loopback workers",
        ["mode", "wall", "req/s", "vs thread"],
        [
            (
                "thread pool",
                f"{thread_seconds:.3f}s",
                f"{n / thread_seconds:.1f}",
                "1.0x",
            ),
            (
                "process pool",
                f"{process_seconds:.3f}s",
                f"{n / process_seconds:.1f}",
                f"{thread_seconds / process_seconds:.1f}x",
            ),
            (
                f"remote fleet ({workers} workers)",
                f"{remote_seconds:.3f}s",
                f"{n / remote_seconds:.1f}",
                f"{thread_seconds / remote_seconds:.1f}x",
            ),
        ],
    )
    emit(
        "E19r / fleet counters",
        ["tasks_remote", "local_fallback", "requeued", "workers_used"],
        [
            (
                remote_stats.tasks_remote,
                remote_stats.tasks_local_fallback,
                remote_stats.requeued_tasks,
                remote_stats.remote_workers,
            )
        ],
    )


def emit_report(requests, sequential, batched, jobs):
    seq_seconds, seq_engine = sequential
    batch_seconds, batch_stats = batched
    n = len(requests)
    emit(
        f"E19b / batched serving: {n} mixed requests "
        f"(hw+ghw+fhw), jobs={jobs}",
        ["mode", "wall", "req/s", "LP solves", "hit rate", "speedup"],
        [
            (
                "one-at-a-time (cold)",
                f"{seq_seconds:.3f}s",
                f"{n / seq_seconds:.1f}",
                seq_engine["lp_solves"],
                f"{seq_engine['hit_rate']:.2f}",
                "1.0x",
            ),
            (
                f"solve_many (jobs={jobs})",
                f"{batch_seconds:.3f}s",
                f"{n / batch_seconds:.1f}",
                batch_stats.lp_solves,
                f"{batch_stats.hit_rate:.2f}",
                f"{seq_seconds / batch_seconds:.1f}x",
            ),
        ],
    )
    emit(
        "E19b / batch scheduler counters",
        ["requests", "blocks", "tasks", "cancelled", "failures"],
        [
            (
                batch_stats.requests,
                batch_stats.blocks,
                batch_stats.tasks_run,
                batch_stats.tasks_cancelled,
                batch_stats.failures,
            )
        ],
    )


def test_e19b_batched_beats_sequential(benchmark):
    requests, sequential, batched = benchmark.pedantic(
        lambda: compare(jobs=2), rounds=1, iterations=1
    )
    assert batched[0] < sequential[0], (
        f"batched {batched[0]:.3f}s should beat "
        f"one-at-a-time {sequential[0]:.3f}s"
    )
    emit_report(requests, sequential, batched, jobs=2)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--executor",
        choices=["thread", "remote"],
        default="thread",
        help='"remote" runs the E19r variant against a loopback fleet',
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="loopback worker subprocesses for --executor remote",
    )
    args = parser.parse_args()
    if args.executor == "remote":
        requests, timings, remote_stats = compare_remote(
            jobs=args.jobs, workers=args.workers
        )
        emit_remote_report(
            requests, timings, remote_stats, args.jobs, args.workers
        )
        print(
            f"\nOK: executor=\"remote\" answered all {len(requests)} "
            f"requests identically to the local executors "
            f"({remote_stats.tasks_remote} tasks over "
            f"{remote_stats.remote_workers} workers)"
        )
    else:
        requests, sequential, batched = compare(jobs=args.jobs)
        emit_report(requests, sequential, batched, jobs=args.jobs)
        assert batched[0] < sequential[0], (
            f"batched {batched[0]:.3f}s should beat "
            f"one-at-a-time {sequential[0]:.3f}s"
        )
        print(
            f"\nOK: solve_many(jobs={args.jobs}) "
            f"{sequential[0] / batched[0]:.1f}x faster than one-at-a-time, "
            f"all {len(requests)} answers identical"
        )

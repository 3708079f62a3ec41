"""E23 (serving) — the always-on daemon surviving a restart warm.

``repro serve`` pairs the batch scheduler with a persistent result
store (``repro.store``): settled verdicts and stitched witnesses
outlive the process.  The claim this benchmark
pins is the serving payoff:

* a **restarted** daemon answers a repeat-heavy workload entirely from
  the store — **zero scheduler runs, zero LP solves and zero exact
  Check tasks** (stored answers are served on the event loop, so the
  scheduler/engine counters stay flat, asserted, not eyeballed) — with
  answers identical to the cold run's; cold, each unique computation
  takes one scheduler run and its repeats are such loop hits;
* **request coalescing** serves K identical concurrent requests with
  exactly ONE scheduler run (``solves`` +1, ``coalesced`` +K-1).

Phases: a cold daemon serves the trace into a fresh store; the daemon
is drained and discarded; engine caches are cleared (so nothing warm
survives in-process); a new daemon on the same store replays the
trace; finally K identical concurrent requests for a novel instance
are gated in flight to prove the single-solve coalescing window.
The true cross-process restart is pinned by ``tests/test_store.py``
and ``tests/test_serve.py``; here the store is the only state carried
over, which is the same guarantee measured end to end.

Corpora:

* **full** — a HyperBench-style suite plus dense generator instances,
  hw + ghw + fhw mixed, each request repeated 3x (real query traffic
  repeats).
* **smoke** — a small subset for CI, same assertions.

Run ``python benchmarks/bench_e23_warm_restart.py`` for the full
workload, or ``--corpus smoke`` for the CI check.
"""

import asyncio
import tempfile
import threading
import time

from _tables import emit

from repro import engine
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import (
    clique,
    cycle,
    grid,
    hyperbench_like_suite,
    triangle_cascade,
)
from repro.serve import DecompositionServer, ServeClient

#: Identical concurrent requests in the coalescing phase.
COALESCE_K = 6


def build_trace(corpus: str = "full") -> list[tuple]:
    """A repeat-heavy ``(label, hypergraph, kind)`` request trace."""
    if corpus == "full":
        suite = hyperbench_like_suite(seed=0, n_cq=10, n_csp=3)
        named = [(f"hb{i:02d}", h) for i, h in enumerate(suite)]
        named += [
            ("K5", clique(5)),
            ("C10", cycle(10)),
            ("grid(3,3)", grid(3, 3)),
            ("tri3", triangle_cascade(3)),
        ]
        kinds, repeats = ("hw", "ghw", "fhw"), 3
    elif corpus == "smoke":
        suite = hyperbench_like_suite(seed=0, n_cq=4, n_csp=1)
        named = [(f"hb{i:02d}", h) for i, h in enumerate(suite)]
        named += [("K4", clique(4)), ("C6", cycle(6))]
        kinds, repeats = ("hw", "ghw"), 2
    else:
        raise ValueError(f"unknown corpus {corpus!r}")
    unique = [
        (f"{label}/{kind}", h, kind)
        for label, h in named
        for kind in kinds
    ]
    return unique * repeats


class _LiveServer:
    """A daemon on its own loop thread, plus a client to it."""

    def __init__(self, store_dir):
        self.server = DecompositionServer(port=0, store=store_dir)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(timeout=30)
        self.client = ServeClient(
            self.server.host, self.server.port, timeout=600.0
        )

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(timeout=300)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()


def serve_trace(live: _LiveServer, trace) -> tuple[list, float]:
    """Replay the trace against a live daemon; answers + wall clock."""
    answers = []
    start = time.perf_counter()
    for label, h, kind in trace:
        response = live.client.solve(h, kind, label=label)
        assert response["ok"], f"{label}: {response}"
        answers.append(response["answer"])
    return answers, time.perf_counter() - start


def coalescing_window(live: _LiveServer, k: int = COALESCE_K) -> dict:
    """K identical concurrent requests held in flight, then released.

    Gating ``_run_batch`` makes the window deterministic: all K are in
    the pending map before the one admitted solve may finish.
    """
    release = threading.Event()
    original = live.server._run_batch

    def gated(request):
        release.wait(timeout=120)
        return original(request)

    live.server._run_batch = gated
    novel = Hypergraph(
        {f"e{i}": [f"w{i}", f"w{(i + 1) % 7}"] for i in range(7)},
        name="novel-coalesce",
    )
    before = live.server.stats.as_dict()
    results = [None] * k

    def call(i):
        results[i] = live.client.solve(novel, "ghw")

    threads = [
        threading.Thread(target=call, args=(i,), daemon=True)
        for i in range(k)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + 60
    while live.server.stats.coalesced - before["coalesced"] < k - 1:
        assert time.monotonic() < deadline, "coalescing window never filled"
        time.sleep(0.01)
    release.set()
    for t in threads:
        t.join(timeout=120)
    live.server._run_batch = original
    after = live.server.stats.as_dict()
    widths = {r["answer"]["width"] for r in results}
    assert len(widths) == 1, f"coalesced answers disagree: {widths}"
    return {
        "requests": k,
        "solves": after["solves"] - before["solves"],
        "coalesced": after["coalesced"] - before["coalesced"],
        "width": results[0]["answer"]["width"],
    }


def warm_restart(corpus: str = "full") -> dict:
    """Cold run → drain → restart on the same store → warm run.

    Returns the ``{"metrics", "timings"}`` report recorded as
    ``BENCH_E23.json``, after asserting the acceptance criteria.
    """
    trace = build_trace(corpus)
    with tempfile.TemporaryDirectory() as store_dir:
        engine.clear_context_registry()
        cold = _LiveServer(store_dir)
        cold_answers, cold_seconds = serve_trace(cold, trace)
        cold_stats = cold.server.stats.as_dict()
        cold.stop()

        # Nothing warm survives in-process: the store is the only
        # state the restarted daemon inherits.
        engine.clear_context_registry()
        warm = _LiveServer(store_dir)
        warm_answers, warm_seconds = serve_trace(warm, trace)
        warm_stats = warm.server.stats.as_dict()
        assert warm_answers == cold_answers, "restart changed an answer"
        assert warm_stats["lp_solves"] == 0, (
            f"warm daemon ran {warm_stats['lp_solves']} LP solves"
        )
        assert warm_stats["tasks_run"] == 0, (
            f"warm daemon ran {warm_stats['tasks_run']} exact Check tasks"
        )
        assert warm_stats["store_instance_hits"] == len(trace)
        assert warm_stats["solves"] == 0, (
            f"warm daemon ran {warm_stats['solves']} scheduler runs"
        )

        window = coalescing_window(warm)
        assert window["solves"] == 1, (
            f"{window['requests']} identical concurrent requests took "
            f"{window['solves']} scheduler runs (want exactly 1)"
        )
        assert window["coalesced"] == window["requests"] - 1
        warm.stop()

    return {
        "metrics": {
            "corpus": corpus,
            "trace_length": len(trace),
            "unique_computations": len(
                {(h.canonical_hash(), kind) for _, h, kind in trace}
            ),
            "cold": {
                key: cold_stats[key]
                for key in (
                    "solves",
                    "lp_solves",
                    "tasks_run",
                    "store_instance_hits",
                )
            },
            "warm": {
                key: warm_stats[key]
                for key in (
                    "solves",
                    "lp_solves",
                    "tasks_run",
                    "store_instance_hits",
                )
            },
            "coalescing": window,
        },
        "timings": {
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "speedup": round(cold_seconds / max(warm_seconds, 1e-9), 2),
        },
    }


def emit_report(report: dict) -> None:
    metrics, timings = report["metrics"], report["timings"]
    emit(
        f"E23 / warm restart: {metrics['trace_length']}-request trace, "
        f"{metrics['unique_computations']} unique computations "
        f"({metrics['corpus']} corpus)",
        ["daemon", "scheduler runs", "LP solves", "exact tasks",
         "store hits", "wall"],
        [
            (
                phase,
                metrics[phase]["solves"],
                metrics[phase]["lp_solves"],
                metrics[phase]["tasks_run"],
                metrics[phase]["store_instance_hits"],
                f"{timings[f'{phase}_seconds']:.3f}s",
            )
            for phase in ("cold", "warm")
        ],
    )
    window = metrics["coalescing"]
    emit(
        f"E23 / coalescing window ({timings['speedup']}x faster warm)",
        ["counter", "value"],
        [
            ("identical concurrent requests", window["requests"]),
            ("scheduler runs", window["solves"]),
            ("coalesced joins", window["coalesced"]),
            ("agreed width", window["width"]),
        ],
    )


def test_e23_warm_restart(benchmark):
    report = benchmark.pedantic(
        lambda: warm_restart(corpus="full"), rounds=1, iterations=1
    )
    warm = report["metrics"]["warm"]
    assert warm["lp_solves"] == 0 and warm["tasks_run"] == 0
    assert report["metrics"]["coalescing"]["solves"] == 1
    emit_report(report)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--corpus", choices=("full", "smoke"), default="full"
    )
    args = parser.parse_args()
    report = warm_restart(corpus=args.corpus)
    emit_report(report)
    metrics = report["metrics"]
    print(
        f"\nOK: restart answered {metrics['trace_length']} requests with "
        f"0 LP solves and 0 exact tasks; "
        f"{metrics['coalescing']['requests']} identical concurrent "
        f"requests -> 1 scheduler run"
    )

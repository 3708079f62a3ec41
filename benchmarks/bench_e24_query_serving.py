"""E24 (serving) — end-to-end query answering over cached plans.

``POST /query`` turns the daemon into a CQ answering service: the
query's **plan** (the ghw decomposition of its hypergraph) is the
coalesced, store-persisted computation, while Yannakakis execution
over the request's own relations runs per request.  The claims this
benchmark pins, on counters rather than timings:

* a **restarted** daemon on the same store answers every repeated
  query shape **plan-warm** — zero LP solves and zero exact Check
  tasks — with answers **byte-identical** to the cold run's;
* **plan coalescing**: K identical concurrent queries cost exactly
  one plan computation (``plans_computed`` +1, ``coalesced`` +K-1)
  while every caller still gets its own executed answer;
* **plan sharing across data**: the same query shape over different
  databases computes its plan once.

Phases: a cold daemon serves a repeat-heavy concurrent query trace
into a fresh store; the daemon is drained and discarded; engine
caches are cleared; a new daemon on the same store replays the trace;
finally K identical concurrent queries are gated in flight to prove
the single-plan coalescing window.

Corpora:

* **full** — star/chain/cycle/snowflake/Boolean-chain/biclique shapes
  over a random graph plus a hub-and-spoke graph, each request
  repeated 3x.
* **smoke** — fewer shapes and repeats for CI, same assertions.

The ``K_{3,3}`` biclique is the shape whose cold plan costs solver
work: the bounds pre-pass decides every other shape's ghw, but leaves
the biclique's open at [2, 3], so it runs one exact task.

Run ``python benchmarks/bench_e24_query_serving.py`` for the full
workload, or ``--corpus smoke`` for the CI check.
"""

import asyncio
import json
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from _tables import emit

from repro import engine
from repro.cqcsp import Atom, ConjunctiveQuery, relation_to_payload
from repro.cqcsp.workloads import (
    chain_query,
    cycle_query,
    hub_relation,
    random_graph_relation,
    snowflake_query,
    star_query,
)
from repro.serve import DecompositionServer, ServeClient

#: Identical concurrent queries in the plan-coalescing phase.
COALESCE_K = 6

#: Concurrent client threads replaying the trace.
CLIENT_THREADS = 8

_STAT_KEYS = (
    "queries",
    "query_answers",
    "plans_computed",
    "plan_store_hits",
    "lp_solves",
    "tasks_run",
)


def biclique_query(m: int, n: int) -> ConjunctiveQuery:
    """``q(a0) :- r(ai, bj)`` for all i < m, j < n: the ``K_{m,n}`` shape."""
    atoms = tuple(
        Atom("r", (f"a{i}", f"b{j}")) for i in range(m) for j in range(n)
    )
    return ConjunctiveQuery(("a0",), atoms, name=f"biclique{m}x{n}")


def build_trace(corpus: str = "full") -> list[tuple]:
    """A repeat-heavy ``(label, query_text, relations)`` query trace.

    Relations are pre-encoded payloads so every repeat posts the exact
    same bytes.  The chain shape runs over BOTH databases: same plan
    key, different answers — the sharing the plan cache exploits.
    """
    if corpus == "full":
        graph = {"r": relation_to_payload(random_graph_relation(12, 0.25, seed=7))}
        hubs = {"r": relation_to_payload(hub_relation(3, 4, seed=7))}
        shapes = [
            ("star3", star_query(3)),
            ("chain4", chain_query(4)),
            ("cycle4", cycle_query(4)),
            ("snowflake2x2", snowflake_query(2, 2)),
            ("bool-chain3", chain_query(3, boolean=True)),
            ("biclique3x3", biclique_query(3, 3)),
        ]
        repeats = 3
    elif corpus == "smoke":
        graph = {"r": relation_to_payload(random_graph_relation(9, 0.3, seed=7))}
        hubs = {"r": relation_to_payload(hub_relation(2, 3, seed=7))}
        shapes = [
            ("star3", star_query(3)),
            ("chain3", chain_query(3)),
            ("cycle4", cycle_query(4)),
            ("biclique3x3", biclique_query(3, 3)),
        ]
        repeats = 2
    else:
        raise ValueError(f"unknown corpus {corpus!r}")
    unique = [
        (f"{label}/{db_name}", str(query), db)
        for label, query in shapes
        for db_name, db in (("graph", graph), ("hubs", hubs))
        if db_name == "graph" or label.startswith("chain")
    ]
    return unique * repeats


def unique_plan_count(trace) -> int:
    """Distinct plan keys in the trace: shapes, not (shape, data) pairs."""
    return len({text for _, text, _ in trace})


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


def serve_trace(live: _LiveServer, trace) -> tuple[dict, float]:
    """Replay the trace concurrently; canonical answers + wall clock.

    Returns ``{label: serialized answer}`` after asserting every repeat
    of a label produced the identical answer bytes.
    """
    def query(entry):
        label, text, relations = entry
        response = live.client.query(text, relations, label=label)
        assert response["ok"], f"{label}: {response}"
        payload = {
            key: response[key] for key in ("width", "answers", "satisfied")
        }
        return label, json.dumps(payload, sort_keys=True)

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
        results = list(pool.map(query, trace))
    seconds = time.perf_counter() - start

    answers: dict = {}
    for label, blob in results:
        if label in answers:
            assert answers[label] == blob, f"{label}: repeats disagree"
        answers[label] = blob
    return answers, seconds


def coalescing_window(live: _LiveServer, trace, k: int = COALESCE_K) -> dict:
    """K identical concurrent queries held in flight, then released.

    Gating ``_run_plan`` makes the window deterministic: all K are in
    the pending map before the one admitted plan may finish.  Every
    caller still gets its own executed answer (``query_answers`` +K).
    """
    release = threading.Event()
    entered = threading.Event()
    original = live.server._run_plan

    def gated(query):
        entered.set()
        release.wait(timeout=120)
        return original(query)

    live.server._run_plan = gated
    # A shape absent from the trace, so the plan cannot be warm.
    novel = str(cycle_query(5))
    _, _, relations = trace[0]
    before = live.server.stats.as_dict()
    results = [None] * k

    def call(i):
        results[i] = live.client.query(novel, relations)

    threads = [
        threading.Thread(target=call, args=(i,), daemon=True)
        for i in range(k)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + 60
    while not (
        entered.is_set()
        and live.server.stats.coalesced - before["coalesced"] >= k - 1
    ):
        assert time.monotonic() < deadline, "coalescing window never filled"
        time.sleep(0.01)
    release.set()
    for t in threads:
        t.join(timeout=120)
    live.server._run_plan = original
    after = live.server.stats.as_dict()
    blobs = {json.dumps(r["answers"], sort_keys=True) for r in results}
    assert len(blobs) == 1, "coalesced queries got different answers"
    return {
        "queries": k,
        "plans_computed": after["plans_computed"] - before["plans_computed"],
        "coalesced": after["coalesced"] - before["coalesced"],
        "answers_executed": after["query_answers"] - before["query_answers"],
        "width": results[0]["width"],
    }


def plan_warm_restart(corpus: str = "full") -> dict:
    """Cold query serving → drain → restart on the same store → warm.

    Returns the ``{"metrics", "timings"}`` report recorded as
    ``BENCH_E24.json``, after asserting the acceptance criteria.
    """
    trace = build_trace(corpus)
    unique_plans = unique_plan_count(trace)
    with tempfile.TemporaryDirectory() as store_dir:
        engine.clear_context_registry()
        cold = _LiveServer(store_dir)
        cold_answers, cold_seconds = serve_trace(cold, trace)
        cold_stats = cold.server.stats.as_dict()
        cold.stop()
        cold_work = cold_stats["lp_solves"] + cold_stats["tasks_run"]
        assert cold_work > 0, "cold run should pay solver work for plans"
        assert cold_stats["plan_store_hits"] == 0
        assert cold_stats["plans_computed"] == unique_plans

        # Nothing warm survives in-process: the store is the only
        # state the restarted daemon inherits.
        engine.clear_context_registry()
        warm = _LiveServer(store_dir)
        warm_answers, warm_seconds = serve_trace(warm, trace)
        warm_stats = warm.server.stats.as_dict()
        assert warm_answers == cold_answers, "restart changed an answer"
        assert warm_stats["lp_solves"] == 0, (
            f"plan-warm daemon ran {warm_stats['lp_solves']} LP solves"
        )
        assert warm_stats["tasks_run"] == 0, (
            f"plan-warm daemon ran {warm_stats['tasks_run']} exact tasks"
        )
        assert warm_stats["plan_store_hits"] == unique_plans
        assert warm_stats["query_answers"] == len(trace)

        window = coalescing_window(warm, trace)
        assert window["plans_computed"] == 1, (
            f"{window['queries']} identical concurrent queries took "
            f"{window['plans_computed']} plan computations (want exactly 1)"
        )
        assert window["coalesced"] == window["queries"] - 1
        assert window["answers_executed"] == window["queries"]
        warm.stop()

    return {
        "metrics": {
            "corpus": corpus,
            "trace_length": len(trace),
            "unique_plans": unique_plans,
            "answers_identical": True,  # asserted above, byte-for-byte
            "cold": {key: cold_stats[key] for key in _STAT_KEYS},
            "warm": {key: warm_stats[key] for key in _STAT_KEYS},
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
        f"E24 / query serving: {metrics['trace_length']}-query trace, "
        f"{metrics['unique_plans']} unique plans "
        f"({metrics['corpus']} corpus)",
        ["daemon", "queries", "answers", "plans", "plan store hits",
         "LP solves", "exact tasks", "wall"],
        [
            (
                phase,
                metrics[phase]["queries"],
                metrics[phase]["query_answers"],
                metrics[phase]["plans_computed"],
                metrics[phase]["plan_store_hits"],
                metrics[phase]["lp_solves"],
                metrics[phase]["tasks_run"],
                f"{timings[f'{phase}_seconds']:.3f}s",
            )
            for phase in ("cold", "warm")
        ],
    )
    window = metrics["coalescing"]
    emit(
        f"E24 / plan-coalescing window ({timings['speedup']}x faster warm)",
        ["counter", "value"],
        [
            ("identical concurrent queries", window["queries"]),
            ("plan computations", window["plans_computed"]),
            ("coalesced joins", window["coalesced"]),
            ("answers executed", window["answers_executed"]),
            ("agreed plan width", window["width"]),
        ],
    )


def test_e24_query_serving(benchmark):
    report = benchmark.pedantic(
        lambda: plan_warm_restart(corpus="full"), rounds=1, iterations=1
    )
    warm = report["metrics"]["warm"]
    assert warm["lp_solves"] == 0 and warm["tasks_run"] == 0
    assert report["metrics"]["coalescing"]["plans_computed"] == 1
    emit_report(report)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--corpus", choices=("full", "smoke"), default="full"
    )
    args = parser.parse_args()
    report = plan_warm_restart(corpus=args.corpus)
    emit_report(report)
    metrics = report["metrics"]
    print(
        f"\nOK: restarted daemon answered {metrics['trace_length']} queries "
        f"plan-warm (0 LP solves, 0 exact tasks, answers byte-identical); "
        f"{metrics['coalescing']['queries']} identical concurrent queries "
        f"-> 1 plan computation"
    )

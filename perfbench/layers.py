"""Per-layer metrics and a Chrome trace from the traced daemon's spans.

The client brackets its timed phase with two requests to paths the
daemon does not serve (``MARK_START``, ``MARK_END``).  They get request
ids like any other request, so the spans of the timed phase are those
whose request id lies strictly between the two marks; no clock is
shared between the two processes.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from tracer import AGG, ARGS, END, NAME, PARENT, RID, SID, START, TID

MARK_START = "/perfbench-mark-start"
MARK_END = "/perfbench-mark-end"

#: Spans whose wall time ``trace.coverage_frac`` splits into children.
COVERED = ("pipeline.run", "cqcsp.plan", "cqcsp.execute")

#: Per-layer metrics, in report order: name -> unit.
UNITS = {
    "serve.overhead_ms_per_req": "ms",
    "serve.decode_ms_per_req": "ms",
    "serve.coalesced_per_req": "count",
    "serve.rejected_per_req": "count",
    "pipeline.run_ms_per_req": "ms",
    "pipeline.prepare_ms_per_req": "ms",
    "pipeline.bounds_ms_per_req": "ms",
    "pipeline.tasks_per_req": "count",
    "pipeline.task_ms_per_req": "ms",
    "pipeline.stitch_ms_per_req": "ms",
    "pipeline.other_ms_per_req": "ms",
    "pipeline.bounds_decided_frac": "frac",
    "engine.search_ms_per_req": "ms",
    "engine.oracle_ms_per_req": "ms",
    "engine.cover_hit_rate": "frac",
    "covers.lp_calls_per_req": "count",
    "covers.lp_ms_per_call": "ms",
    "store.open_s": "s",
    "store.lookup_ms_per_req": "ms",
    "store.hit_frac": "frac",
    "store.revalidate_ms_per_req": "ms",
    "store.appends_per_req": "count",
    "store.append_ms_per_req": "ms",
    "decomposition.validate_calls_per_req": "count",
    "decomposition.validate_ms_per_req": "ms",
    "cqcsp.plan_ms_per_req": "ms",
    "cqcsp.plan_cache_hit_frac": "frac",
    "cqcsp.build_ms_per_req": "ms",
    "cqcsp.yannakakis_ms_per_req": "ms",
    "cqcsp.cost_per_req": "count",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}

#: Chrome trace events written per run at most (the metrics use all).
TRACE_EVENT_CAP = 50_000


def load(path: Path) -> list[list]:
    return json.loads(path.read_text())["spans"]


def window(spans: list[list]) -> list[list]:
    """The spans of requests sent inside the timed phase."""
    marks = {}
    for s in spans:
        if s[NAME] == "serve.request" and s[ARGS]:
            marks.setdefault(s[ARGS]["path"], s[RID])
    lo, hi = marks.get(MARK_START), marks.get(MARK_END)
    if lo is None or hi is None:
        raise ValueError("timed-phase marks missing from the trace")
    return [s for s in spans if s[RID] is not None and lo < s[RID] < hi]


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(all_spans: list[list], client: dict) -> dict:
    """Every per-layer metric from one traced daemon's spans.

    ``client`` carries what only the client saw: ``requests``,
    ``latency_s`` (summed), ``cost`` (summed query cost),
    ``stats_delta`` (``/stats`` server counters over the timed phase),
    ``rps`` and ``untraced_rps``.
    """
    spans = window(all_spans)
    startup = [s for s in all_spans if s[RID] is None]
    n = client["requests"]
    ms = defaultdict(float)
    calls = defaultdict(int)
    agg = defaultdict(lambda: [0, 0, 0, 0])
    children = defaultdict(list)
    for s in spans:
        ms[s[NAME]] += (s[END] - s[START]) / 1e6
        calls[s[NAME]] += 1
        children[s[PARENT]].append(s)
        for name, slot in (s[AGG] or {}).items():
            for i, v in enumerate(slot):
                agg[name][i] += v

    def args_sum(name, key):
        return sum(
            (s[ARGS] or {}).get(key, 0) for s in spans if s[NAME] == name
        )

    def per_req(name):
        return ms[name] / n

    served_ms = sum(
        (s[END] - s[START]) / 1e6
        for s in spans
        if s[NAME] == "serve.request"
        and (s[ARGS] or {}).get("path") in ("/solve", "/query")
    )
    other_ns, covered_ns, covered_total = 0, 0, 0
    for s in spans:
        if s[NAME] not in COVERED:
            continue
        kids = [
            (max(c[START], s[START]), min(c[END], s[END]))
            for c in children[s[SID]]
        ]
        inside = _union_ns([k for k in kids if k[1] > k[0]])
        duration = s[END] - s[START]
        covered_ns += inside
        covered_total += duration
        if s[NAME] == "pipeline.run":
            other_ns += duration - inside
    delta = client["stats_delta"]
    oracle, lp = agg["engine.oracle"], agg["covers.lp"]
    return {
        "serve.overhead_ms_per_req": (client["latency_s"] * 1e3 - served_ms) / n,
        "serve.decode_ms_per_req": per_req("serve.decode"),
        "serve.coalesced_per_req": delta.get("coalesced", 0) / n,
        "serve.rejected_per_req": (
            delta.get("rejected_busy", 0) + delta.get("rejected_draining", 0)
        ) / n,
        "pipeline.run_ms_per_req": per_req("pipeline.run"),
        "pipeline.prepare_ms_per_req": per_req("pipeline.prepare"),
        "pipeline.bounds_ms_per_req": per_req("pipeline.bounds"),
        "pipeline.tasks_per_req": calls["pipeline.task"] / n,
        "pipeline.task_ms_per_req": per_req("pipeline.task"),
        "pipeline.stitch_ms_per_req": per_req("pipeline.stitch"),
        "pipeline.other_ms_per_req": other_ns / 1e6 / n,
        "pipeline.bounds_decided_frac": _ratio(
            args_sum("pipeline.run", "bounds_blocks_decided"),
            args_sum("pipeline.run", "blocks"),
        ),
        "engine.search_ms_per_req": per_req("engine.search"),
        "engine.oracle_ms_per_req": oracle[1] / 1e6 / n,
        "engine.cover_hit_rate": _ratio(oracle[2], oracle[2] + oracle[3]),
        "covers.lp_calls_per_req": lp[0] / n,
        "covers.lp_ms_per_call": _ratio(lp[1] / 1e6, lp[0]),
        "store.open_s": sum(
            (s[END] - s[START]) / 1e9 for s in startup if s[NAME] == "store.open"
        ),
        "store.lookup_ms_per_req": per_req("store.lookup"),
        "store.hit_frac": _ratio(
            args_sum("store.lookup", "hit"), calls["store.lookup"]
        ),
        "store.revalidate_ms_per_req": per_req("store.revalidate"),
        "store.appends_per_req": args_sum("store.append", "appended") / n,
        "store.append_ms_per_req": per_req("store.append"),
        "decomposition.validate_calls_per_req": (
            calls["decomposition.validate"] / n
        ),
        "decomposition.validate_ms_per_req": per_req("decomposition.validate"),
        "cqcsp.plan_ms_per_req": per_req("cqcsp.plan"),
        "cqcsp.plan_cache_hit_frac": _ratio(
            args_sum("cqcsp.plan", "cache_hit"), calls["cqcsp.plan"]
        ),
        "cqcsp.build_ms_per_req": per_req("cqcsp.build"),
        "cqcsp.yannakakis_ms_per_req": per_req("cqcsp.yannakakis"),
        "cqcsp.cost_per_req": client["cost"] / n,
        "trace.overhead_frac": 1.0 - _ratio(client["rps"], client["untraced_rps"]),
        "trace.coverage_frac": _ratio(covered_ns, covered_total),
    }


def write_chrome_trace(spans: list[list], path: Path) -> int:
    """Write spans as Chrome trace-event JSON (Perfetto opens it).

    Spans recorded on the event-loop thread interleave across requests,
    so their requests are spread over as many lanes as overlap.
    """
    spans = sorted(spans, key=lambda s: s[START])[:TRACE_EVENT_CAP]
    if not spans:
        path.write_text('{"traceEvents": []}\n')
        return 0
    lane_of: dict = {}
    lane_ends: list[int] = []
    for s in spans:
        if s[NAME] != "serve.request":
            continue
        free = next((i for i, end in enumerate(lane_ends) if end <= s[START]), None)
        if free is None:
            free = len(lane_ends)
            lane_ends.append(0)
        lane_ends[free] = s[END]
        lane_of[s[RID]] = free
    loop_threads = {s[TID] for s in spans if s[NAME] == "serve.request"}
    t0 = spans[0][START]
    events = []
    for s in spans:
        tid = s[TID]
        if tid in loop_threads:
            tid = 1_000_000 + lane_of.get(s[RID], 0)
        args = {"request": s[RID], "id": s[SID], "parent": s[PARENT]}
        args.update(s[ARGS] or {})
        for name, (count, ns, hits, misses) in (s[AGG] or {}).items():
            args[f"{name}.calls"] = count
            args[f"{name}.ms"] = round(ns / 1e6, 3)
            if hits or misses:
                args[f"{name}.hits"] = hits
                args[f"{name}.misses"] = misses
        events.append({
            "name": s[NAME],
            "cat": s[NAME].split(".", 1)[0],
            "ph": "X",
            "ts": (s[START] - t0) / 1e3,
            "dur": (s[END] - s[START]) / 1e3,
            "pid": 1,
            "tid": tid,
            "args": args,
        })
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return len(events)

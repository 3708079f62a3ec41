"""Benchmark of the ``repro serve`` daemon, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 25
    python3 perfbench/run.py --workload all --seconds 25            # table
    python3 perfbench/run.py --workload query-mixed --trace 1       # layers

Each run starts the daemon unmodified (shipped defaults, a fresh
``--store``) as a subprocess and drives it in a closed loop from one
client in this process through ``repro.serve.ServeClient``.  Each
figure is built from the typical latency and daemon CPU of every
request type, so the machine's hold-ups do not move it; the
whole-phase figures are printed as run metadata.
Requests come from the
structure-fixed pools of ``pools.json``; the seed only renames and
orders them (``workloads.py``).  Answers are checked after the timed
phase against pinned widths, ``repro.decomposition.validate`` and
``repro.cqcsp.evaluate.evaluate_naive``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` splits the
time into an untraced and a traced half: the traced daemon runs through
``tracer.py``, and the per-layer metrics come from its spans.  The last
line of standard output is one JSON object; lines above it that start
with ``#`` are run metadata (machine-speed calibration, sample counts,
exact work counts per pass).  See ``README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
OUT = HERE / "_out"

#: Daemon start-ups per run; ``setup_s`` is their median.
SETUP_SPAWNS = 5

#: Requests a timed phase sends at least: 110 leaves 11 beyond p90.
MIN_REQUESTS = 110

#: Quantiles of a request type's samples that stand for the type in a
#: run (README.md, Noise).  Wall-clock latency takes a low quantile,
#: which leaves out time the machine's virtual cores were held up;
#: daemon CPU time, which such hold-ups do not inflate, the median.
LATENCY_Q = 0.1
CPU_Q = 0.5

#: Iterations of the machine-speed calibration loop.
CALIBRATION_ITERS = 3_000_000

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_frac": "frac",
    "daemon_cpu_ms_per_req": "ms",
    "daemon_rss_mb": "MiB",
}


def note(text: str) -> None:
    """Print one line of run metadata."""
    print(f"# {text}", flush=True)


def calibrate() -> float:
    """Milliseconds a fixed pure-Python loop takes on this machine now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERS):
        x += i & 7
    return (time.perf_counter() - t0) * 1e3


def digest(obj) -> bytes:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def weighted_rank(pairs: list[tuple[float, int]], q: float) -> float:
    """Nearest-rank ``q`` quantile of values given as (value, count)."""
    pairs = sorted(pairs)
    rank = max(1, math.ceil(q * sum(n for _v, n in pairs)))
    seen = 0
    for value, n in pairs:
        seen += n
        if seen >= rank:
            return value
    return pairs[-1][0]


class Tally:
    """The samples of one phase; answers are kept by digest."""

    def __init__(self) -> None:
        # (latency_s, request type, daemon CPU ns when it was sent,
        #  answer key or None when the request failed)
        self.samples: list[tuple] = []
        self.bodies: dict = {}  # (entry, digest) -> answer or query rows
        self.failures: Counter = Counter()  # HTTP status -> n
        self.cost = 0


def send(client, job, tally: Tally, index: dict, cpu) -> None:
    """Send one job and record latency, daemon CPU and its answer's digest.

    A request's type is its pool entry and whether its names are fresh.
    """
    from repro.hypergraph import Hypergraph
    from repro.serve import ServeError

    entry = index[job.entry["id"]]
    kind = (entry, job.fresh)
    if job.is_query:
        args, call = (job.query_text(), job.relations()), client.query
    else:
        args, call = (Hypergraph(job.edges()), job.entry["kind"]), client.solve
    cpu0 = cpu()
    t0 = time.perf_counter()
    try:
        payload = call(*args)
    except ServeError as exc:
        payload, status = None, exc.status
    except (OSError, http.client.HTTPException):
        payload, status = None, 0
    latency = time.perf_counter() - t0
    if payload is None:
        tally.failures[status] += 1
        tally.samples.append((latency, kind, cpu0, None))
        return
    if job.is_query:
        # Rows are kept once per distinct answer; the attributes carry
        # the request's names, so they are part of the key.
        body = payload["answers"]["rows"]
        attributes = tuple(payload["answers"]["attributes"])
        tally.cost += int(payload.get("cost", 0))
    else:
        body, attributes = payload["answer"], ()
    key = digest(body)
    tally.samples.append((latency, kind, cpu0, (entry, job.prefix, key, attributes)))
    tally.bodies.setdefault((entry, key), body)


def verify(pool: list, tally: Tally, expected_rows: dict) -> set:
    """Check every distinct answer once; return the keys that are right."""
    from repro.decomposition import validate
    from repro.decomposition.io import decomposition_from_json
    from repro.hypergraph import Hypergraph
    from workloads import DKIND, EPS, Job

    bodies = tally.bodies
    keys = {key for *_rest, key in tally.samples if key is not None}
    good = set()
    for i, prefix, answer, attributes in keys:
        entry, body = pool[i], bodies[(i, answer)]
        job = Job(entry, prefix)
        if job.is_query:
            right = (
                list(attributes) == [prefix + v for v in entry["head"]]
                and len(body) == entry["answers"]
                and {tuple(r) for r in body} == expected_rows[i]
            )
        else:
            width = body.get("width")
            right = isinstance(width, (int, float)) and abs(
                width - entry["width"]
            ) <= EPS
            if right:
                try:
                    witness = decomposition_from_json(json.dumps(body["witness"]))
                    validate(Hypergraph(job.edges()), witness,
                             kind=DKIND[entry["kind"]], width=entry["width"] + EPS)
                except (ValueError, KeyError, TypeError):
                    right = False
        if right:
            good.add((i, prefix, answer, attributes))
    return good


def expected_answers(pool: list) -> dict:
    """Brute-force answers of every query entry, over its base names."""
    from repro.cqcsp import parse_cq, relation_from_payload
    from repro.cqcsp.evaluate import evaluate_naive
    from workloads import Job

    out = {}
    for i, entry in enumerate(pool):
        if "atoms" not in entry:
            continue
        job = Job(entry, "")
        database = {
            name: relation_from_payload(name, payload)
            for name, payload in job.relations().items()
        }
        out[i] = set(evaluate_naive(parse_cq(job.query_text()), database)
                     .answers.tuples)
    return out


def prefill(store: Path, pool: list, seed: int, workdir: Path) -> None:
    """Fill ``store`` with the run's warm corpus through ``repro warm``."""
    from workloads import manifest

    path = manifest(pool, seed, workdir / "corpus")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "warm", str(store), str(path), "--json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"repro warm failed: {done.stderr or done.stdout}")
    note(f"prefill {json.loads(done.stdout)}")


def mark(port: int, path: str) -> None:
    """Bracket the timed phase in the daemon's request ids (a 404)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        conn.getresponse().read()
    finally:
        conn.close()


def daemon_run(workload, pool: list, seed: int, seconds: float, workdir: Path,
               phase: str, spawns: int, store: Path | None = None,
               spans: Path | None = None, min_requests: int = 0) -> dict:
    """Start the daemon, warm it up, run the timed phase, stop it."""
    from daemon import Daemon
    from layers import MARK_END, MARK_START
    from repro.serve import ServeClient
    from workloads import pass_jobs, warmup_jobs

    index = {entry["id"]: i for i, entry in enumerate(pool)}
    setups = []
    daemon = None
    try:
        for k in range(spawns):
            run_store = store or workdir / f"store-{phase}{k}"
            daemon = Daemon(ROOT, run_store, workdir / "daemon.log",
                            tracer=spans if k == spawns - 1 else None)
            setups.append(daemon.start())
            if k < spawns - 1:
                daemon.stop()
        client = ServeClient(port=daemon.port)
        cpu = daemon.cpu_ns
        warm = Tally()
        for job in warmup_jobs(workload, pool, seed):
            send(client, job, warm, index, cpu)
        if warm.failures:
            raise RuntimeError(f"warm-up failed: {dict(warm.failures)}")
        mark(daemon.port, MARK_START)
        stats0 = client.stats()["server"]
        tally = Tally()
        passes = 0
        start = time.perf_counter()
        deadline = start + seconds
        # Whole passes until the deadline and ``min_requests`` are met.
        while (not passes or len(tally.samples) < min_requests
               or time.perf_counter() < deadline):
            for job in pass_jobs(workload, pool, seed, phase, passes):
                send(client, job, tally, index, cpu)
            passes += 1
        elapsed = time.perf_counter() - start
        cpu_end = cpu()
        stats1 = client.stats()["server"]
        mark(daemon.port, MARK_END)
        rss = daemon.hwm_mb()
    finally:
        if daemon is not None:
            daemon.stop()
    return {
        "setups": setups,
        "tally": tally,
        "passes": passes,
        "elapsed_s": elapsed,
        "cpu_end_ns": cpu_end,
        "rss_mb": rss,
        "stats_delta": {k: stats1[k] - stats0.get(k, 0) for k in stats1},
    }


def summarize(raw: dict, pool: list, expected_rows: dict) -> dict:
    """End-to-end metrics and exact work counts of one daemon run.

    Each request type (pool entry, fresh names or not) gets its typical
    latency and daemon CPU: the ``LATENCY_Q`` and ``CPU_Q`` quantiles
    of its samples.  The metrics weigh each type by its share of the
    requests sent, so a run's mix of work is the same whatever the
    machine did.  The same
    figures over every sample of the whole phase are kept as ``whole``.
    """
    tally = raw["tally"]
    samples = tally.samples
    good = verify(pool, tally, expected_rows)
    attempted = len(samples)
    ok = sum(1 for *_rest, key in samples if key in good)
    wrong = sum(1 for *_rest, key in samples if key is not None and key not in good)
    # A request's daemon CPU runs from its send to the next send (or the
    # end of the phase), so work done after answering is counted too.
    marks = [cpu for _lat, _kind, cpu, _key in samples] + [raw["cpu_end_ns"]]
    by_kind: dict = defaultdict(lambda: ([], []))
    latencies = []
    for i, (lat, kind, _cpu, key) in enumerate(samples):
        # A failed or wrong answer misses every latency limit.
        lat = lat if key in good else math.inf
        latencies.append(lat)
        by_kind[kind][0].append(lat)
        by_kind[kind][1].append(marks[i + 1] - marks[i])
    typical = [
        (nearest_rank(sorted(lats), LATENCY_Q),
         nearest_rank(sorted(cpus), CPU_Q) / 1e6, len(lats))
        for lats, cpus in by_kind.values()
    ]
    busy_s = sum(lat * n for lat, _cpu, n in typical)
    latencies.sort()
    failures = Counter(tally.failures)
    delta = raw["stats_delta"]
    passes = raw["passes"]
    whole_cpu_ms = (raw["cpu_end_ns"] - marks[0]) / 1e6
    return {
        "metrics": {
            "setup_s": statistics.median(raw["setups"]),
            "throughput_rps": ok / busy_s,
            "latency_p50_ms": weighted_rank([(t[0], t[2]) for t in typical], 0.5) * 1e3,
            "latency_p90_ms": weighted_rank([(t[0], t[2]) for t in typical], 0.9) * 1e3,
            "ok_frac": ok / attempted,
            "daemon_cpu_ms_per_req": sum(cpu * n for _lat, cpu, n in typical) / attempted,
            "daemon_rss_mb": raw["rss_mb"],
        },
        "whole": {
            "throughput_rps": ok / raw["elapsed_s"],
            "latency_p50_ms": nearest_rank(latencies, 0.5) * 1e3,
            "latency_p90_ms": nearest_rank(latencies, 0.9) * 1e3,
            "daemon_cpu_ms_per_req": whole_cpu_ms / attempted,
        },
        "types": len(typical),
        "min_type_samples": min(n for *_rest, n in typical),
        "attempted": attempted,
        "ok": ok,
        "wrong": wrong,
        "failures": dict(failures),
        "passes": passes,
        "elapsed_s": raw["elapsed_s"],
        "work_per_pass": {
            "tasks": delta.get("tasks_run", 0) / passes,
            "lp_solves": delta.get("lp_solves", 0) / passes,
            "requests": attempted / passes,
        },
        "setups": raw["setups"],
        "cost": tally.cost,
        "latency_s": sum(lat for lat, *_rest in samples),
        "stats_delta": delta,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the summary."""
    import layers
    from workloads import WORKLOADS, load_pool

    workload = WORKLOADS[name]
    pool = load_pool(workload)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        expected_rows = expected_answers(pool)
        store = None
        if workload.prefill:
            store = workdir / "store-warm"
            prefill(store, pool, seed, workdir)
        before = calibrate()
        if not trace:
            raw = daemon_run(workload, pool, seed, seconds, workdir, "t",
                             SETUP_SPAWNS, store, min_requests=MIN_REQUESTS)
            result = summarize(raw, pool, expected_rows)
            result["calibration_ms"] = (before, calibrate())
            return result
        half = max(1.0, seconds / 2)
        plain = summarize(
            daemon_run(workload, pool, seed, half, workdir, "u", 1, store),
            pool, expected_rows,
        )
        spans_file = workdir / "spans.json"
        traced = summarize(
            daemon_run(workload, pool, seed, half, workdir, "x", 1, store,
                       spans=spans_file),
            pool, expected_rows,
        )
        spans = layers.load(spans_file)
        traced["layers"] = layers.metrics(spans, {
            "requests": traced["attempted"],
            "latency_s": traced["latency_s"],
            "cost": traced["cost"],
            "stats_delta": traced["stats_delta"],
            "rps": traced["metrics"]["throughput_rps"],
            "untraced_rps": plain["metrics"]["throughput_rps"],
        })
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{name}-seed{seed}.json"
        timed = layers.window(spans)
        events = layers.write_chrome_trace(timed, trace_file)
        note(f"{name}: chrome trace {trace_file.relative_to(ROOT)} "
             f"({events} of {len(timed)} spans)")
        traced["untraced"] = plain
        traced["calibration_ms"] = (before, calibrate())
        return traced
    except BaseException:
        log = workdir / "daemon.log"
        if log.exists():
            sys.stderr.write(log.read_text()[-4000:])
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(name: str, result: dict, trace: bool) -> None:
    """Print one workload's metrics by name with their units."""
    import layers

    note(f"{name}: attempted={result['attempted']} ok={result['ok']} "
         f"wrong={result['wrong']} failures={result['failures']} "
         f"passes={result['passes']} elapsed_s={result['elapsed_s']:.2f} "
         f"request types={result['types']} "
         f"(fewest samples {result['min_type_samples']})")
    whole = " ".join(f"{m}={v:.4f}" for m, v in result["whole"].items())
    note(f"{name}: whole phase, every sample: {whole}")
    before, after = result["calibration_ms"]
    note(f"{name}: work per pass {json.dumps(result['work_per_pass'])}; "
         f"calibration_ms before={before:.1f} after={after:.1f} "
         f"(fixed loop of {CALIBRATION_ITERS} iterations)")
    note(f"{name}: setup runs {[round(s, 4) for s in result['setups']]}")
    if trace:
        plain = result["untraced"]
        note(f"{name}: per-layer (traced half) | end-to-end (untraced half)")
        rows = list(result["layers"].items())
        ends = list(plain["metrics"].items())
        for i in range(max(len(rows), len(ends))):
            left = right = ""
            if i < len(rows):
                metric, value = rows[i]
                left = f"{metric:<38}{value:>12.4f} {layers.UNITS[metric]:<6}"
            if i < len(ends):
                metric, value = ends[i]
                right = f"{metric:<24}{value:>12.4f} {END_TO_END[metric]}"
            note(f"  {left:<58}| {right}")
    else:
        for metric, value in result["metrics"].items():
            note(f"  {name:<16}{metric:<24}{value:>12.4f} {END_TO_END[metric]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for a table of every one")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from layers import UNITS
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, results[name], bool(args.trace))

    def metric_block(result):
        values = result["layers"] if args.trace else result["metrics"]
        units = UNITS if args.trace else END_TO_END
        return {m: {"value": v, "unit": units[m]} for m, v in values.items()}

    if len(names) == 1:
        metrics = metric_block(results[names[0]])
    else:
        metrics = {
            f"{name}/{m}": block
            for name in names
            for m, block in metric_block(results[name]).items()
        }
    print(json.dumps({
        "correct": all(r["wrong"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["attempted"] - r["ok"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

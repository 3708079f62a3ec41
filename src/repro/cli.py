"""Command-line interface: widths, decompositions, statistics, hardness.

Usage (also ``python -m repro``)::

    repro stats queries.hg                  # structural profile
    repro width queries.hg --kind ghw       # compute a width + witness
    repro decompose queries.hg -k 2 --json  # decomposition as JSON
    repro bounds big.hg                     # heuristic sandwich for fhw
    repro query "q(x) :- r(x, y)." --data db.json   # answer a CQ
    repro query --manifest workload.json --store cache/  # CQ workload
    repro batch manifest.json --jobs 4      # batched multi-instance solve
    repro serve --store cache/ --port 8765  # always-on solving daemon
    repro worker --connect 127.0.0.1:9876   # join a remote worker fleet
    repro warm cache/ manifest.json         # pre-populate a result store
    repro store stats cache/                # inspect a result store
    repro reduce formula.cnf                # Theorem 3.2 reduction report
    repro generate cycle 8                  # emit a family instance

Width-computing commands accept engine options: ``--backend`` selects
the LP solver (``auto``, the size-aware default, or the pinned
``scipy`` / ``purepython``), ``--cache-size``
bounds the cover-oracle LRU (0 disables caching), and ``--cache-stats``
prints LP-solve counts and cache hit rates after the command.  They
also accept pipeline options: ``--preprocess`` selects the reduce/split
stages (default ``full``; ``none`` solves the raw instance), ``--jobs``
parallelizes across biconnected blocks and candidate widths,
``--bounds`` controls the heuristic bounds pre-pass that seeds the
k-search (``portfolio`` orderings + clique/minor-width lower bound by
default;
``clique`` / ``none``), and ``--pipeline-stats`` prints the run's
:class:`~repro.pipeline.BatchStats` (per-stage counters and wall-clock).

Hypergraphs are read in the HyperBench text format
(``e1(a,b,c), e2(b,d).``); formulas in DIMACS CNF.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import engine
from .algorithms import (
    fractional_hypertree_width_exact,
    generalized_hypertree_width,
    generalized_hypertree_width_exact,
    hypertree_width,
)
from .algorithms.heuristics import width_bounds
from .algorithms.report import width_report
from .hardness import CNF, build_reduction
from .hypergraph import (
    Hypergraph,
    degree,
    intersection_width,
    is_connected,
    multi_intersection_width,
    parse_hyperbench,
    rank,
    to_hyperbench,
    vc_dimension,
)
from .hypergraph.acyclicity import is_alpha_acyclic
from .pipeline import (
    BATCH_KINDS,
    BOUNDS_MODES,
    EXECUTORS,
    PREPROCESS_MODES,
)
from .hypergraph.generators import (
    clique,
    cycle,
    grid,
    triangle_cascade,
    unbounded_support_family,
)

__all__ = ["main", "build_parser"]

_FAMILIES = {
    "clique": lambda n: clique(n),
    "cycle": lambda n: cycle(n),
    "grid": lambda n: grid(n, n),
    "triangles": lambda n: triangle_cascade(n),
    "ex5.1": lambda n: unbounded_support_family(n),
}


def _load(path: str) -> Hypergraph:
    return parse_hyperbench(Path(path).read_text(), name=Path(path).stem)


def _cmd_stats(args: argparse.Namespace) -> int:
    h = _load(args.file)
    info = {
        "name": h.name,
        "vertices": h.num_vertices,
        "edges": h.num_edges,
        "rank": rank(h),
        "degree": degree(h),
        "iwidth": intersection_width(h),
        "3-miwidth": multi_intersection_width(h, 3),
        "connected": is_connected(h),
        "alpha_acyclic": is_alpha_acyclic(h),
    }
    if h.num_vertices <= args.vc_limit:
        info["vc_dimension"] = vc_dimension(h)
    if args.json:
        print(json.dumps(info, indent=2))
    else:
        for key, value in info.items():
            print(f"{key:>14}: {value}")
    return 0


def _pipeline_options_of(args: argparse.Namespace) -> dict:
    return {
        "preprocess": getattr(args, "preprocess", None) or "full",
        "jobs": getattr(args, "jobs", None),
        "bounds": getattr(args, "bounds", None),
    }


def _compute_width(h: Hypergraph, kind: str, options: dict):
    if kind == "hw":
        return hypertree_width(h, **options)
    if kind == "ghw":
        if h.num_vertices <= 14:
            return generalized_hypertree_width_exact(h, **options)
        return generalized_hypertree_width(h, **options)
    if kind == "fhw":
        return fractional_hypertree_width_exact(h, **options)
    raise ValueError(f"unknown width kind {kind!r}")


def _cmd_width(args: argparse.Namespace) -> int:
    h = _load(args.file)
    width, decomposition = _compute_width(
        h, args.kind, _pipeline_options_of(args)
    )
    print(f"{args.kind}({h.name or args.file}) = {width}")
    if args.show:
        for nid in decomposition.preorder():
            bag = ",".join(sorted(map(str, decomposition.bag(nid))))
            cover = {
                e: round(w, 4)
                for e, w in decomposition.cover(nid).weights.items()
            }
            print(f"  {nid}: {{{bag}}} {cover}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .algorithms import generalized_hypertree_decomposition

    h = _load(args.file)
    decomposition = generalized_hypertree_decomposition(
        h, args.k, **_pipeline_options_of(args)
    )
    if decomposition is None:
        print(f"no GHD of width <= {args.k}", file=sys.stderr)
        return 1
    payload = decomposition.as_dict()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"GHD of width {decomposition.width()} with {len(decomposition)} nodes")
        for nid in decomposition.preorder():
            bag = ",".join(sorted(map(str, decomposition.bag(nid))))
            print(f"  {nid}: {{{bag}}}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    h = _load(args.file)
    report = width_report(h)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
        return 0
    print(f"{'name':>10}: {report.name}")
    print(f"{'structure':>10}: |V|={report.vertices} |E|={report.edges} "
          f"rank={report.rank} degree={report.degree}")
    print(f"{'profile':>10}: iwidth={report.iwidth} 3-miwidth={report.miwidth3} "
          f"vc={report.vc} acyclic={report.acyclic}")
    mode = "exact" if report.exact else "bracketed"
    print(f"{'widths':>10}: ({mode}) hw={report.hw} "
          f"ghw∈[{report.ghw_lower:g},{report.ghw_upper:g}] "
          f"fhw∈[{report.fhw_lower:.4g},{report.fhw_upper:.4g}]")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    h = _load(args.file)
    options = _pipeline_options_of(args)
    # The bounds command *is* the heuristic pre-pass: --bounds would be
    # circular here, so the flag is ignored for this command.
    options.pop("bounds", None)
    lower, upper, _witness = width_bounds(h, cost=args.cost, **options)
    label = "fhw" if args.cost == "fractional" else "ghw"
    print(f"{lower:.4f} <= {label}({h.name or args.file}) <= {upper:.4f}")
    return 0


def _resolve(entry, path_key: str, payload_key: str, base: Path, load):
    """Replace the path field ``path_key`` by the wire field it stands
    for: ``entry[payload_key] = load(base / entry[path_key])``.

    Exactly one of the two keys must be present.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"must be an object; got {entry!r}")
    if (path_key in entry) == (payload_key in entry):
        raise ValueError(
            f'needs exactly one of "{payload_key}" or "{path_key}"'
        )
    entry = dict(entry)
    if path_key not in entry:
        return entry
    ref = entry.pop(path_key)
    if not isinstance(ref, str):
        raise ValueError(f'needs a "{path_key}" string (a path); got {ref!r}')
    path = base / ref
    try:
        entry[payload_key] = load(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"cannot parse {path}: {exc!r}") from exc
    return entry


class _UsageError(Exception):
    """A configuration error: :func:`main` prints it and exits 2."""


def _decode_manifest(path: str, key: str, decode) -> list:
    """Decode every entry of a JSON manifest — a list of entries or an
    object with a ``key`` list — as ``decode(entry, manifest_dir)``.

    Any ``ValueError`` (the wire codec's ``ProtocolError`` included)
    becomes a :class:`_UsageError` prefixed with ``manifest entry i:``.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _UsageError(f"cannot read manifest: {exc}") from exc
    except ValueError as exc:
        raise _UsageError(f"manifest is not valid JSON: {exc}") from exc
    entries = raw.get(key) if isinstance(raw, dict) else raw
    if not isinstance(entries, list):
        raise _UsageError(
            "manifest must be a JSON list of entries or an object "
            f'with a "{key}" list'
        )
    base = Path(path).parent
    decoded = []
    for i, entry in enumerate(entries):
        try:
            decoded.append(decode(entry, base))
        except ValueError as exc:
            raise _UsageError(f"manifest entry {i}: {exc}") from exc
    return decoded


def _query_job(entry, base: Path) -> tuple:
    """One ``/query`` payload with path fields: ``"file"`` for
    ``"query"``, ``"data"`` for ``"relations"``; decodes to
    ``(query, database, label)``."""
    from .serve.protocol import query_request_from_payload

    entry = _resolve(entry, "file", "query", base, Path.read_text)
    entry = _resolve(
        entry, "data", "relations", base,
        lambda path: json.loads(path.read_text())["relations"],
    )
    query, database, label = query_request_from_payload(entry)
    return query, database, label or query.name


def _cmd_query(args: argparse.Namespace) -> int:
    """Answer CQs via decomposition plans (single query or manifest)."""
    from .cqcsp import QueryPlanner
    from .serve.protocol import query_answer_payload

    if args.manifest is not None:
        if args.query is not None or args.data is not None:
            raise _UsageError(
                "repro query: give either QUERY --data FILE or "
                "--manifest FILE, not both"
            )
        jobs = _decode_manifest(args.manifest, "queries", _query_job)
    elif args.query is None or args.data is None:
        raise _UsageError(
            "repro query: QUERY and --data FILE are required "
            "(or use --manifest FILE)"
        )
    else:
        try:
            source = "file" if Path(args.query).is_file() else "query"
            entry = {source: args.query, "data": args.data}
            jobs = [_query_job(entry, Path())]
        except (OSError, ValueError) as exc:
            raise _UsageError(str(exc)) from exc

    planner = QueryPlanner(
        args.store,
        bounds=getattr(args, "bounds", None) or "portfolio",
        preprocess=getattr(args, "preprocess", None) or "full",
        jobs=getattr(args, "jobs", None),
    )
    outcomes = []
    try:
        for query, database, label in jobs:
            try:
                plan, info = planner.plan_detailed(query)
                result = planner.execute(plan, database)
            except Exception as exc:  # per-query failure, exit 1
                outcomes.append(
                    {"label": label, "ok": False, "error": str(exc)}
                )
            else:
                outcomes.append({
                    "label": label,
                    "ok": True,
                    **query_answer_payload(result),
                    "plan_cached": info.cache_hit,
                    "plan_from_store": info.from_store,
                })
    finally:
        planner.close()
    failed = [o for o in outcomes if not o["ok"]]
    if args.json:
        print(json.dumps({"results": outcomes}, indent=2))
        return 1 if failed else 0
    for outcome in outcomes:
        if not outcome["ok"]:
            print(f"query({outcome['label']}) ERROR: {outcome['error']}")
            continue
        answers = outcome["answers"]
        plan_note = (
            "plan from store"
            if outcome["plan_from_store"]
            else "plan cached"
            if outcome["plan_cached"]
            else "plan computed"
        )
        if not answers["attributes"]:
            verdict = "true" if outcome["satisfied"] else "false"
            print(
                f"query({outcome['label']}) = {verdict} "
                f"(boolean, width {outcome['width']}, {plan_note})"
            )
            continue
        print(
            f"query({outcome['label']}): {len(answers['rows'])} answers "
            f"(width {outcome['width']}, {plan_note})"
        )
        header = ", ".join(answers["attributes"])
        print(f"  {header}")
        for row in answers["rows"]:
            print("  " + ", ".join(str(v) for v in row))
    return 1 if failed else 0


def _batch_request(entry, base: Path):
    """One ``/solve`` payload whose ``"file"`` (a ``.hg`` path) may
    stand in for ``"hypergraph"``; a bare string is ``{"file": ...}``."""
    from .serve.protocol import hypergraph_to_payload, request_from_payload

    if isinstance(entry, str):
        entry = {"file": entry}
    entry = _resolve(
        entry, "file", "hypergraph", base,
        lambda path: hypergraph_to_payload(_load(path)),
    )
    return request_from_payload(entry)


def _format_batch_result(result) -> str:
    """One human-readable line per batch request outcome."""
    request = result.request
    name = request.name
    if not result.ok:
        return f"{request.kind}({name}) ERROR: {result.error}"
    value = result.value
    if request.kind == "bounds":
        lower, upper, _witness = value
        label = "fhw" if request.params.get("cost", "fractional") == "fractional" else "ghw"
        return f"{lower:.4f} <= {label}({name}) <= {upper:.4f}"
    if request.kind.startswith("check-"):
        k = request.params.get("k")
        verdict = "yes" if value is not None else "no"
        return f"{request.kind}({name}, k={k}) = {verdict}"
    width, _witness = value
    return f"{request.kind}({name}) = {width}"


def _batch_result_dict(result) -> dict:
    """JSON-ready summary of one batch request outcome."""
    request = result.request
    info: dict = {"label": request.name, "kind": request.kind, "ok": result.ok}
    if not result.ok:
        info["error"] = str(result.error)
        return info
    value = result.value
    if request.kind == "bounds":
        info["lower"], info["upper"] = value[0], value[1]
    elif request.kind.startswith("check-"):
        info["k"] = request.params.get("k")
        info["accepted"] = value is not None
    else:
        info["width"] = value[0]
    return info


def _cmd_batch(args: argparse.Namespace) -> int:
    from .pipeline import last_batch_stats, solve_many

    requests = _decode_manifest(args.manifest, "requests", _batch_request)
    if args.executor == "remote":
        from .dist import get_registry

        registry = get_registry(listen=getattr(args, "listen", None))
        print(
            f"repro batch: worker registry on {registry.address} "
            f"({registry.worker_count()} workers connected)",
            file=sys.stderr,
        )
        wanted = getattr(args, "wait_workers", 0) or 0
        if wanted and not registry.wait_for_workers(wanted):
            raise _UsageError(
                f"repro batch: timed out waiting for {wanted} workers "
                f"({registry.worker_count()} connected)"
            )
    results = solve_many(
        requests,
        jobs=args.jobs,
        preprocess=args.preprocess or "full",
        executor=args.executor,
        bounds=getattr(args, "bounds", None) or "portfolio",
        store=getattr(args, "store", None),
    )
    stats = last_batch_stats()
    failed = [r for r in results if not r.ok]
    if args.json:
        payload = {
            "results": [_batch_result_dict(r) for r in results],
            "stats": stats.as_dict(),
        }
        print(json.dumps(payload, indent=2))
    else:
        for result in results:
            print(_format_batch_result(result))
        print(
            f"batch: {stats.requests} requests, "
            f"{stats.requests - len(failed)} ok, {len(failed)} failed, "
            f"{stats.total_seconds:.3f}s "
            f"({stats.requests_per_second:.1f} req/s)"
        )
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on decomposition daemon until interrupted."""
    import asyncio

    from .serve import DecompositionServer

    server = DecompositionServer(
        host=args.host,
        port=args.port,
        store=args.store,
        fsync=args.fsync,
        jobs=args.jobs,
        executor=getattr(args, "executor", None) or "thread",
        listen=getattr(args, "listen", None),
        bounds=getattr(args, "bounds", None) or "portfolio",
        preprocess=getattr(args, "preprocess", None) or "full",
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
    )

    async def _run() -> None:
        await server.start()
        where = (
            f"store: {server.store.path}"
            if server.store is not None
            else "no store"
        )
        if server.registry is not None:
            where += f"; workers: {server.registry.address}"
        print(
            f"repro serve: http://{server.host}:{server.port} ({where})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            # Drain before the loop dies so admitted solves still land
            # in the store — Ctrl-C loses queued work, never answers.
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("repro serve: drained and stopped", file=sys.stderr)
    finally:
        if server.registry is not None:
            from .dist import close_registry

            close_registry()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run one remote block-solve worker until shutdown or idle."""
    from .dist import WorkerClient, parse_endpoint

    try:
        host, port = parse_endpoint(args.connect)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    worker = WorkerClient(
        host,
        port,
        jobs=args.jobs,
        idle_timeout=args.idle_timeout,
    )
    print(
        f"repro worker: connecting to {host}:{port} "
        f"({worker.jobs} jobs, idle timeout "
        f"{worker.idle_timeout or 'off'})",
        file=sys.stderr,
    )
    return worker.run()


def _cmd_warm(args: argparse.Namespace) -> int:
    """Pre-populate a result store from a manifest (offline warm-up)."""
    from .pipeline import last_batch_stats, solve_many
    from .store import ResultStore

    requests = _decode_manifest(args.manifest, "requests", _batch_request)
    with ResultStore(args.store_dir, fsync=args.fsync) as store:
        results = solve_many(
            requests,
            jobs=args.jobs,
            preprocess=args.preprocess or "full",
            bounds=getattr(args, "bounds", None) or "portfolio",
            store=store,
        )
        stats = last_batch_stats()
        failed = [r for r in results if not r.ok]
        summary = {
            "requests": stats.requests,
            "failures": len(failed),
            "already_stored": stats.store_instance_hits,
            "records_appended": stats.store_records_appended,
            "store_entries": len(store),
            "seconds": round(stats.total_seconds, 3),
        }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        for result in results:
            print(_format_batch_result(result))
        print(
            f"warm: {summary['requests']} requests "
            f"({summary['already_stored']} already stored), "
            f"{summary['records_appended']} records appended, "
            f"{summary['store_entries']} entries total, "
            f"{summary['seconds']}s"
        )
    return 1 if failed else 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Inspect a result store (currently: ``repro store stats DIR``)."""
    from .store import STORE_FILENAME, ResultStore

    path = Path(args.store_dir)
    if not (path / STORE_FILENAME).exists():
        print(
            f"no result store at {path} (missing {STORE_FILENAME})",
            file=sys.stderr,
        )
        return 1
    with ResultStore(path) as store:
        info = store.stats.as_dict()
        info["path"] = str(path)
        info["records_by_type"] = store.type_counts()
    if args.json:
        print(json.dumps(info, indent=2))
    else:
        for key in (
            "path",
            "entries",
            "records_loaded",
            "records_skipped",
            "bytes_valid",
            "bytes_skipped",
        ):
            print(f"{key:>16}: {info[key]}")
        for tag, count in info["records_by_type"].items():
            print(f"{tag:>16}: {count}")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    formula = CNF.from_dimacs(Path(args.file).read_text())
    reduction = build_reduction(formula)
    h = reduction.hypergraph
    sat = formula.is_satisfiable()
    print(f"formula: {formula.num_variables} vars, {formula.num_clauses} clauses")
    print(f"reduction hypergraph: |V|={h.num_vertices} |E|={h.num_edges}")
    print(f"satisfiable: {sat}")
    ghd = reduction.verify_forward()
    print(
        "width-2 GHD:",
        f"validated, {len(ghd)} nodes" if ghd is not None else "none (unsat)",
    )
    if args.certify:
        print("Lemma 3.5 certificate:", reduction.certify_lemma_3_5())
        print("Lemma 3.6 certificate:", reduction.certify_lemma_3_6())
        print("LP equivalence:", reduction.certify_equivalence())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    maker = _FAMILIES.get(args.family)
    if maker is None:
        print(f"unknown family {args.family!r}; choose from "
              f"{sorted(_FAMILIES)}", file=sys.stderr)
        return 1
    sys.stdout.write(to_hyperbench(maker(args.n)))
    return 0


_BACKEND_HELP = (
    "LP solver backend for cover computations: auto (the default) "
    "solves bag-sized LPs on the built-in simplex and larger ones on "
    "scipy-HiGHS; scipy and purepython pin one solver for every LP"
)


def _engine_options() -> argparse.ArgumentParser:
    """Shared ``--backend`` / ``--cache-size`` / ``--cache-stats`` options."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("engine options")
    group.add_argument(
        "--backend",
        choices=engine.available_backends(),
        default=None,
        help=_BACKEND_HELP,
    )
    group.add_argument(
        "--cache-size",
        type=int,
        default=None,
        metavar="N",
        help="cover-oracle LRU capacity (0 disables caching)",
    )
    group.add_argument(
        "--cache-stats",
        action="store_true",
        help="print LP-solve counts and cache hit rates after the command",
    )
    pipeline_group = parent.add_argument_group("pipeline options")
    pipeline_group.add_argument(
        "--preprocess",
        # Single source of truth for the valid modes; the README and the
        # docs quote this flag and tests/test_docs.py pins the agreement.
        choices=list(PREPROCESS_MODES),
        default=None,
        help="reduce/split stages before solving (default: full)",
    )
    pipeline_group.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallel workers across blocks and candidate widths",
    )
    pipeline_group.add_argument(
        "--bounds",
        # Single source of truth for the bounds modes; docs/api.md and
        # docs/architecture.md quote this flag and tests/test_docs.py
        # pins the agreement.
        choices=list(BOUNDS_MODES),
        default=None,
        help=(
            "heuristic bounds pre-pass before the exact k-search: "
            "portfolio (ordering portfolio + clique/minor-width lower "
            "bound, the default), clique (lower bound only), or none"
        ),
    )
    pipeline_group.add_argument(
        "--pipeline-stats",
        action="store_true",
        help="print per-stage pipeline counters and wall-clock times",
    )
    return parent


def _apply_engine_options(args: argparse.Namespace) -> None:
    if getattr(args, "backend", None) is not None or getattr(
        args, "cache_size", None
    ) is not None:
        engine.configure(
            backend=getattr(args, "backend", None),
            cache_size=getattr(args, "cache_size", None),
        )


def _print_pipeline_stats(args: argparse.Namespace) -> None:
    """Print the last run's :class:`~repro.pipeline.BatchStats`.

    A ``batch`` command and a single width query (a one-request batch)
    report the same fields.
    """
    if not getattr(args, "pipeline_stats", False):
        return
    from .pipeline import last_batch_stats

    stats = last_batch_stats()
    if stats is None:
        print("batch stats: no batch run recorded")
        return
    print("batch stats:")
    summary = stats.as_dict()
    for key in ("kinds", "rule_counts"):
        summary[key] = (
            ",".join(f"{k}={v}" for k, v in sorted(summary[key].items()))
            or "-"
        )
    summary["block_sizes"] = (
        " ".join(f"{v}v/{e}e" for v, e in stats.block_sizes) or "-"
    )
    for key in (
        "requests",
        "kinds",
        "failures",
        "jobs",
        "executor",
        "preprocess",
        "vertices_removed",
        "edges_removed",
        "rule_counts",
        "blocks",
        "block_sizes",
        "bounds",
        "bounds_ks_pruned",
        "bounds_checks_avoided",
        "bounds_blocks_decided",
        "anytime_answers",
        "store_instance_hits",
        "store_blocks_seeded",
        "store_records_appended",
        "tasks_run",
        "speculative_checks",
        "tasks_cancelled",
        "lp_solves",
        "cache_hits",
        "cache_misses",
        "hit_rate",
    ):
        print(f"  {key:>22}: {summary[key]}")
    for stage in ("prepare", "bounds", "solve", "stitch", "total"):
        print(f"  {stage + '_seconds':>22}: {summary[stage + '_seconds']:.4f}")


def _print_engine_stats(args: argparse.Namespace, baseline: dict) -> None:
    """Print this invocation's engine counters as a delta from baseline.

    The global counters are never reset, so in-process callers (tests,
    notebooks) keep whatever they were accumulating around main().
    """
    if not getattr(args, "cache_stats", False):
        return
    current = engine.stats()
    delta = {
        key: current[key] - baseline.get(key, 0)
        for key in ("lp_solves", "set_cover_solves", "cache_hits", "cache_misses")
    }
    lookups = delta["cache_hits"] + delta["cache_misses"]
    delta["hit_rate"] = (
        round(delta["cache_hits"] / lookups, 4) if lookups else 0.0
    )
    print("engine cache stats:")
    for key, value in delta.items():
        print(f"  {key:>16}: {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hypertree decompositions: hard and easy cases (PODS'18)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    engine_options = _engine_options()

    p_stats = sub.add_parser("stats", help="structural profile of a hypergraph")
    p_stats.add_argument("file")
    p_stats.add_argument("--json", action="store_true")
    p_stats.add_argument("--vc-limit", type=int, default=20)
    p_stats.set_defaults(func=_cmd_stats)

    p_width = sub.add_parser(
        "width", help="compute hw / ghw / fhw", parents=[engine_options]
    )
    p_width.add_argument("file")
    p_width.add_argument("--kind", choices=("hw", "ghw", "fhw"), default="ghw")
    p_width.add_argument("--show", action="store_true", help="print the witness")
    p_width.set_defaults(func=_cmd_width)

    p_dec = sub.add_parser(
        "decompose", help="Check(GHD,k) with witness", parents=[engine_options]
    )
    p_dec.add_argument("file")
    p_dec.add_argument("-k", type=int, required=True)
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(func=_cmd_decompose)

    p_report = sub.add_parser(
        "report", help="full width/profile report", parents=[engine_options]
    )
    p_report.add_argument("file")
    p_report.add_argument("--json", action="store_true")
    p_report.set_defaults(func=_cmd_report)

    p_bounds = sub.add_parser(
        "bounds", help="heuristic width sandwich", parents=[engine_options]
    )
    p_bounds.add_argument("file")
    p_bounds.add_argument(
        "--cost", choices=("fractional", "integral"), default="fractional"
    )
    p_bounds.set_defaults(func=_cmd_bounds)

    p_query = sub.add_parser(
        "query",
        help="answer conjunctive queries via decomposition plans",
        description=(
            "Plan-then-execute CQ answering: the query's hypergraph is "
            "decomposed (the plan), the witness join tree drives "
            "Yannakakis over the relations, and with --store the plan "
            "persists — repeated query shapes replay it with zero "
            "solver work.  Single mode takes CQ text (or a file "
            "containing it) plus --data; --manifest runs a JSON "
            "workload of /query payloads ({query|file, relations|data, "
            "label} entries)."
        ),
        parents=[engine_options],
    )
    p_query.add_argument(
        "query",
        nargs="?",
        default=None,
        metavar="QUERY",
        help='CQ text like "q(x) :- r(x, y)." or a file containing it',
    )
    p_query.add_argument(
        "--data",
        metavar="FILE",
        default=None,
        help='relations JSON: {"relations": {name: {"attributes", "rows"}}}',
    )
    p_query.add_argument(
        "--manifest",
        metavar="FILE",
        default=None,
        help="JSON workload of query entries (instead of QUERY --data)",
    )
    p_query.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help=(
            "persistent result store directory: stored plans are "
            "replayed without solving, new plans are written back"
        ),
    )
    p_query.add_argument("--json", action="store_true")
    p_query.set_defaults(func=_cmd_query)

    p_batch = sub.add_parser(
        "batch",
        help="solve a JSON manifest of width queries as one batch",
        description=(
            "Batched multi-instance serving: reduce/split every instance "
            "up front, then interleave per-block tasks from different "
            "instances on one shared worker pool with warm engine caches. "
            f"Manifest entries take a 'kind' from {sorted(BATCH_KINDS)}."
        ),
        parents=[engine_options],
    )
    p_batch.add_argument("manifest", help="JSON manifest of width queries")
    p_batch.add_argument("--json", action="store_true")
    p_batch.add_argument(
        "--executor",
        # Single source of truth for the pool types; docs/api.md and
        # docs/architecture.md quote this flag and tests/test_docs.py
        # pins the agreement.
        choices=list(EXECUTORS),
        default="thread",
        help=(
            "worker pool type: thread (shares warm engine caches), "
            "process (GIL-free), or remote (dispatch to `repro worker` "
            "processes; see --listen)"
        ),
    )
    p_batch.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help=(
            "with --executor remote: bind the worker registry here "
            "(default: $REPRO_WORKER_LISTEN, else an ephemeral "
            "loopback port, printed to stderr)"
        ),
    )
    p_batch.add_argument(
        "--wait-workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "with --executor remote: wait for N workers to register "
            "before solving (default 0: start immediately, degrading "
            "to a local pool until workers dial in)"
        ),
    )
    p_batch.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help=(
            "persistent result store directory: stored answers are "
            "served without solving, new verdicts are written back"
        ),
    )
    p_batch.set_defaults(func=_cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="always-on solving daemon over HTTP with a persistent store",
        description=(
            "Serve width queries over HTTP (POST /solve, GET /stats, "
            "GET /healthz).  Identical concurrent requests coalesce "
            "into one scheduler run; admission control bounds in-flight "
            "work (HTTP 429 beyond it, 503 while draining); with "
            "--store, every settled verdict persists and a restarted "
            "daemon answers repeats without solving."
        ),
        parents=[engine_options],
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)
    p_serve.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persistent result store directory (omit for memory-only)",
    )
    p_serve.add_argument(
        "--fsync",
        action="store_true",
        help="fsync every appended store record (safest, slowest)",
    )
    p_serve.add_argument(
        "--max-in-flight",
        type=int,
        default=4,
        metavar="N",
        help="concurrent solves (thread-pool width, default 4)",
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=32,
        metavar="N",
        help="waiting computations beyond which requests get 429",
    )
    p_serve.add_argument(
        "--executor",
        # Same single source of truth as `repro batch --executor`.
        choices=list(EXECUTORS),
        default="thread",
        help=(
            "pool type of every scheduler run; remote makes the "
            "daemon own a worker registry (see --listen)"
        ),
    )
    p_serve.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help=(
            "with --executor remote: bind the worker registry here "
            "(default: $REPRO_WORKER_LISTEN, else an ephemeral "
            "loopback port)"
        ),
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_worker = sub.add_parser(
        "worker",
        help="remote block-solve worker that dials back to a driver",
        description=(
            "Join a worker fleet: connect to the registry of a "
            "`repro batch --executor remote` or `repro serve "
            "--executor remote` driver, execute its per-block tasks "
            "on a local pool, and exit after --idle-timeout seconds "
            "without work."
        ),
    )
    p_worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="the driver registry's endpoint",
    )
    p_worker.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="concurrent tasks this worker executes (default 1)",
    )
    p_worker.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        metavar="S",
        help=(
            "exit after S seconds without work (default 300; "
            "0 disables auto-shutdown)"
        ),
    )
    p_worker.add_argument(
        "--backend",
        choices=engine.available_backends(),
        default=None,
        help=_BACKEND_HELP,
    )
    p_worker.set_defaults(func=_cmd_worker)

    p_warm = sub.add_parser(
        "warm",
        help="pre-populate a result store from a batch manifest",
        description=(
            "Solve a manifest of width queries with a persistent store "
            "attached, so a later `repro serve --store` answers them "
            "instantly.  Already-stored answers are skipped; the run "
            "is idempotent."
        ),
        parents=[engine_options],
    )
    p_warm.add_argument("store_dir", help="result store directory")
    p_warm.add_argument("manifest", help="JSON manifest of width queries")
    p_warm.add_argument("--json", action="store_true")
    p_warm.add_argument(
        "--fsync",
        action="store_true",
        help="fsync every appended store record",
    )
    p_warm.set_defaults(func=_cmd_warm)

    p_store = sub.add_parser(
        "store",
        help="inspect a persistent result store",
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_store_stats = store_sub.add_parser(
        "stats", help="record counts and log health of a store"
    )
    p_store_stats.add_argument("store_dir", help="result store directory")
    p_store_stats.add_argument("--json", action="store_true")
    p_store_stats.set_defaults(func=_cmd_store)

    p_red = sub.add_parser("reduce", help="Theorem 3.2 reduction report")
    p_red.add_argument("file", help="DIMACS CNF file")
    p_red.add_argument("--certify", action="store_true")
    p_red.set_defaults(func=_cmd_reduce)

    p_gen = sub.add_parser("generate", help="emit a named family instance")
    p_gen.add_argument("family", help=f"one of {sorted(_FAMILIES)}")
    p_gen.add_argument("n", type=int)
    p_gen.set_defaults(func=_cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Engine flags are per-invocation: snapshot the process-global config
    # and restore it afterwards, so in-process callers (tests, notebooks)
    # are not left running on whatever backend the last command selected.
    config = engine.engine_config()
    previous = (config.backend, config.cache_size)
    baseline = engine.stats()
    _apply_engine_options(args)
    try:
        code = args.func(args)
        _print_engine_stats(args, baseline)
        _print_pipeline_stats(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        config.backend, config.cache_size = previous
    return code


if __name__ == "__main__":
    raise SystemExit(main())

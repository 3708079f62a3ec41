"""Shared table formatting for the experiment benchmarks.

Every ``bench_eXX`` module regenerates one paper artifact (table, figure,
example or quantitative lemma) and prints it in a fixed-width table so the
run log doubles as the reproduction record (EXPERIMENTS.md quotes these).
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = [
    "render_table",
    "emit",
    "emit_engine_stats",
    "measure_engine",
    "emit_pipeline_stats",
]


def render_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence]
) -> str:
    """Fixed-width table with a title rule, ready for the bench log."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = [
        "",
        f"== {title} ==",
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        sep,
    ]
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def emit(title: str, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Print a rendered table (kept separate so modules stay testable)."""
    print(render_table(title, headers, rows))


def measure_engine(work, cache_size: int | None = None) -> dict:
    """Run ``work()`` against a cold engine and return its LP/cache stats.

    Clears the shared context registry (so no caches are pre-warmed),
    optionally pins the cover-oracle cache size (0 disables caching),
    runs the thunk, and returns the engine statistics of that run —
    lp_solves, set_cover_solves, cache_hits/misses and hit_rate — for
    benchmark tables.  The previous cache size is restored afterwards.
    """
    from repro import engine

    previous = engine.engine_config().cache_size
    engine.clear_context_registry()
    if cache_size is not None:
        engine.configure(cache_size=cache_size)
    try:
        with engine.counting() as counts:
            work()
        return counts.as_dict()
    finally:
        engine.configure(cache_size=previous)
        engine.clear_context_registry()


def emit_pipeline_stats(title: str, stats_by_label: dict) -> None:
    """One row per labelled :class:`repro.pipeline.BatchStats`.

    Reports the reduce/split/solve/stitch pipeline per stage: what the
    reduction removed, how many blocks the split found, task counts and
    wall-clock per stage (prepare = reduce + split + bounds pre-pass).
    """
    headers = [
        "run",
        "V removed",
        "E removed",
        "blocks",
        "block sizes",
        "tasks",
        "prepare",
        "solve",
        "stitch",
    ]
    rows = [
        (
            label,
            s.vertices_removed,
            s.edges_removed,
            s.blocks,
            " ".join(f"{v}v/{e}e" for v, e in s.block_sizes) or "-",
            s.tasks_run,
            f"{s.prepare_seconds * 1000:.2f}ms",
            f"{s.solve_seconds * 1000:.2f}ms",
            f"{s.stitch_seconds * 1000:.2f}ms",
        )
        for label, s in stats_by_label.items()
    ]
    emit(title, headers, rows)


def emit_engine_stats(title: str, stats_by_label: dict[str, dict]) -> None:
    """Print one engine-stats row per label (e.g. cached vs uncached)."""
    headers = ["run", "LP solves", "set covers", "hits", "misses", "hit rate"]
    rows = [
        (
            label,
            s["lp_solves"],
            s["set_cover_solves"],
            s["cache_hits"],
            s["cache_misses"],
            s["hit_rate"],
        )
        for label, s in stats_by_label.items()
    ]
    emit(title, headers, rows)

"""E07 — Theorem 4.11 / Corollary 4.14: Check(GHD,k) is tractable under
the BIP/BMIP.

Two reproductions:

* correctness — on a random CQ suite, the polynomial subedge pipeline
  agrees with the exponential exact oracle at every width;
* scaling — runtime of Check(GHD,2) grows polynomially in n on 1-BIP
  families (cycles, triangle cascades) of increasing size; the printed
  series makes the trend inspectable.
"""

import time

from _tables import emit, emit_pipeline_stats

from repro.algorithms import check_ghd, generalized_hypertree_width_exact
from repro.decomposition import is_ghd
from repro.hypergraph.generators import cycle, triangle_cascade
from repro.hypergraph import intersection_width
from repro.pipeline import solve_many

import random

from repro.hypergraph.generators import random_cq_hypergraph


def agreement_rows() -> list[tuple]:
    rng = random.Random(77)
    instances = [
        ("cycle(5)", cycle(5)),
        ("grid(2,3)", __import__("repro.hypergraph.generators", fromlist=["grid"]).grid(2, 3)),
        ("triangles(2)", triangle_cascade(2)),
    ]
    for idx in range(5):
        h = random_cq_hypergraph(
            n_atoms=rng.randint(4, 7),
            max_arity=3,
            cyclicity=rng.choice([0.4, 0.9]),
            rng=random.Random(rng.randint(0, 10**9)),
        )
        if h.num_vertices <= 12:
            instances.append((f"cq#{idx}", h))
    rows = []
    for label, h in instances:
        exact, _d = generalized_hypertree_width_exact(h)
        agree = all(
            check_ghd(h, k) == (k >= exact) for k in range(1, exact + 2)
        )
        rows.append((label, h.num_vertices, h.num_edges, exact, agree))
    return rows


def scaling_rows() -> list[tuple]:
    rows = []
    for family, make in (("cycle", cycle), ("triangles", triangle_cascade)):
        sizes = (6, 10, 14) if family == "cycle" else (2, 4, 6)
        for size in sizes:
            h = make(size)
            start = time.perf_counter()
            ok = check_ghd(h, 2)
            elapsed = time.perf_counter() - start
            rows.append(
                (
                    f"{family}({size})",
                    h.num_vertices,
                    intersection_width(h),
                    ok,
                    f"{elapsed * 1000:.1f}ms",
                )
            )
    return rows


def test_e07_agreement_with_exact_oracle(benchmark):
    rows = benchmark(agreement_rows)
    assert rows and all(agree for *_x, agree in rows)
    emit(
        "E07 / Thm 4.11: subedge Check(GHD,k) vs exact oracle",
        ["instance", "|V|", "|E|", "exact ghw", "all k agree"],
        rows,
    )


def test_e07_polynomial_scaling_under_bip(benchmark):
    rows = benchmark(scaling_rows)
    assert all(ok for _i, _n, _iw, ok, _t in rows)
    emit(
        "E07 / Check(GHD,2) on 1-BIP families of growing size",
        ["instance", "|V|", "iwidth", "ghw<=2", "time"],
        rows,
    )


def pipeline_block_solve(jobs: int = 1):
    """The pipeline on a multi-block instance vs the raw solve.

    triangles(4) has 4 biconnected blocks (the triangles, glued at the
    articulation vertices t1..t3): the pipeline must solve them
    independently and stitch a witness of the same width the raw search
    (one unreduced block, bounds pre-pass off) finds on the whole
    hypergraph.
    """
    from repro.algorithms import generalized_hypertree_width

    h = triangle_cascade(4)
    (result,) = solve_many([(h, "ghw")], jobs=jobs)
    width, decomposition = result.unwrap()
    raw_width, _raw = generalized_hypertree_width(
        h, preprocess="none", bounds="none"
    )
    return h, width, raw_width, decomposition, result.stats


def test_e07_pipeline_blocks_match_raw_solve(benchmark):
    h, width, raw_width, decomposition, stats = benchmark(pipeline_block_solve)
    assert stats.blocks >= 2, "expected a multi-block benchmark instance"
    assert width == raw_width == 2
    assert is_ghd(h, decomposition, width=width)
    emit(
        "E07 / pipeline block solve on triangles(4): stitched = raw",
        ["instance", "blocks", "pipeline ghw", "raw ghw", "validates"],
        [(h.name, stats.blocks, width, raw_width, True)],
    )
    emit_pipeline_stats(
        "E07 / pipeline per-stage stats (triangles(4), ghw)",
        {"triangles(4)": stats},
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    emit("E07 agreement", ["inst", "|V|", "|E|", "ghw", "agree"], agreement_rows())
    emit("E07 scaling", ["inst", "|V|", "iw", "ok", "time"], scaling_rows())
    h, width, raw_width, _d, stats = pipeline_block_solve(jobs=args.jobs)
    emit(
        f"E07 pipeline block solve (jobs={args.jobs})",
        ["inst", "blocks", "pipeline ghw", "raw ghw"],
        [(h.name, stats.blocks, width, raw_width)],
    )
    emit_pipeline_stats(
        f"E07 pipeline per-stage stats (jobs={args.jobs})",
        {h.name: stats},
    )

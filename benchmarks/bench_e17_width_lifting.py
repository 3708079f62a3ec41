"""E17 — end of Section 3: lifting the hardness from width 2 to 2 + ℓ.

The paper sketches the lift as "add a clique of 2ℓ fresh vertices and
connect each to every old vertex".  The exact-oracle measurements here
reproduce it *and surface a subtlety the sketch glosses over*:

* **ghw shifts by exactly ℓ** on all tested bases — integral covers
  cannot split connector edges, so the fresh clique costs the full ℓ;
* **fhw shifts by exactly ℓ on some bases (triangle) but by less on
  others (C4: Δ = 0.5 at ℓ = 1)**: a connector edge {v_i, w} covers one
  fresh *and* one old vertex, and odd cycles through fresh and old
  vertices admit 1/2-weight covers that amortize the fresh cost against
  the old bag.  The same leak affects the rational window lift.

EXPERIMENTS.md discusses the consequences for the "easily extended"
remark (the reduction's own hypergraphs have enough slack that the
NP-hardness conclusion survives; a generic width-shift theorem would
need a leak-free gadget).
"""

from _tables import emit, emit_engine_stats, measure_engine

from repro.algorithms import (
    fractional_hypertree_width_exact,
    generalized_hypertree_width_exact,
)
from repro.hardness import lift_by_clique, lift_by_cycle_windows
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import cycle


def bases():
    return [
        ("triangle", Hypergraph({"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]})),
        ("C4", cycle(4)),
    ]


def integral_rows() -> list[tuple]:
    rows = []
    for label, h in bases():
        fhw0, _a = fractional_hypertree_width_exact(h)
        ghw0, _b = generalized_hypertree_width_exact(h)
        lifted = lift_by_clique(h, 1)
        fhw1, _c = fractional_hypertree_width_exact(lifted)
        ghw1, _d = generalized_hypertree_width_exact(lifted)
        rows.append(
            (
                f"{label} + K2",
                round(fhw0, 3),
                round(fhw1, 3),
                round(fhw1 - fhw0, 3),
                ghw0,
                ghw1,
                ghw1 - ghw0,
            )
        )
    return rows


def rational_rows() -> list[tuple]:
    rows = []
    for r, q in ((3, 2), (5, 3)):
        base = bases()[0][1]
        fhw0, _a = fractional_hypertree_width_exact(base)
        lifted = lift_by_cycle_windows(base, r=r, q=q)
        fhw1, _b = fractional_hypertree_width_exact(lifted)
        rows.append(
            (
                f"triangle + cyc({r},{q})",
                round(fhw0, 4),
                round(fhw1, 4),
                round(fhw1 - fhw0, 4),
                round(r / q, 4),
            )
        )
    return rows


def test_e17_integral_lift(benchmark):
    rows = benchmark(integral_rows)
    by_label = {row[0]: row for row in rows}
    for label, _f0, _f1, dfhw, _g0, _g1, dghw in rows:
        assert dghw == 1, f"{label}: Δghw = {dghw} != 1"
        assert 0 < dfhw <= 1 + 1e-6, f"{label}: Δfhw = {dfhw} out of (0, 1]"
    # The leak, reproduced exactly: triangle shifts fully, C4 by half.
    assert abs(by_label["triangle + K2"][3] - 1.0) < 1e-6
    assert abs(by_label["C4 + K2"][3] - 0.5) < 1e-6
    emit(
        "E17 / integral lift by K_2 (ℓ = 1): ghw shifts exactly, fhw leaks",
        ["instance", "fhw before", "fhw after", "Δfhw", "ghw before", "ghw after", "Δghw"],
        rows,
    )


def test_e17_rational_lift(benchmark):
    rows = benchmark(rational_rows)
    for label, _f0, _f1, delta, claimed in rows:
        assert 0 < delta <= claimed + 1e-6, (
            f"{label}: Δfhw = {delta} outside (0, r/q]"
        )
    emit(
        "E17 / rational lifts: Δfhw vs the advertised r/q",
        ["instance", "fhw before", "fhw after", "Δfhw measured", "r/q advertised"],
        rows,
    )


def engine_cache_stats() -> dict[str, dict]:
    """LP-solve counts for the E17 integral-lift workload, cached vs not.

    The elimination search memoizes bag costs per run regardless, so the
    engine cache's contribution here is the *cross-phase* sharing: the
    witness-rebuild covers and the fhw-vs-ghw passes re-read bags the
    search already solved.  (The headline >= 2x cache reduction lives in
    bench_e12's Algorithm 4 workload, where repeated Check probes on
    one hypergraph share a single oracle.)
    """
    workload = lambda: integral_rows()
    return {
        "cached": measure_engine(workload),
        "uncached": measure_engine(workload, cache_size=0),
    }


def test_e17_engine_cache_shares_across_phases(benchmark):
    stats = benchmark(engine_cache_stats)
    cached, uncached = stats["cached"], stats["uncached"]
    solves_cached = cached["lp_solves"] + cached["set_cover_solves"]
    solves_uncached = uncached["lp_solves"] + uncached["set_cover_solves"]
    assert solves_uncached > solves_cached, (
        f"cache should cut cover solves: "
        f"{solves_uncached} uncached vs {solves_cached} cached"
    )
    assert cached["hit_rate"] > 0.15
    emit_engine_stats(
        "E17 / engine cache: cover-solve counts on the integral-lift workload",
        stats,
    )


def test_e17_fresh_structure_cost(benchmark):
    """In isolation the added gadgets do cost exactly ℓ resp. r/q —
    the leak is an interaction with the old vertices, not a bug in the
    gadgets themselves."""
    from repro.covers import fractional_edge_cover_number

    def isolated_costs():
        seed = Hypergraph({"e": ["old"]})
        lifted = lift_by_cycle_windows(seed, r=5, q=2)
        fresh = lifted.induced([f"lift{i}" for i in range(1, 6)])
        windows = fresh.restrict_edges(
            [n for n in fresh.edge_names if n.startswith("liftwin")]
        )
        from repro.hypergraph.generators import clique

        return (
            fractional_edge_cover_number(windows),
            fractional_edge_cover_number(clique(4)),
        )

    window_cost, clique_cost = benchmark(isolated_costs)
    assert abs(window_cost - 2.5) < 1e-6
    assert abs(clique_cost - 2.0) < 1e-6
    emit(
        "E17 / gadget costs in isolation",
        ["gadget", "ρ*", "advertised"],
        [
            ("cyc(5,2) windows", round(window_cost, 4), "5/2"),
            ("K4 clique (ℓ=2)", round(clique_cost, 4), "2"),
        ],
    )


if __name__ == "__main__":
    emit(
        "E17 integral",
        ["inst", "f0", "f1", "Δf", "g0", "g1", "Δg"],
        integral_rows(),
    )
    emit("E17 rational", ["inst", "f0", "f1", "Δ", "r/q"], rational_rows())
    emit_engine_stats("E17 engine cache (cached vs uncached)", engine_cache_stats())

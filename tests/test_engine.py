"""Engine tests: SearchContext/CoverOracle agree with uncached computation,
LP backends agree with each other, and widths are unchanged by the refactor."""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.covers import EPS, covered_vertices, fractional_cover_of
from repro.covers import linear_program, simplex
from repro.covers.linear_program import HAVE_SCIPY, SIMPLEX_MAX_CELLS
from repro.engine import (
    AutoBackend,
    CheckSearch,
    CoverOracle,
    PurePythonSimplexBackend,
    available_backends,
    clear_context_registry,
    configure,
    counted,
    counting,
    default_backend_name,
    engine_config,
    get_backend,
    get_context,
    oracle_for,
)
from repro.hypergraph import Hypergraph, components
from repro.hypergraph.generators import clique, cycle, grid

from .strategies import hypergraphs


@st.composite
def hypergraph_and_region(draw):
    """A hypergraph plus a subset of its vertices (possibly empty)."""
    h = draw(hypergraphs())
    vertices = sorted(h.vertices, key=str)
    region = draw(st.sets(st.sampled_from(vertices)))
    return h, frozenset(region)


@st.composite
def covering_lps(draw):
    """A raw covering LP whose size straddles ``SIMPLEX_MAX_CELLS``.

    Sometimes one row is empty (infeasible) or there are no rows at all
    (optimum 0); caps below 1 can make a row infeasible too.
    """
    n_vars = draw(st.integers(4, 24))
    capped = draw(st.booleans())
    fit = SIMPLEX_MAX_CELLS // n_vars - (n_vars if capped else 0)
    n_rows = draw(st.integers(0, max(2, fit + 3)))
    member = st.integers(0, n_vars - 1)
    rows = [
        sorted(draw(st.sets(member, min_size=1, max_size=n_vars)))
        for _ in range(n_rows)
    ]
    if rows and draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, n_rows - 1))] = []
    per_var = st.lists(
        st.sampled_from([0.5, 0.99, 1.0, 2.0]), min_size=n_vars, max_size=n_vars
    )
    costs = draw(st.none() | per_var)
    caps = draw(per_var) if capped else None
    return rows, n_vars, costs, caps


def lp_cells(rows, n_vars, caps):
    return (len(rows) + len(caps or ())) * n_vars


class TestSearchContext:
    @given(hypergraph_and_region())
    @settings(max_examples=50, deadline=None)
    def test_split_matches_induced(self, hr):
        h, region = hr
        ctx = get_context(h)
        got = {ctx.vertices_in(c) for c in ctx.split(ctx.mask(region))}
        expected = (
            set(components(h.induced(region), ())) if region else set()
        )
        assert got == expected
        # Memoized second call returns the identical tuple.
        assert ctx.split(ctx.mask(region)) is ctx.split(ctx.mask(region))

    @given(hypergraphs())
    @settings(max_examples=40, deadline=None)
    def test_masks_match_hypergraph(self, h):
        ctx = get_context(h)
        names = frozenset(list(h.edge_names)[: max(1, h.num_edges // 2)])
        cover = sum(1 << ctx.edge_names.index(e) for e in names)
        assert ctx.edges_in(cover) == names
        assert ctx.vertices_in(ctx.union(cover)) == h.vertices_of(names)
        comp = frozenset(list(h.vertices)[:2])
        assert ctx.vertices_in(ctx.mask(comp)) == comp
        assert ctx.vertices_in(ctx.incident_union(ctx.mask(comp))) == (
            h.vertices_of(h.incident_edges(comp))
        )

    @given(hypergraph_and_region())
    @settings(max_examples=40, deadline=None)
    def test_frontier_matches_direct_computation(self, hr):
        h, region = hr
        ctx = get_context(h)
        parent_cover = frozenset(list(h.edge_names)[:2])
        cover = sum(1 << ctx.edge_names.index(e) for e in parent_cover)
        expected = h.vertices_of(parent_cover) & h.vertices_of(
            h.incident_edges(region)
        )
        frontier = ctx.union(cover) & ctx.incident_union(ctx.mask(region))
        assert ctx.vertices_in(frontier) == expected

    def test_components_matches_module_function(self, k4):
        """Components come out lowest bit first: the module function's order."""
        ctx = get_context(k4)
        for sep in (frozenset(), frozenset(list(k4.vertices)[:1])):
            region = ctx.mask(k4.vertices - sep)
            got = [ctx.vertices_in(c) for c in ctx.split(region)]
            assert got == components(k4, sep)

    def test_contexts_are_shared_for_equal_hypergraphs(self):
        a = Hypergraph({"e": ["x", "y"]})
        b = Hypergraph({"e": ["x", "y"]})
        assert get_context(a) is get_context(b)

    def test_bit_tables_are_built_on_first_use(self):
        clear_context_registry()
        h = Hypergraph({"e": ["x", "y"], "f": ["y", "z"]})
        ctx = get_context(h)
        oracle_for(h).fractional_cover(h.vertices)
        assert "edge_masks" not in vars(ctx)  # an oracle user pays nothing
        assert ctx.split(ctx.mask(h.vertices)) == (ctx.mask(h.vertices),)
        assert {"bit", "edge_masks", "neighbours"} <= set(vars(ctx))


class TestCoverOracle:
    @given(hypergraph_and_region())
    @settings(max_examples=50, deadline=None)
    def test_fractional_cover_agrees_with_uncached(self, hr):
        h, bag = hr
        oracle = CoverOracle(get_context(h))
        direct = fractional_cover_of(h, bag)
        via_oracle = oracle.fractional_cover(bag)
        assert (direct is None) == (via_oracle is None)
        if direct is not None:
            assert abs(direct.weight - via_oracle.weight) <= 1e-6
            assert bag <= covered_vertices(h, via_oracle)

    @given(hypergraph_and_region())
    @settings(max_examples=30, deadline=None)
    def test_restricted_cover_agrees_with_uncached(self, hr):
        h, bag = hr
        allowed = frozenset(list(h.edge_names)[: max(1, h.num_edges // 2)])
        oracle = CoverOracle(get_context(h))
        direct = fractional_cover_of(h, bag, allowed_edges=allowed)
        via_oracle = oracle.fractional_cover(bag, allowed_edges=allowed)
        assert (direct is None) == (via_oracle is None)
        if direct is not None:
            assert abs(direct.weight - via_oracle.weight) <= 1e-6

    def test_cache_hits_are_counted_and_stable(self, k4):
        oracle = CoverOracle(get_context(k4), cache_size=16)
        bag = frozenset(list(k4.vertices)[:3])
        first = oracle.fractional_cover(bag)
        assert oracle.stats.misses == 1 and oracle.stats.hits == 0
        second = oracle.fractional_cover(bag)
        assert second is first  # cached object, not a re-solve
        assert oracle.stats.hits == 1
        assert oracle.stats.lp_solves == 1

    def test_feasibility_reads_the_exact_cover(self, triangle):
        """Every budget is decided by the one cached ρ* LP of the bag."""
        oracle = CoverOracle(get_context(triangle), cache_size=16)
        bag = frozenset(triangle.vertices)
        assert oracle.cover_feasible_within(bag, 2.0)
        assert oracle.cover_feasible_within(bag, 1.5)
        assert not oracle.cover_feasible_within(bag, 1.4)
        assert oracle.fractional_weight(bag) == pytest.approx(1.5)
        assert oracle.stats.lp_solves == 1
        assert oracle.stats.misses == 1 and oracle.stats.hits == 3

    def test_cache_size_zero_disables_caching(self, k4):
        oracle = CoverOracle(get_context(k4), cache_size=0)
        bag = frozenset(list(k4.vertices)[:3])
        oracle.fractional_cover(bag)
        oracle.fractional_cover(bag)
        assert oracle.stats.lp_solves == 2
        assert oracle.stats.hits == 0

    def test_integral_cover_matches_set_cover(self, k5):
        oracle = oracle_for(k5)
        cover = oracle.integral_cover(k5.vertices)
        assert cover is not None and cover.is_integral()
        assert covered_vertices(k5, cover) == k5.vertices
        assert cover.weight == 3  # ρ(K5) = ⌈5/2⌉

    def test_capped_cover_has_no_integral_part(self, triangle):
        oracle = oracle_for(triangle)
        gamma = oracle.fractional_cover_capped(triangle.vertices)
        assert gamma is not None
        assert all(w < 1.0 for w in gamma.weights.values())
        assert abs(gamma.weight - 1.5) <= 1e-6

    def test_infeasible_bag_returns_none(self):
        h = Hypergraph({"e": ["a", "b"]}, vertices=["isolated"])
        oracle = CoverOracle(get_context(h))
        assert oracle.fractional_cover(frozenset({"isolated"})) is None


class TestBackends:
    @given(hypergraph_and_region())
    @settings(max_examples=40, deadline=None)
    def test_purepython_simplex_agrees_with_scipy(self, hr):
        pytest.importorskip("scipy")
        h, bag = hr
        ctx = get_context(h)
        covers = {
            name: CoverOracle(ctx, backend=name, cache_size=0).fractional_cover(
                bag
            )
            for name in ("auto", "scipy", "purepython")
        }
        ref = covers["scipy"]
        for name, cover in covers.items():
            assert (cover is None) == (ref is None), name
            if cover is not None:
                assert abs(cover.weight - ref.weight) <= 1e-6, name
                assert bag <= covered_vertices(h, cover), name

    @given(hypergraph_and_region())
    @settings(max_examples=25, deadline=None)
    def test_purepython_capped_agrees_with_scipy(self, hr):
        pytest.importorskip("scipy")
        h, bag = hr
        ctx = get_context(h)
        covers = {
            name: CoverOracle(
                ctx, backend=name, cache_size=0
            ).fractional_cover_capped(bag)
            for name in ("auto", "scipy", "purepython")
        }
        ref = covers["scipy"]
        for name, cover in covers.items():
            assert (cover is None) == (ref is None), name
            if cover is not None:
                assert abs(cover.weight - ref.weight) <= 1e-6, name

    @given(covering_lps())
    @settings(max_examples=120, deadline=None)
    def test_backends_agree_across_the_size_cutoff(self, lp):
        """auto, scipy and purepython agree on raw covering LPs on both
        sides of ``SIMPLEX_MAX_CELLS``, capped and uncapped."""
        rows, n_vars, costs, caps = lp
        results = {
            name: get_backend(name).solve_covering_lp(
                rows, n_vars, costs=costs, upper_bounds=caps
            )
            for name in ("auto", "scipy", "purepython")
            if name in available_backends()  # no scipy on slim installs
        }
        ref = results["purepython"]
        for name, result in results.items():
            assert result.feasible == ref.feasible, name
            if not result.feasible:
                assert result.optimal is None, name
                continue
            assert abs(result.optimal - ref.optimal) <= 1e-7, name
            weights = result.weights
            assert len(weights) == n_vars
            for row in rows:
                assert sum(weights[j] for j in row) >= 1 - 1e-7, name
            for j, w in enumerate(weights):
                assert w >= -1e-9, name
                if caps is not None:
                    assert w <= caps[j] + 1e-7, name
        if not rows:
            assert ref.optimal == 0.0
        if any(not row for row in rows):
            assert not ref.feasible

    @pytest.mark.parametrize("capped", [False, True])
    def test_auto_dispatches_on_size(self, monkeypatch, capped):
        """Simplex up to the cutoff, HiGHS above it, and the simplex at
        every size without scipy.  Both solvers are spied on, HiGHS with
        a stub, so this runs where scipy is absent too."""
        calls = []
        real_simplex = simplex.simplex_covering_lp

        def spy(solver):
            def solve(membership, n_vars, costs=None, upper_bounds=None):
                calls.append((solver, lp_cells(membership, n_vars, upper_bounds)))
                return real_simplex(membership, n_vars, costs, upper_bounds)

            return solve

        monkeypatch.setattr(simplex, "simplex_covering_lp", spy("simplex"))
        monkeypatch.setattr(linear_program, "highs_covering_lp", spy("highs"))
        n_vars = 8
        caps = [1.0] * n_vars if capped else None
        fit = SIMPLEX_MAX_CELLS // n_vars - (n_vars if capped else 0)
        auto = get_backend("auto")

        def solve(n_rows):
            rows = [[i % n_vars, (i + 1) % n_vars] for i in range(n_rows)]
            result = auto.solve_covering_lp(rows, n_vars, upper_bounds=caps)
            assert result.feasible

        monkeypatch.setattr(linear_program, "HAVE_SCIPY", True)
        for n_rows in (1, fit, fit + 1):
            solve(n_rows)
        assert [solver for solver, _ in calls] == ["simplex", "simplex", "highs"]
        assert calls[1][1] <= SIMPLEX_MAX_CELLS < calls[2][1]
        calls.clear()
        monkeypatch.setattr(linear_program, "HAVE_SCIPY", False)
        for n_rows in (fit + 1, 4 * fit):
            solve(n_rows)
        assert [solver for solver, _ in calls] == ["simplex", "simplex"]

    def test_registry_lists_both_backends(self):
        names = available_backends()
        assert "auto" in names and "purepython" in names
        assert ("scipy" in names) == HAVE_SCIPY
        assert isinstance(get_backend("purepython"), PurePythonSimplexBackend)
        assert isinstance(get_backend(), AutoBackend)
        assert default_backend_name() == "auto"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown LP backend"):
            get_backend("cplex")


class TestImportHygiene:
    SCRIPT = """
import importlib.util, sys
import repro, repro.cli, repro.serve
from repro.algorithms import fractional_hypertree_width_exact
from repro.hypergraph.generators import cycle
assert fractional_hypertree_width_exact(cycle(6))[0] == 2.0
loaded = {"scipy", "numpy"} & set(sys.modules)
assert not loaded, f"bag-sized fhw loaded {sorted(loaded)}"
if importlib.util.find_spec("scipy") is not None:
    from repro.covers.linear_program import SIMPLEX_MAX_CELLS, solve_covering_lp
    n_rows = SIMPLEX_MAX_CELLS // 8 + 1
    rows = [[i % 8, (i + 3) % 8] for i in range(n_rows)]
    assert solve_covering_lp(rows, 8).optimal == 4.0
    assert {"scipy", "numpy"} <= set(sys.modules), "large LP did not use HiGHS"
print("ok")
"""

    def test_bag_sized_lps_never_load_scipy(self):
        """Importing the package, the CLI and the daemon and solving a
        small fhw touch neither scipy nor numpy; one LP above the cutoff
        loads them (when installed)."""
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


class TestConfiguration:
    def test_configure_roundtrip(self):
        original = engine_config().cache_size
        try:
            configure(backend="purepython", cache_size=7)
            assert engine_config().backend == "purepython"
            assert engine_config().cache_size == 7
            configure(backend="auto")
            assert engine_config().backend is None
        finally:
            configure(backend="auto", cache_size=original)


class TestCounting:
    """The engine counts into the scope of the work in progress."""

    def test_nested_scopes_add_up(self, k4):
        clear_context_registry()
        oracle = oracle_for(k4)
        a, b, c, d = (
            frozenset(bag)
            for bag in combinations(sorted(k4.vertices, key=str), 3)
        )
        with counting() as outer:
            oracle.fractional_cover(a)
            with counting() as inner:
                oracle.fractional_cover(a)  # a hit
                oracle.fractional_cover(b)  # a miss: one LP
            oracle.integral_cover(c)  # a miss: one set cover
            _value, task = counted(oracle.fractional_cover, d)
        assert (inner.lp_solves, inner.hits, inner.misses) == (1, 1, 1)
        assert outer.as_dict() == {
            "lp_solves": 2,
            "set_cover_solves": 1,
            "cache_hits": 1,
            "cache_misses": 3,
            "hit_rate": 0.25,
        }
        # counted() hands its counts to the caller instead of adding
        # them to the scope around it.
        assert (task.lp_solves, task.misses) == (1, 1)
        assert oracle.stats.lp_solves == 3
        # Outside every scope only the oracle's own counters move.
        oracle.fractional_cover(frozenset(k4.vertices))
        assert oracle.stats.lp_solves == 4 and outer.lp_solves == 2


class TestWidthsUnchangedAfterRefactor:
    """The paper's example hypergraphs keep their known widths."""

    def test_triangle(self, triangle):
        from repro.algorithms import (
            fractional_hypertree_width_exact,
            generalized_hypertree_width_exact,
            hypertree_width,
        )

        assert hypertree_width(triangle)[0] == 2
        assert generalized_hypertree_width_exact(triangle)[0] == 2
        assert abs(fractional_hypertree_width_exact(triangle)[0] - 1.5) <= EPS

    def test_cycles_and_cliques(self, c6, k4):
        from repro.algorithms import (
            fractional_hypertree_width_exact,
            generalized_hypertree_width,
            hypertree_width,
        )

        assert hypertree_width(c6)[0] == 2
        assert generalized_hypertree_width(c6)[0] == 2
        assert abs(fractional_hypertree_width_exact(k4)[0] - 2.0) <= 1e-6

    def test_paper_example_4_3(self, paper_h0):
        from repro.algorithms import (
            generalized_hypertree_width_exact,
            hypertree_width,
        )

        assert hypertree_width(paper_h0)[0] == 3
        assert generalized_hypertree_width_exact(paper_h0)[0] == 2

    def test_widths_same_on_both_backends(self, triangle, c6):
        from repro.algorithms import (
            fractional_hypertree_width_exact,
            hypertree_width,
        )

        results = {}
        for backend in ("auto", "scipy", "purepython"):
            clear_context_registry()
            configure(backend=backend)
            try:
                results[backend] = (
                    hypertree_width(triangle)[0],
                    round(fractional_hypertree_width_exact(c6)[0], 6),
                )
            finally:
                configure(backend="auto")
                clear_context_registry()
        assert (
            results["auto"]
            == results["scipy"]
            == results["purepython"]
            == (2, 2.0)
        )


class TestCheckSearch:
    def test_feasibility_on_c6(self, c6):
        assert CheckSearch(c6, 2).run() is not None
        assert CheckSearch(c6, 1).run() is None

    def test_states_explored_counter(self, grid33):
        search = CheckSearch(grid33, 3)
        assert search.run() is not None
        assert search.states_explored > 0

    def test_searches_share_context_caches(self, grid33):
        clear_context_registry()
        first = CheckSearch(grid33, 3)
        first.run()
        warm = get_context(grid33).stats["hits"]
        second = CheckSearch(grid33, 3)
        assert second.context is first.context
        second.run()
        assert get_context(grid33).stats["hits"] > warm


def reference_guesses(search, component, frontier, parent_cover):
    """The plain enumerator: every ``combinations()`` tuple, then filters.

    It takes and returns the search's masks but works on the
    hypergraph's vertex and edge-name sets in between.
    """
    hg, ctx = search.hypergraph, search.context
    comp, front = ctx.vertices_in(component), ctx.vertices_in(frontier)
    target = comp | front
    candidates = sorted(
        (e for e in hg.edge_names if hg.edge(e) & target),
        key=lambda e: (-len(hg.edge(e) & target), e),
    )
    guesses = []
    for size in range(1, search.max_cover_size() + 1):
        for combo in combinations(candidates, size):
            covered = hg.vertices_of(combo)
            if not front <= covered or not covered & comp:
                continue
            cover = sum(1 << ctx.edge_names.index(e) for e in combo)
            if search.admissible(cover, component, frontier, parent_cover):
                guesses.append((cover, ctx.mask(covered)))
    return guesses


class TestGuessEnumeration:
    """The pruned enumerator yields the reference guesses, in order."""

    @staticmethod
    def assert_matches_reference(search):
        states = []
        enumerate_guesses = search._guesses

        def recording(*state):
            states.append(state)
            return enumerate_guesses(*state)

        search._guesses = recording
        witness = search.run()
        assert states
        for state in states:
            assert list(enumerate_guesses(*state)) == reference_guesses(
                search, *state
            )
        return witness

    @given(
        hypergraphs(max_vertices=10, max_edges=10, max_edge_size=5),
        st.integers(1, 3),
    )
    # The cut's max runs over the candidate at ``start`` too: a cut over
    # the later candidates only drops a guess of this instance.
    @example(Hypergraph({"a": [0], "b": [1, 2], "c": [0, 2], "d": [0]}), 3)
    @settings(max_examples=60, deadline=None)
    def test_hd_search(self, h, k):
        from repro.algorithms import HDSearch

        self.assert_matches_reference(HDSearch(h, k))

    @given(hypergraphs(max_vertices=6, max_edges=6), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_strict_fhd_search(self, h, k):
        from repro.algorithms import StrictFHDSearch

        self.assert_matches_reference(StrictFHDSearch(h, float(k), max_support=k))

    def test_exhaustive_no(self, k5):
        from repro.algorithms import HDSearch

        search = HDSearch(k5, 2)
        assert self.assert_matches_reference(search) is None
        assert search.states_explored > 1

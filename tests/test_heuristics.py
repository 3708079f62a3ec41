"""Heuristic width bounds: sound sandwiches around the exact values."""

import pytest
from hypothesis import given, settings

from repro.algorithms import (
    clique_lower_bound,
    fractional_hypertree_width_exact,
    generalized_hypertree_width_exact,
    heuristic_decomposition,
    min_degree_ordering,
    min_fill_ordering,
    minor_width_lower_bound,
    treewidth_exact,
    width_bounds,
    width_lower_bound,
)
from repro.covers import EPS
from repro.decomposition import is_fhd, is_ghd
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import clique, cycle, grid, triangle_cascade
from repro.paper_artifacts import example_4_3_hypergraph

from .strategies import hypergraphs


class TestOrderings:
    def test_orderings_are_permutations(self):
        h = grid(3, 3)
        for order in (min_degree_ordering(h), min_fill_ordering(h)):
            assert sorted(order, key=str) == sorted(h.vertices, key=str)

    def test_min_fill_optimal_on_chordal(self):
        """On a chordal instance min-fill adds no fill and is exact."""
        h = Hypergraph(
            {"e1": ["a", "b", "c"], "e2": ["b", "c", "d"], "e3": ["c", "d", "e"]}
        )
        width, d = heuristic_decomposition(h, cost="integral", ordering="min-fill")
        assert width == 1.0
        assert is_ghd(h, d, width=1)


class TestHeuristicDecomposition:
    def test_valid_and_above_exact(self):
        for h in (cycle(7), grid(3, 3), clique(5), example_4_3_hypergraph()):
            exact, _d = fractional_hypertree_width_exact(h)
            for ordering in ("min-degree", "min-fill"):
                width, d = heuristic_decomposition(h, ordering=ordering)
                assert is_fhd(h, d, width=width + EPS)
                assert width >= exact - EPS

    def test_integral_cost(self):
        h = cycle(6)
        width, d = heuristic_decomposition(h, cost="integral")
        assert is_ghd(h, d, width=width)
        assert d.is_integral()

    def test_heuristic_on_cycles(self):
        """Exact (width 2) on small cycles; on larger ones tie-breaking
        may scatter a bag, but the bound stays sound and close."""
        for n in (5, 8):
            width, _d = heuristic_decomposition(cycle(n))
            assert width == pytest.approx(2.0)
        width, _d = heuristic_decomposition(cycle(12))
        assert 2.0 - EPS <= width <= 3.0 + EPS

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            heuristic_decomposition(cycle(4), ordering="zzz")
        with pytest.raises(ValueError):
            heuristic_decomposition(cycle(4), cost="zzz")


class TestLowerBound:
    def test_exact_on_cliques(self):
        """The whole clique is a primal clique: bound = ρ* = n/2."""
        assert clique_lower_bound(clique(6)) == pytest.approx(3.0)
        assert clique_lower_bound(clique(5)) == pytest.approx(2.5)

    def test_integral_variant(self):
        assert clique_lower_bound(clique(5), cost="integral") == 3.0

    def test_sound_on_suite(self):
        for h in (cycle(7), grid(3, 3), example_4_3_hypergraph()):
            exact, _d = fractional_hypertree_width_exact(h)
            assert clique_lower_bound(h) <= exact + EPS

    def test_bad_cost(self):
        with pytest.raises(ValueError):
            clique_lower_bound(cycle(4), cost="zzz")


class TestMinorWidthBound:
    def test_known_treewidths(self):
        assert minor_width_lower_bound(clique(6)) == 5
        assert minor_width_lower_bound(cycle(9)) == 2
        assert minor_width_lower_bound(Hypergraph({"e": ["a"]})) == 0

    def test_combined_bound_divides_by_rank(self):
        # K6 has tw 5: some bag holds all 6 vertices, 3 per 3-ary edge.
        k6 = Hypergraph(
            {"a": [1, 2, 3], "b": [4, 5, 6], "c": [1, 4], "d": [2, 5],
             "e": [3, 6], "f": [1, 5], "g": [1, 6], "h": [2, 4],
             "i": [2, 6], "j": [3, 4], "k": [3, 5]}
        )
        assert minor_width_lower_bound(k6) == 5
        assert width_lower_bound(k6) == pytest.approx(2.0)
        # C9 with a 3-ary chord: (2 + 1) / 3 = 1 adds nothing.
        h = Hypergraph({**cycle(9).edges, "chord": ("v1", "v4", "v7")})
        assert width_lower_bound(h, cost="integral") == 1.0

    def test_integral_variant_rounds_up(self):
        # cycle(5): (2 + 1) / 2 = 1.5, and ghw is an integer.
        assert width_lower_bound(cycle(5)) == pytest.approx(1.5)
        assert width_lower_bound(cycle(5), cost="integral") == 2.0


@given(hypergraphs(max_vertices=9, max_edges=8, max_edge_size=3,
                   min_edge_size=2))
@settings(max_examples=25, deadline=None)
def test_minor_width_bounds_are_sound(h: Hypergraph):
    """minor-width <= tw, and the combined bound <= the exact widths
    from the raw elimination DP (no pre-pass that uses the bound)."""
    assert minor_width_lower_bound(h) <= treewidth_exact(h)
    ghw, _g = generalized_hypertree_width_exact(
        h, preprocess="none", bounds="none"
    )
    fhw, _f = fractional_hypertree_width_exact(
        h, preprocess="none", bounds="none"
    )
    assert width_lower_bound(h, cost="integral") <= ghw
    assert width_lower_bound(h) <= fhw + EPS


class TestWidthBounds:
    def test_sandwich_contains_exact(self):
        for h in (cycle(6), grid(3, 3), clique(5), triangle_cascade(3)):
            lower, upper, witness = width_bounds(h)
            exact, _d = fractional_hypertree_width_exact(h)
            assert lower - EPS <= exact <= upper + EPS
            assert is_fhd(h, witness, width=upper + EPS)

    def test_integral_sandwich(self):
        h = example_4_3_hypergraph()
        lower, upper, witness = width_bounds(h, cost="integral")
        exact, _d = generalized_hypertree_width_exact(h)
        assert lower - EPS <= exact <= upper + EPS

    def test_scales_past_exact_dp_limit(self):
        """25 vertices is beyond the 2^n oracle; heuristics still work."""
        h = grid(5, 5)
        lower, upper, witness = width_bounds(h)
        assert 1.0 <= lower <= upper
        assert is_fhd(h, witness, width=upper + EPS)


@given(hypergraphs(max_vertices=7, max_edges=6))
@settings(max_examples=20, deadline=None)
def test_sandwich_property(h: Hypergraph):
    """lower <= exact fhw <= heuristic upper, on random hypergraphs."""
    lower, upper, _witness = width_bounds(h)
    exact, _d = fractional_hypertree_width_exact(h)
    assert lower <= exact + EPS
    assert exact <= upper + EPS

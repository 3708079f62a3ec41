"""Tests for the exact elimination-ordering oracles."""

import pytest
from hypothesis import given, settings

from repro.algorithms import (
    decomposition_from_ordering,
    fractional_hypertree_width_exact,
    generalized_hypertree_width_exact,
    treewidth_exact,
    width_by_elimination,
)
from repro.covers import EPS, edge_cover_of
from repro.decomposition import is_fhd, is_ghd
from repro.engine import oracle_for
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import clique, cycle, grid, unbounded_support_family
from repro.paper_artifacts import example_4_3_hypergraph

from .strategies import hypergraphs


class TestKnownValues:
    def test_cycle_widths(self):
        c6 = cycle(6)
        assert generalized_hypertree_width_exact(c6)[0] == 2
        assert fractional_hypertree_width_exact(c6)[0] == pytest.approx(2.0)

    def test_triangle_fhw_is_1_5(self):
        t = Hypergraph({"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]})
        assert fractional_hypertree_width_exact(t)[0] == pytest.approx(1.5)
        assert generalized_hypertree_width_exact(t)[0] == 2

    def test_clique_widths(self):
        """ghw(K_n) = ceil(n/2), fhw(K_n) = n/2 (Lemma 2.3)."""
        assert generalized_hypertree_width_exact(clique(5))[0] == 3
        assert fractional_hypertree_width_exact(clique(5))[0] == pytest.approx(2.5)
        assert generalized_hypertree_width_exact(clique(6))[0] == 3
        assert fractional_hypertree_width_exact(clique(6))[0] == pytest.approx(3.0)

    def test_example_4_3(self):
        h0 = example_4_3_hypergraph()
        assert generalized_hypertree_width_exact(h0)[0] == 2
        # fhw <= ghw = 2 and H0 contains no easy fractional shortcut below 2.
        fhw, _d = fractional_hypertree_width_exact(h0)
        assert fhw <= 2.0 + EPS

    def test_treewidth_grid(self):
        assert treewidth_exact(grid(3, 3)) == 3
        assert treewidth_exact(cycle(5)) == 2

    def test_unbounded_support_family_fhw(self):
        """Ex 5.1 family: one bag covering everything costs 2 - 1/n."""
        h = unbounded_support_family(5)
        fhw, _d = fractional_hypertree_width_exact(h)
        assert fhw <= 2 - 1 / 5 + EPS


class TestWitnesses:
    def test_ghw_witness_validates(self):
        h = grid(3, 3)
        width, d = generalized_hypertree_width_exact(h)
        assert is_ghd(h, d, width=width)

    def test_fhw_witness_validates(self):
        h = clique(5)
        width, d = fractional_hypertree_width_exact(h)
        assert is_fhd(h, d, width=width + EPS)

    def test_vertex_limit_guard(self):
        with pytest.raises(ValueError, match="exceeds"):
            generalized_hypertree_width_exact(grid(5, 5), vertex_limit=10)

    def test_disconnected(self):
        h = Hypergraph({"e1": ["a", "b"], "e2": ["c", "d"]})
        width, d = generalized_hypertree_width_exact(h)
        assert width == 1
        assert is_ghd(h, d, width=1)

    def test_bad_ordering_rejected(self):
        h = cycle(4)
        with pytest.raises(ValueError, match="ordering"):
            decomposition_from_ordering(
                h, ["v1"], lambda bag: edge_cover_of(h, bag)
            )


class TestEliminationCore:
    def test_width_by_elimination_bag_cost_plumbing(self):
        h = cycle(4)
        width, ordering = width_by_elimination(h, lambda bag: float(len(bag)))
        assert width == 3.0  # treewidth 2 => max bag 3
        assert sorted(ordering) == sorted(h.vertices)


def _cover_costs(h: Hypergraph):
    """The fhw and ghw bag costs, as the exact oracles use them."""
    oracle = oracle_for(h)
    return (
        lambda bag: oracle.fractional_cover(bag).weight,
        lambda bag: oracle.integral_cover(bag).weight,
    )


class TestCappedElimination:
    """``upper`` prunes the DP but never changes its answer."""

    def test_cap_skips_bag_costs(self):
        calls = []
        fractional, _integral = _cover_costs(grid(3, 3))

        def counted(bag):
            calls.append(bag)
            return fractional(bag)

        width, _order = width_by_elimination(grid(3, 3), counted)
        uncapped = len(calls)
        calls.clear()
        capped, _order = width_by_elimination(grid(3, 3), counted, upper=width)
        assert capped == width
        assert len(calls) < uncapped

    def test_cap_below_width_falls_back(self):
        fractional, _integral = _cover_costs(clique(5))
        width, order = width_by_elimination(clique(5), fractional)
        assert width == pytest.approx(2.5)
        for upper in (1.0, 2.0, 2.5 - 1e-6):
            assert width_by_elimination(
                clique(5), fractional, upper=upper
            ) == (width, order)


@given(hypergraphs(max_vertices=8, max_edges=7, max_edge_size=3,
                   min_edge_size=2))
@settings(max_examples=20, deadline=None)
def test_capped_dp_matches_uncapped(h: Hypergraph):
    """Any cap at or above the width returns the uncapped width and
    ordering; a cap below it returns them through the fallback."""
    for cost in _cover_costs(h):
        width, order = width_by_elimination(h, cost)
        for upper in (width, width + 0.5, width + 3, width - 0.5, 0.5):
            assert width_by_elimination(h, cost, upper=upper) == (width, order)


@given(hypergraphs(max_vertices=7, max_edges=6))
@settings(max_examples=20, deadline=None)
def test_width_chain(h: Hypergraph):
    """fhw <= ghw <= hw on arbitrary small hypergraphs (Section 1)."""
    from repro.algorithms import hypertree_width

    ghw, ghd = generalized_hypertree_width_exact(h)
    fhw, fhd = fractional_hypertree_width_exact(h)
    hw, _hd = hypertree_width(h)
    assert fhw <= ghw + EPS
    assert ghw <= hw
    assert is_ghd(h, ghd, width=ghw)
    assert is_fhd(h, fhd, width=fhw + EPS)


@given(hypergraphs(max_vertices=6, max_edges=5))
@settings(max_examples=15, deadline=None)
def test_lemma_2_7_monotonicity(h: Hypergraph):
    """ghw and fhw never grow under vertex-induced subhypergraphs."""
    vs = sorted(h.vertices, key=str)
    if len(vs) < 2:
        return
    sub = h.induced(vs[: len(vs) - 1])
    if sub.num_vertices == 0:
        return
    assert (
        generalized_hypertree_width_exact(sub)[0]
        <= generalized_hypertree_width_exact(h)[0]
    )
    assert (
        fractional_hypertree_width_exact(sub)[0]
        <= fractional_hypertree_width_exact(h)[0] + EPS
    )

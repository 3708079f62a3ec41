"""Differential testing: each exact engine against an independent one.

Every measure is answered by one exact engine, and this suite checks
each against a second decision procedure of independent design:

* hw — the CheckSearch k-search against the memoised k-decomp oracle
  of :mod:`tests.reference_hw` (Gottlob–Leone–Scarcello normal form);
* ghw — the CheckSearch k-search against the best-first elimination
  search (:func:`generalized_hypertree_width_exact`), also on 14-20
  vertex blocks;
* fhw — the elimination search against the bounded-degree Check(FHD, k)
  search of Theorem 5.2 (``check-fhd-bd``).

Each pair is compared on both sides of the threshold (accept at the
true width, reject just below it), property-based on random
hypergraphs and over the fixed-seed E15 corpus, and every witness is
re-validated through :mod:`repro.decomposition.validation` against the
paper definitions.  Because every engine is exact, any disagreement is
a bug by construction — there is no tolerance to hide behind (fhw alone
uses the engine-wide LP epsilon).
"""

import random

import pytest
from hypothesis import assume, given, settings

from repro.algorithms import (
    fractional_hypertree_decomposition_bounded_degree,
    fractional_hypertree_width_exact,
    generalized_hypertree_width,
    generalized_hypertree_width_exact,
    hypertree_width,
)
from repro.covers import EPS
from repro.decomposition import is_fhd, is_ghd, is_hd
from repro.hypergraph import Hypergraph, degree
from repro.hypergraph.generators import (
    grid,
    hyperbench_like_suite,
    random_csp_hypergraph,
)
from repro.paper_artifacts import example_4_3_hypergraph

from .reference_hw import hw_at_most, reference_hypertree_width
from .strategies import hypergraphs


def _check_fhd(h: Hypergraph, k: float):
    """The Theorem 5.2 search on one unreduced block, no bounds pre-pass."""
    return fractional_hypertree_decomposition_bounded_degree(
        h, k, preprocess="none", bounds="none"
    )


# ----------------------------------------------------------------------
# Property-based parity: accept at the true width, reject below it,
# witnesses validate against the paper definitions.
# ----------------------------------------------------------------------
@given(hypergraphs(max_vertices=7, max_edges=7))
@settings(max_examples=40, deadline=None)
def test_hw_vs_k_decomp(h: Hypergraph):
    width, witness = hypertree_width(h)
    assert is_hd(h, witness, width=width)
    assert hw_at_most(h, width)
    if width > 1:
        assert not hw_at_most(h, width - 1)


@given(hypergraphs(max_vertices=6, max_edges=6))
@settings(max_examples=25, deadline=None)
def test_ghw_search_vs_elimination_dp(h: Hypergraph):
    width, witness = generalized_hypertree_width(h)
    exact, exact_witness = generalized_hypertree_width_exact(h)
    assert width == exact
    assert is_ghd(h, witness, width=width)
    assert is_ghd(h, exact_witness, width=exact)


@given(hypergraphs(max_vertices=5, max_edges=6))
@settings(max_examples=20, deadline=None)
def test_fhw_dp_vs_bounded_degree_check(h: Hypergraph):
    # Theorem 5.2 is the bounded-degree case: the check guesses supports
    # of up to k·d edges, so its reject side grows exponentially in k·d
    # (6-vertex instances of degree 3–4 took from 40 s to minutes at
    # fhw - 1e-4).  Degree <= 3 on 5 vertices keeps it under 2 s.
    assume(degree(h) <= 3)
    width, witness = fractional_hypertree_width_exact(h)
    assert is_fhd(h, witness, width=width + EPS)
    accepted = _check_fhd(h, width)
    assert accepted is not None
    assert is_fhd(h, accepted, width=width + EPS)
    if width > 1 + 1e-6:
        assert _check_fhd(h, width - 1e-4) is None


def test_example_4_3_separates_hw_from_ghw():
    """H0 of Example 4.3: hw 3 > ghw 2, by both hw procedures."""
    h0 = example_4_3_hypergraph()
    assert reference_hypertree_width(h0) == 3
    assert hypertree_width(h0)[0] == 3
    assert generalized_hypertree_width(h0)[0] == 2


# ----------------------------------------------------------------------
# Fixed-seed corpus parity: the E15 HyperBench-like generator, solved
# through the very pipeline users call.
# ----------------------------------------------------------------------
def _corpus():
    suite = hyperbench_like_suite(seed=7, n_cq=8, n_csp=4)
    return [h for h in suite if h.num_vertices <= 12][:10]


@pytest.mark.parametrize("kind", ["hw", "ghw"])
def test_corpus_parity(kind):
    """At the engine's width the independent procedure accepts (hw) or
    agrees on the width (ghw)."""
    width_of = {"hw": hypertree_width, "ghw": generalized_hypertree_width}
    for h in _corpus():
        width, witness = width_of[kind](h)
        if kind == "hw":
            assert is_hd(h, witness, width=width)
            assert hw_at_most(h, width), f"k-decomp rejects {h.name} at {width}"
        else:
            assert is_ghd(h, witness, width=width)
            exact = generalized_hypertree_width_exact(
                h, preprocess="none", bounds="none"
            )[0]
            assert width == exact, f"ghw of {h.name}: {width} vs exact {exact}"


def test_corpus_reject_side_parity():
    """Below the engine's hw the k-decomp oracle must say no — on the
    corpus, not just on hypothesis-sized instances."""
    for h in _corpus():
        width, _witness = hypertree_width(h)
        if width <= 1:
            continue
        assert not hw_at_most(h, width - 1)


# ----------------------------------------------------------------------
# Past the old DP's reach: 14-20 vertices, one unreduced block each.
# ----------------------------------------------------------------------
_LARGE = {h.name: h for h in (grid(4, 4), grid(3, 6), grid(4, 5))} | {
    f"csp-seed{s}": random_csp_hypergraph(
        15 + s % 6, int(0.9 * (15 + s % 6)), 3, rng=random.Random(s)
    )
    for s in range(12)
}


@pytest.mark.parametrize("name", list(_LARGE))
def test_ghw_search_vs_elimination_search_beyond_dp_limit(name):
    """Check(GHD, k) and the best-first elimination search agree where
    the 2^n subset DP could not run."""
    h = _LARGE[name]
    width, witness = generalized_hypertree_width(h)
    exact, exact_witness = generalized_hypertree_width_exact(
        h, vertex_limit=25, preprocess="none", bounds="none"
    )
    assert width == exact
    assert is_ghd(h, witness, width=width)
    assert is_ghd(h, exact_witness, width=exact)

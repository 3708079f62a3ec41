"""Every public width entry point is one batch-scheduler run.

``preprocess="none"`` is the scheduler on one unreduced block.  These
tests pin that contract from the outside:

* each public entry point runs exactly one :meth:`BatchScheduler.run`
  under every preprocess mode (the GYO shortcut of Check(GHD, 1) is the
  one exception, and runs none);
* with the bounds pre-pass off, a ``"none"`` run returns what the
  per-block core returns on the whole hypergraph, witness included;
* isolated vertices get the same answer in every mode, and edgeless
  inputs get one clear ``ValueError``.
"""

import pytest

from repro.algorithms import (
    check_fhd,
    check_ghd,
    check_hd,
    fhw_approximation,
    fractional_hypertree_decomposition_bounded_degree,
    fractional_hypertree_width,
    fractional_hypertree_width_exact,
    generalized_hypertree_decomposition,
    generalized_hypertree_width,
    generalized_hypertree_width_exact,
    heuristic_decomposition,
    hypertree_decomposition,
    hypertree_width,
    width_bounds,
)
from repro.algorithms.elimination import (
    _fractional_hypertree_width_exact_direct,
    _generalized_hypertree_width_exact_direct,
)
from repro.algorithms.fhd import (
    _fractional_hypertree_decomposition_bounded_degree_direct,
)
from repro.algorithms.ghd import _generalized_hypertree_decomposition_direct
from repro.algorithms.hd import _hypertree_decomposition_direct
from repro.algorithms.heuristics import (
    _heuristic_decomposition_direct,
    _width_bounds_direct,
)
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import clique, cycle, grid, triangle_cascade
from repro.pipeline import PREPROCESS_MODES, BatchScheduler, solve_many

#: name -> call(hypergraph, **pipeline options): every public entry
#: point that answers a width query.
ENTRY_POINTS = {
    "hypertree_width": lambda h, **o: hypertree_width(h, **o),
    "hypertree_decomposition": lambda h, **o: hypertree_decomposition(
        h, 2, **o
    ),
    "check_hd": lambda h, **o: check_hd(h, 2, **o),
    "generalized_hypertree_width": lambda h, **o: (
        generalized_hypertree_width(h, **o)
    ),
    "generalized_hypertree_decomposition": lambda h, **o: (
        generalized_hypertree_decomposition(h, 2, **o)
    ),
    "check_ghd": lambda h, **o: check_ghd(h, 2, **o),
    "fractional_hypertree_decomposition_bounded_degree": lambda h, **o: (
        fractional_hypertree_decomposition_bounded_degree(h, 2, **o)
    ),
    "check_fhd": lambda h, **o: check_fhd(h, 2, **o),
    "generalized_hypertree_width_exact": lambda h, **o: (
        generalized_hypertree_width_exact(h, **o)
    ),
    "fractional_hypertree_width_exact": lambda h, **o: (
        fractional_hypertree_width_exact(h, **o)
    ),
    "fractional_hypertree_width": lambda h, **o: (
        fractional_hypertree_width(h, **o)
    ),
    "width_bounds": lambda h, preprocess: width_bounds(
        h, preprocess=preprocess
    ),
    "heuristic_decomposition": lambda h, preprocess: heuristic_decomposition(
        h, preprocess=preprocess
    ),
    "fhw_approximation": lambda h, preprocess: fhw_approximation(
        h, 2.0, 0.5, preprocess=preprocess
    ),
}

#: Entry points returning ``(width, decomposition)``.
WIDTH_ENTRY_POINTS = (
    "hypertree_width",
    "generalized_hypertree_width",
    "generalized_hypertree_width_exact",
    "fractional_hypertree_width_exact",
    "fractional_hypertree_width",
    "heuristic_decomposition",
)


@pytest.fixture
def scheduler_runs(monkeypatch):
    """Count :meth:`BatchScheduler.run` calls."""
    calls = []
    run = BatchScheduler.run

    def counting_run(self):
        calls.append(self.preprocess)
        return run(self)

    monkeypatch.setattr(BatchScheduler, "run", counting_run)
    return calls


class TestOneSchedulerRun:
    @pytest.mark.parametrize("preprocess", PREPROCESS_MODES)
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_each_entry_point_is_one_run(
        self, scheduler_runs, name, preprocess
    ):
        ENTRY_POINTS[name](triangle_cascade(2), preprocess=preprocess)
        assert scheduler_runs == [preprocess]

    @pytest.mark.parametrize("preprocess", PREPROCESS_MODES)
    def test_ghd_k1_gyo_shortcut_runs_none(self, scheduler_runs, preprocess):
        path = Hypergraph({"a": [1, 2], "b": [2, 3]})
        witness = generalized_hypertree_decomposition(
            path, 1, preprocess=preprocess
        )
        assert witness is not None and witness.width() == 1
        assert scheduler_runs == []

    def test_none_mode_stats_are_one_block(self):
        (result,) = solve_many(
            [(triangle_cascade(3), "hw")], preprocess="none"
        )
        width, _d = result.unwrap()
        assert width == 2
        stats = result.stats
        assert (stats.blocks, stats.preprocess, stats.kinds) == (
            1, "none", {"hw": 1},
        )
        assert stats.bounds == "portfolio"  # the pre-pass stays on


#: Single-block instances (no isolated vertices) for the golden tests.
GOLDEN = [cycle(5), clique(4), grid(2, 3), triangle_cascade(2)]


def _smallest_accepted(check, h):
    """The width search of the per-block core: the smallest accepted k
    and its witness."""
    for k in range(1, h.num_edges + 1):
        witness = check(h, k)
        if witness is not None:
            return k, witness
    raise AssertionError("no k accepted up to |E|")


@pytest.mark.parametrize("h", GOLDEN, ids=lambda h: h.name)
class TestNoneModeIsTheCore:
    """``preprocess="none", bounds="none"`` returns the ``_direct`` core's
    width and witness ``as_dict()``: one block, stitched as itself."""

    @staticmethod
    def _solve(h, kind, **params):
        (result,) = solve_many(
            [(h, kind, params)], preprocess="none", bounds="none"
        )
        return result.unwrap()

    def test_hw(self, h):
        width, witness = self._solve(h, "hw")
        k, core = _smallest_accepted(_hypertree_decomposition_direct, h)
        assert width == k
        assert witness.as_dict() == core.as_dict()

    def test_ghw(self, h):
        width, witness = self._solve(h, "ghw")
        k, core = _smallest_accepted(
            _generalized_hypertree_decomposition_direct, h
        )
        assert width == k
        assert witness.as_dict() == core.as_dict()

    def test_checks(self, h):
        for k in (1, 2):
            for kind, core in (
                ("check-hd", _hypertree_decomposition_direct),
                ("check-ghd", _generalized_hypertree_decomposition_direct),
                ("check-fhd-bd",
                 _fractional_hypertree_decomposition_bounded_degree_direct),
            ):
                got, want = self._solve(h, kind, k=k), core(h, k)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.as_dict() == want.as_dict()

    def test_exact_oracles(self, h):
        for kind, core in (
            ("ghw-exact", _generalized_hypertree_width_exact_direct),
            ("fhw", _fractional_hypertree_width_exact_direct),
        ):
            width, witness = self._solve(h, kind)
            core_width, core_witness = core(h)
            assert width == core_width
            assert witness.as_dict() == core_witness.as_dict()

    def test_heuristics(self, h):
        lower, upper, witness = self._solve(h, "bounds")
        core = _width_bounds_direct(h)
        assert (lower, upper) == core[:2]
        assert witness.as_dict() == core[2].as_dict()
        width, witness = self._solve(h, "heuristic-decomposition")
        core_width, core_witness = _heuristic_decomposition_direct(h)
        assert width == core_width
        assert witness.as_dict() == core_witness.as_dict()


class TestIsolatedVertices:
    """Isolated vertices appear in no bag: every mode drops them."""

    H = Hypergraph({"e": ["a"], "f": ["a", "b"]}, vertices=["z"])

    @pytest.mark.parametrize("name", WIDTH_ENTRY_POINTS)
    def test_same_width_in_every_mode(self, name):
        widths = {
            mode: ENTRY_POINTS[name](self.H, preprocess=mode)[0]
            for mode in PREPROCESS_MODES
        }
        assert set(widths.values()) == {1}, widths

    @pytest.mark.parametrize("preprocess", PREPROCESS_MODES)
    def test_checks_and_sandwich_in_every_mode(self, preprocess):
        for name in ("check_hd", "check_ghd", "check_fhd"):
            assert ENTRY_POINTS[name](self.H, preprocess=preprocess)
        lower, upper, witness = width_bounds(self.H, preprocess=preprocess)
        assert lower == upper == 1.0
        assert "z" not in set().union(*map(witness.bag, witness.node_ids))
        result = fhw_approximation(self.H, 2.0, 0.5, preprocess=preprocess)
        assert result.width == 1.0

    def test_none_mode_counts_the_dropped_vertex(self):
        (result,) = solve_many([(self.H, "hw")], preprocess="none")
        result.unwrap()
        assert result.stats.vertices_removed == 1
        assert result.stats.rule_counts == {"isolated": 1}


class TestEdgeless:
    """No vertex in an edge: one clear ``ValueError`` everywhere."""

    @pytest.mark.parametrize("preprocess", PREPROCESS_MODES)
    @pytest.mark.parametrize(
        "h",
        [Hypergraph({}), Hypergraph({}, vertices=["a"])],
        ids=["empty", "isolated-only"],
    )
    def test_every_entry_point_raises_value_error(self, h, preprocess):
        calls = dict(ENTRY_POINTS)
        calls["generalized_hypertree_decomposition(k=1)"] = (
            lambda h, **o: generalized_hypertree_decomposition(h, 1, **o)
        )
        for name, call in calls.items():
            with pytest.raises(ValueError, match="hypergraph has no vertices"):
                call(h, preprocess=preprocess)

"""Tests for batched multi-instance serving (``repro.pipeline.batch``).

The headline invariants: every batched answer equals the corresponding
single-instance answer of the :mod:`repro.algorithms` function (serial
and parallel, thread and process executors), and failures are strictly per-request — a malformed
instance resolves its own handle with an error and never poisons
sibling futures.
"""

import inspect
from importlib import import_module

import pytest

from repro.algorithms import (
    fractional_hypertree_width_exact,
    generalized_hypertree_width,
    hypertree_width,
    subedges,
)
from repro.algorithms.ghd import GHD_METHODS
from repro.algorithms.heuristics import _ORDERINGS
from repro.covers import EPS
from repro.decomposition import is_fhd, is_ghd, is_hd
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import (
    clique,
    cycle,
    grid,
    triangle_cascade,
)
from repro.pipeline import (
    BATCH_KINDS,
    SOLVERS,
    BatchRequest,
    BatchScheduler,
    solve_many,
)
from repro.pipeline.batch import _KIND_TABLE, GHD_CAPS, request_params

#: Where the params a core passes on through ``**caps`` land.
CAP_GENERATORS = {
    "check-fhd-bd": subedges.fhd_subedges,
    "fixpoint": subedges.ghd_subedges,
    "bip": subedges.bip_subedges,
    "bmip": subedges.bmip_subedges,
    "limit": subedges.limit_subedges,
}


def _assert_defaults_match(spec, function):
    """Each spec default is ``function``'s; a required param has none."""
    signature = inspect.signature(function).parameters
    for name, param in spec.items():
        assert name in signature, (function.__name__, name)
        default = signature[name].default
        if param.required:
            assert default is inspect.Parameter.empty, name
        else:
            assert default == param.default, (function.__name__, name)


class TestParamSpecs:
    """One spec per kind decides request params; it agrees with the
    per-block cores and subedge generators the params end up in."""

    @pytest.mark.parametrize("kind", sorted(_KIND_TABLE))
    def test_spec_defaults_are_the_core_defaults(self, kind):
        _dkind, solver, _family, spec = _KIND_TABLE[kind]
        module, core = SOLVERS[solver]
        core = getattr(import_module(f"repro.algorithms.{module}"), core)
        spec = {n: p for n, p in spec.items() if n != "kmax"}  # the ladder
        caps = {
            n: p for n, p in spec.items()
            if n not in inspect.signature(core).parameters
        }
        _assert_defaults_match(
            {n: p for n, p in spec.items() if n not in caps}, core
        )
        if caps:
            _assert_defaults_match(caps, CAP_GENERATORS[kind])

    @pytest.mark.parametrize("method", GHD_METHODS)
    def test_ghd_caps_are_the_generator_defaults(self, method):
        _assert_defaults_match(GHD_CAPS[method], CAP_GENERATORS[method])

    def test_choices_are_the_algorithms_choices(self):
        specs = {kind: row[3] for kind, row in _KIND_TABLE.items()}
        assert specs["ghw"]["method"].choices == GHD_METHODS
        assert tuple(GHD_CAPS) == GHD_METHODS
        ordering = specs["heuristic-decomposition"]["ordering"]
        assert set(ordering.choices) == set(_ORDERINGS)

    def test_defaults_and_none_are_dropped(self):
        spelled = {"method": "fixpoint", "kmax": None}
        assert request_params("ghw", spelled) == {}
        assert request_params(
            "ghw", {"method": "bmip", "c": 3, "max_sets": 200_000}
        ) == {"method": "bmip", "c": 3}
        assert request_params("fhw", {"vertex_limit": 18}) == {}
        assert request_params("check-hd", {"k": 2}) == {"k": 2}


class TestRequestNormalization:
    def test_accepted_shapes(self):
        h = cycle(4)
        assert BatchRequest.of(h).kind == "ghw"
        assert BatchRequest.of((h, "fhw")).kind == "fhw"
        req = BatchRequest.of((h, "check-ghd", {"k": 2}))
        assert req.params == {"k": 2}
        req = BatchRequest.of({"hypergraph": h, "kind": "hw", "label": "x"})
        assert req.label == "x" and req.name == "x"
        assert BatchRequest.of(req) is req

    def test_rejected_shapes(self):
        with pytest.raises(TypeError, match="batch request"):
            BatchRequest.of(42)
        with pytest.raises(TypeError, match="batch request"):
            BatchRequest.of(())

    def test_name_falls_back_to_hypergraph_then_kind(self):
        h = cycle(4)
        assert BatchRequest(h, "ghw").name == h.name
        assert BatchRequest(Hypergraph({"e": ["a"]}), "fhw").name == "fhw"


class TestEmptyAndSingle:
    def test_empty_batch(self):
        assert solve_many([]) == []
        stats = BatchScheduler().run()
        assert stats.requests == 0
        assert stats.tasks_run == 0
        assert stats.failures == 0

    def test_single_instance_equals_module_function(self):
        h = triangle_cascade(3)
        (result,) = solve_many([(h, "ghw")])
        width, decomposition = result.unwrap()
        solo_width, _d = generalized_hypertree_width(h)
        assert width == solo_width == 2
        assert is_ghd(h, decomposition, width=width)

    def test_bare_hypergraph_defaults_to_ghw(self):
        (result,) = solve_many([cycle(6)])
        assert result.request.kind == "ghw"
        assert result.value[0] == 2


class TestMixedMeasures:
    def test_hw_ghw_fhw_in_one_batch(self):
        instances = {
            "hw": triangle_cascade(3),
            "ghw": cycle(6),
            "fhw": clique(5),
        }
        results = solve_many(
            [(h, kind) for kind, h in instances.items()], jobs=2
        )
        by_kind = {r.request.kind: r for r in results}
        assert all(r.ok for r in results)

        hw, hd = by_kind["hw"].value
        assert hw == hypertree_width(instances["hw"])[0]
        assert is_hd(instances["hw"], hd, width=hw)

        ghw, ghd = by_kind["ghw"].value
        solo = generalized_hypertree_width(instances["ghw"])
        assert ghw == solo[0]
        assert is_ghd(instances["ghw"], ghd, width=ghw)

        fhw, fhd = by_kind["fhw"].value
        solo = fractional_hypertree_width_exact(instances["fhw"])
        assert fhw == pytest.approx(solo[0])
        assert is_fhd(instances["fhw"], fhd, width=fhw + EPS)

    def test_all_width_kinds_resolve(self):
        h = triangle_cascade(2)
        results = solve_many(
            [
                (h, "hw"),
                (h, "ghw"),
                (h, "ghw-exact"),
                (h, "fhw"),
                (h, "bounds"),
                (h, "check-ghd", {"k": 2}),
                (h, "check-ghd", {"k": 1}),
            ]
        )
        assert all(r.ok for r in results)
        assert results[0].value[0] == 2
        assert results[1].value[0] == 2
        assert results[2].value[0] == 2
        assert results[3].value[0] == pytest.approx(1.5)
        lower, upper, _w = results[4].value
        assert lower <= upper
        assert results[5].value is not None  # accept at k=2
        assert results[6].value is None  # reject at k=1

    def test_parallel_matches_serial(self):
        requests = [
            (cycle(6), "ghw"),
            (triangle_cascade(3), "hw"),
            (clique(5), "fhw"),
            (grid(2, 3), "ghw"),
        ]
        serial = solve_many(requests)
        threaded = solve_many(requests, jobs=3)
        for a, b in zip(serial, threaded):
            assert a.ok and b.ok
            assert a.value[0] == pytest.approx(b.value[0])

    def test_process_executor(self):
        requests = [(triangle_cascade(2), "fhw"), (cycle(4), "ghw")]
        results = solve_many(requests, jobs=2, executor="process")
        assert results[0].value[0] == pytest.approx(1.5)
        assert results[1].value[0] == 2


class TestFailureIsolation:
    def test_bad_kind_does_not_poison_siblings(self):
        h = cycle(6)
        results = solve_many([(h, "zzz"), (h, "ghw"), (h, "fhw")], jobs=2)
        assert not results[0].ok
        assert isinstance(results[0].error, ValueError)
        assert "kind" in str(results[0].error)
        assert results[1].ok and results[1].value[0] == 2
        assert results[2].ok and results[2].value[0] == pytest.approx(2.0)

    def test_non_hypergraph_instance(self):
        results = solve_many(["not a hypergraph", (cycle(4), "ghw")])
        assert isinstance(results[0].error, TypeError)
        assert results[1].ok

    def test_malformed_spec_resolves_immediately(self):
        scheduler = BatchScheduler()
        handle = scheduler.submit(1234)
        assert handle.done and not handle.ok
        good = scheduler.submit((cycle(4), "ghw"))
        scheduler.run()
        assert good.ok and good.value[0] == 2
        assert good.stats is handle.stats
        assert good.stats.failures == 1

    def test_cap_error_is_per_request(self):
        results = solve_many(
            [
                (clique(6), "hw", {"kmax": 2}),
                (cycle(6), "ghw"),
            ],
            jobs=2,
        )
        assert isinstance(results[0].error, ValueError)
        assert "cap" in str(results[0].error)
        assert results[1].ok

    def test_check_without_k_fails_that_request_only(self):
        results = solve_many([(cycle(4), "check-ghd"), (cycle(4), "ghw")])
        assert isinstance(results[0].error, ValueError)
        assert "k" in str(results[0].error)
        assert results[1].ok

    def test_unwrap_reraises(self):
        (result,) = solve_many([(cycle(4), "zzz")])
        with pytest.raises(ValueError, match="kind"):
            result.unwrap()

    def test_unresolved_unwrap_raises(self):
        scheduler = BatchScheduler()
        handle = scheduler.submit((cycle(4), "ghw"))
        with pytest.raises(RuntimeError, match="not resolved"):
            handle.unwrap()


class TestSchedulerBehaviour:
    def test_stats_counters(self):
        h = triangle_cascade(3)
        results = solve_many(
            [(h, "ghw"), (cycle(6), "ghw")], jobs=2, bounds="none"
        )
        assert all(r.ok for r in results)
        stats = results[0].stats
        assert results[1].stats is stats
        assert stats.requests == 2
        assert stats.jobs == 2
        assert stats.blocks == 4  # 3 triangle blocks + 1 cycle block
        assert stats.tasks_run >= stats.blocks
        assert stats.kinds == {"ghw": 2}
        assert stats.total_seconds >= stats.prepare_seconds
        assert 0.0 <= stats.hit_rate <= 1.0
        assert stats.requests_per_second > 0
        payload = stats.as_dict()
        assert payload["requests"] == 2
        assert payload["kinds"] == {"ghw": 2}

    def test_cancelled_tasks_counted_at_most_once(self):
        # Regression: a rejecting check instance used to re-count its
        # never-submitted sibling blocks every time another of its
        # tasks completed.  For a pure check batch, executed + avoided
        # tasks can never exceed one per block.
        h = triangle_cascade(6)
        (result,) = solve_many(
            [(h, "check-ghd", {"k": 1})], jobs=2, bounds="none"
        )
        assert result.ok and result.value is None
        stats = result.stats
        assert stats.blocks == 6
        assert stats.tasks_cancelled >= 1
        assert stats.tasks_run + stats.tasks_cancelled <= stats.blocks

    def test_ghw_search_stops_at_accepted_k(self):
        # Regression: checks above the frontier used to climb to the cap
        # (|E| = 15 for K6) even after some k was accepted, although
        # monotonicity makes every check above an accepted k useless.
        # bounds="none" so the climb starts at k = 1.
        h = clique(6)  # single block, ghw = 3
        (result,) = solve_many([(h, "ghw")], jobs=3, bounds="none")
        assert result.ok and result.value[0] == 3
        # Exactly k = 1..3, however many workers are idle.
        assert result.stats.tasks_run == 3

    def test_hw_search_stops_at_accepted_k(self):
        (result,) = solve_many([(clique(6), "hw")], jobs=3, bounds="none")
        width, _d = result.unwrap()
        assert width == 3
        assert result.stats.tasks_run == 3

    def test_check_rejection_cancels_siblings(self):
        # triangles(3) splits into 3 blocks, each of hw 2: a k=1 check
        # rejects on the first block and skips/cancels the rest.
        h = triangle_cascade(3)
        (result,) = solve_many([(h, "check-ghd", {"k": 1})], bounds="none")
        assert result.ok and result.value is None
        stats = result.stats
        assert stats.tasks_cancelled >= 1
        assert stats.tasks_run < stats.blocks + 1

    def test_warm_cache_domain_shared_across_instances(self):
        from repro import engine

        # Two equal hypergraphs in one batch: the second's cover
        # queries hit the warm domain of the first.
        engine.clear_context_registry()
        results = solve_many([(clique(5), "fhw"), (clique(5), "fhw")])
        stats = results[0].stats
        assert stats.cache_hits > 0
        assert stats.hit_rate > 0.3

    def test_preprocess_none(self):
        h = triangle_cascade(2)
        (result,) = solve_many([(h, "ghw")], preprocess="none")
        assert result.value[0] == 2
        assert result.stats.blocks == 1

    def test_bad_configuration_raises(self):
        with pytest.raises(ValueError, match="preprocess"):
            solve_many([], preprocess="zzz")
        with pytest.raises(ValueError, match="executor"):
            solve_many([], executor="zzz")

    def test_batch_kinds_constant(self):
        assert set(BATCH_KINDS) == {
            "hw",
            "ghw",
            "ghw-exact",
            "fhw",
            "bounds",
            "check-hd",
            "check-ghd",
            "check-fhd-bd",
        }


class TestGhdMethodValidation:
    """A bad GHD ``method`` is rejected the same way in every bounds
    mode, before any engine runs (and before the store could key on
    it)."""

    @pytest.mark.parametrize("kind", ["ghw", "check-ghd"])
    @pytest.mark.parametrize("bounds", ["portfolio", "none"])
    def test_bad_method_rejected_in_every_mode(self, kind, bounds):
        params = {"method": "zzz"}
        if kind == "check-ghd":
            params["k"] = 2
        (result,) = solve_many(
            [BatchRequest(cycle(8), kind, params)], bounds=bounds
        )
        with pytest.raises(
            ValueError,
            match=r"method must be one of \('fixpoint', 'bip', 'bmip', 'limit'\)",
        ):
            result.unwrap()
        assert result.stats.tasks_run == 0


class TestInlineSerial:
    """``jobs=1`` runs every task on the calling thread, with no pool."""

    def test_jobs1_runs_on_the_caller(self, monkeypatch):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from repro.pipeline import batch, solve

        threads = []
        original = solve.run_block_task

        def spy(solver, hypergraph, params):
            threads.append(threading.get_ident())
            return original(solver, hypergraph, params)

        monkeypatch.setattr(batch, "run_block_task", spy)
        monkeypatch.setattr(solve, "run_block_task", spy)
        pools = []
        init = ThreadPoolExecutor.__init__

        def counting_init(self, *args, **kwargs):
            pools.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "__init__", counting_init)

        scheduler = BatchScheduler(jobs=1, bounds="none")
        scheduler.submit((triangle_cascade(3), "ghw"))
        scheduler.submit((cycle(6), "check-hd", {"k": 1}))
        stats = scheduler.run()
        assert stats.tasks_run == len(threads) > 0
        threads_before = len(threads)
        assert hypertree_width(clique(4), bounds="none")[0] == 2
        assert len(threads) > threads_before
        assert set(threads) == {threading.get_ident()}
        assert pools == []


class TestRunCounters:
    """Each run counts its own work, however many runs share the process."""

    #: Two disjoint fhw workloads, bounds off, so every block is solved
    #: by exact tasks: a short run that overlaps the start of a long one.
    WORKLOADS = (
        [(cycle(n), "fhw") for n in range(5, 11)],
        [(cycle(n), "fhw") for n in range(11, 15)],
    )

    def _concurrently(self, **options):
        """Both workloads at once, one thread each; their BatchStats."""
        import threading

        barrier = threading.Barrier(2)
        stats = [None, None]

        def run(i):
            barrier.wait()
            results = solve_many(self.WORKLOADS[i], bounds="none", **options)
            stats[i] = results[0].stats

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        return stats

    def test_concurrent_runs_count_their_own_lp_solves(self, monkeypatch):
        import itertools

        from repro.engine import CoverOracle, clear_context_registry

        def counters(stats):
            return stats.lp_solves, stats.cache_hits, stats.cache_misses

        alone = []
        for workload in self.WORKLOADS:
            clear_context_registry()
            alone.append(counters(solve_many(workload, bounds="none")[0].stats))
        solves = itertools.count()
        original = CoverOracle._solve_fractional

        def spy(self, *args, **kwargs):
            next(solves)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CoverOracle, "_solve_fractional", spy)
        clear_context_registry()
        together = [counters(s) for s in self._concurrently()]
        assert together == alone
        assert together[0][0] + together[1][0] == next(solves) > 0

    def test_concurrent_runs_count_their_own_appends(self, tmp_path):
        from repro.engine import clear_context_registry
        from repro.store import ResultStore

        clear_context_registry()
        with ResultStore(tmp_path) as store:
            stats = self._concurrently(store=store)
            grown = store.stats.records_appended
        appended = [s.store_records_appended for s in stats]
        assert all(appended) and sum(appended) == grown

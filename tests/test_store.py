"""The persistent result store: round trips, crash tolerance, trust.

This is the proof obligation of ``repro.store``:

* **round trip** — solve, persist, reload (new handle and a genuinely
  fresh process), and the served answers have identical widths with
  witnesses that re-validate, at zero exact Check tasks and zero LP
  solves (Hypothesis drives the hypergraph shapes);
* **fault injection** — truncate the log mid-record, flip payload and
  header bytes, kill a writer between fsyncs: the store must open,
  skip the bad tail, and *recompute* — a damaged store may cost work,
  never a wrong answer;
* **untrusted input** — stored witnesses and imported oracle entries
  are re-validated before use; corrupt covers and fake "infeasible"
  verdicts are rejected.
"""

import json
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.decomposition import validate
from repro.engine.oracle import CoverOracle
from repro.hypergraph import Hypergraph
from repro.pipeline import BatchRequest, solve_many
from repro.pipeline.batch import BatchScheduler
from repro.store import (
    STORE_FILENAME,
    ResultStore,
    checked_witness,
    params_fingerprint,
)
from repro.store.log import _HEADER, _MAGIC

from .strategies import hypergraphs

REPO_ROOT = Path(__file__).resolve().parent.parent


def triangle() -> Hypergraph:
    return Hypergraph({"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]})


def path4() -> Hypergraph:
    return Hypergraph({"a": ["1", "2"], "b": ["2", "3"], "c": ["3", "4"]})


def solve_with_store(store, requests, **kwargs):
    """solve_many on a shared scheduler; returns (results, stats)."""
    scheduler = BatchScheduler(store=store, **kwargs)
    handles = [scheduler.submit(BatchRequest.of(r)) for r in requests]
    scheduler.run()
    return handles, scheduler.last_stats


# ----------------------------------------------------------------------
# Fingerprints and witness re-validation
# ----------------------------------------------------------------------
class TestParamsFingerprint:
    def test_empty_and_none_agree(self):
        assert params_fingerprint(None) == "{}"
        assert params_fingerprint({}) == "{}"

    def test_order_independent(self):
        assert params_fingerprint({"a": 1, "b": 2}) == params_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_distinct_params_distinct_fingerprints(self):
        assert params_fingerprint({"k": 2}) != params_fingerprint({"k": 3})

    def test_unserializable_is_opaque(self):
        fp = params_fingerprint({"find_fhd": lambda h: None})
        assert fp == "!opaque"


class TestCheckedWitness:
    def _witness_payload(self, h, kind="ghw"):
        (result,) = solve_many([BatchRequest(h, kind)])
        width, witness = result.value
        return width, witness.as_dict()

    def test_valid_witness_round_trips(self):
        h = triangle()
        width, payload = self._witness_payload(h)
        dec = checked_witness(h, payload, "ghd", width=width + 1e-9)
        assert dec is not None
        assert dec.width() == pytest.approx(width)

    def test_wrong_hypergraph_is_a_miss(self):
        h = triangle()
        _, payload = self._witness_payload(h)
        other = Hypergraph({"e": ["a", "b", "c", "d"]})
        assert checked_witness(other, payload, "ghd") is None

    def test_width_bound_enforced(self):
        h = triangle()
        width, payload = self._witness_payload(h)
        assert checked_witness(h, payload, "ghd", width=width - 0.5) is None

    def test_garbage_payloads_are_misses(self):
        h = triangle()
        for garbage in (None, [], "x", {"bags": "nope"}, {}):
            assert checked_witness(h, garbage, "ghd") is None


# ----------------------------------------------------------------------
# Log mechanics
# ----------------------------------------------------------------------
class TestResultStoreLog:
    def test_append_get_and_last_write_wins(self, tmp_path):
        with ResultStore(tmp_path) as store:
            assert store.append(("t", "k1"), {"v": 1})
            assert not store.append(("t", "k1"), {"v": 2})  # immutable
            assert store.get(("t", "k1")) == {"v": 1}
            assert store.append(("t", "k1"), {"v": 3}, overwrite=True)
            assert store.get(("t", "k1")) == {"v": 3}
            assert ("t", "k1") in store and len(store) == 1

    def test_get_returns_a_fresh_copy(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.append(("t", 1), {"v": [1]})
            store.get(("t", 1))["v"].append(2)
            assert store.get(("t", 1)) == {"v": [1]}

    def test_reload_sees_live_values(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.append(("a", 1), {"v": 1})
            store.append(("b", 2), {"v": 2})
            store.append(("a", 1), {"v": 9}, overwrite=True)
        with ResultStore(tmp_path) as store:
            assert store.stats.records_loaded == 3
            assert store.stats.records_skipped == 0
            assert len(store) == 2
            assert store.get(("a", 1)) == {"v": 9}

    def test_type_counts(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.append(("block", "h1"), {})
            store.append(("block", "h2"), {})
            store.append(("oracle", "h1"), {})
            assert store.type_counts() == {"block": 2, "oracle": 1}

    def test_empty_and_missing_log(self, tmp_path):
        with ResultStore(tmp_path / "fresh") as store:
            assert len(store) == 0
            assert store.stats.bytes_valid == 0


def _fill(tmp_path, n=4):
    """A store directory holding n well-formed records."""
    with ResultStore(tmp_path) as store:
        for i in range(n):
            store.append(("t", i), {"v": i})
    return tmp_path / STORE_FILENAME


class TestFaultInjection:
    """Every corruption opens as a shorter store, never a wrong one."""

    def test_truncated_mid_payload(self, tmp_path):
        log = _fill(tmp_path)
        data = log.read_bytes()
        log.write_bytes(data[:-5])  # tear the last record's payload
        with ResultStore(tmp_path) as store:
            assert store.stats.records_loaded == 3
            assert store.stats.records_skipped == 1
            assert store.stats.bytes_skipped > 0
            assert store.get(("t", 2)) == {"v": 2}
            assert store.get(("t", 3)) is None

    def test_truncated_mid_header(self, tmp_path):
        one = _fill(tmp_path / "one", n=1).stat().st_size
        log = _fill(tmp_path / "two", n=2)
        # Keep record 1 plus half of record 2's header.
        log.write_bytes(log.read_bytes()[: one + _HEADER.size // 2])
        with ResultStore(tmp_path / "two") as store:
            assert store.stats.records_loaded == 1
            assert store.stats.records_skipped == 1
            assert store.get(("t", 0)) == {"v": 0}

    def test_flipped_payload_byte_fails_crc(self, tmp_path):
        log = _fill(tmp_path)
        data = bytearray(log.read_bytes())
        # Corrupt one byte inside the *first* record's payload: the
        # whole log after it is unreachable (no resync by design).
        data[_HEADER.size + 4] ^= 0xFF
        log.write_bytes(bytes(data))
        with ResultStore(tmp_path) as store:
            assert store.stats.records_loaded == 0
            assert len(store) == 0
            assert store.stats.bytes_skipped == len(data)

    def test_bad_magic_stops_load(self, tmp_path):
        log = _fill(tmp_path, n=3)
        with ResultStore(tmp_path) as probe:
            good = probe.stats.bytes_valid
        data = bytearray(log.read_bytes())
        offset = data.rindex(_MAGIC)  # the last record's magic
        data[offset : offset + 4] = b"XXXX"
        log.write_bytes(bytes(data))
        with ResultStore(tmp_path) as store:
            assert store.stats.records_loaded == 2
            assert store.stats.bytes_valid < good

    def test_absurd_length_field_rejected(self, tmp_path):
        log = _fill(tmp_path, n=1)
        payload = b"{}"
        bad = _HEADER.pack(_MAGIC, 2**31, zlib.crc32(payload)) + payload
        log.write_bytes(log.read_bytes() + bad)
        with ResultStore(tmp_path) as store:
            assert store.stats.records_loaded == 1
            assert store.stats.records_skipped == 1

    def test_non_json_payload_rejected(self, tmp_path):
        log = _fill(tmp_path, n=1)
        payload = b"\xff\xfenot json"
        bad = _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload)) + payload
        log.write_bytes(log.read_bytes() + bad)
        with ResultStore(tmp_path) as store:
            assert store.stats.records_loaded == 1
            assert store.stats.records_skipped == 1

    def test_append_truncates_bad_tail(self, tmp_path):
        log = _fill(tmp_path, n=2)
        log.write_bytes(log.read_bytes() + b"\x00" * 17)  # torn write
        with ResultStore(tmp_path) as store:
            assert store.stats.bytes_skipped == 17
            store.append(("t", "new"), {"v": "n"})
            assert store.stats.bytes_skipped == 0
        # The tail is physically gone: a clean reload sees 3 records.
        with ResultStore(tmp_path) as store:
            assert store.stats.records_loaded == 3
            assert store.stats.records_skipped == 0
            assert store.get(("t", "new")) == {"v": "n"}

    def test_writer_killed_between_fsyncs(self, tmp_path):
        """A child killed mid-append leaves a loadable good prefix."""
        script = (
            "import os, sys\n"
            "sys.path.insert(0, %r)\n"
            "from repro.store import ResultStore, STORE_FILENAME\n"
            "store = ResultStore(sys.argv[1], fsync=True)\n"
            "store.append(('t', 'synced'), {'v': 1})\n"
            "# Simulate dying between write and fsync: append the next\n"
            "# record's header with no payload, then hard-exit.\n"
            "store._file.write(b'RPS1' + b'\\x00\\x00\\x01\\x00')\n"
            "store._file.flush()\n"
            "os._exit(9)\n"
        ) % str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 9, proc.stderr
        with ResultStore(tmp_path) as store:
            assert store.stats.records_loaded == 1
            assert store.stats.records_skipped == 1
            assert store.get(("t", "synced")) == {"v": 1}


# ----------------------------------------------------------------------
# Typed records: validation on the read path
# ----------------------------------------------------------------------
class TestTypedRecords:
    def test_block_round_trip(self, tmp_path):
        h = triangle()
        (result,) = solve_many([BatchRequest(h, "ghw")])
        width, witness = result.value
        with ResultStore(tmp_path) as store:
            store.put_block(h, "ghd", None, width, witness)
        with ResultStore(tmp_path) as store:
            got = store.get_block(h, "ghd", None)
            assert got is not None
            assert got[0] == width
            assert got[1].width() == pytest.approx(width)
            # Key dimensions matter: other kind/params miss.
            assert store.get_block(h, "hd", None) is None
            assert store.get_block(h, "ghd", {"x": 1}) is None

    def test_keys_keep_the_bb_slot(self, tmp_path):
        """Every record key still carries ``"bb"`` where the engine mode
        once stood, so logs written by earlier versions keep hitting."""
        h = triangle()
        (result,) = solve_many([BatchRequest(h, "ghw")])
        width, witness = result.value
        hh, fp = h.canonical_hash(), params_fingerprint(None)
        with ResultStore(tmp_path) as store:
            store.put_block(h, "ghd", None, width, witness)
            store.put_block_exact(h, "ghd", None, width, witness)
            store.put_check(h, "ghd", 2, None, witness)
            store.put_instance(h, "ghw", None, result.value)
        with ResultStore(tmp_path) as store:
            for key in (
                ("block", hh, "ghd", "bb", fp),
                ("block-exact", hh, "ghd", "bb", fp),
                ("check", hh, "ghd", 2.0, "bb", fp),
                ("instance", hh, "ghw", "bb", fp),
            ):
                assert store.get(key) is not None, key

    def test_block_corrupt_witness_is_a_miss(self, tmp_path):
        h = triangle()
        with ResultStore(tmp_path) as store:
            store.append(
                ("block", h.canonical_hash(), "ghd", "bb", "{}"),
                {"width": 2, "witness": {"nonsense": True}},
            )
            assert store.get_block(h, "ghd", None) is None

    def test_block_understated_width_is_a_miss(self, tmp_path):
        """A witness wider than the claimed width must not be served."""
        h = triangle()
        (result,) = solve_many([BatchRequest(h, "ghw")])
        width, witness = result.value
        with ResultStore(tmp_path) as store:
            store.append(
                ("block", h.canonical_hash(), "ghd", "bb", "{}"),
                {"width": width - 1, "witness": witness.as_dict()},
            )
            assert store.get_block(h, "ghd", None) is None

    def test_check_round_trip_accept_and_reject(self, tmp_path):
        h = triangle()
        (acc,) = solve_many([BatchRequest(h, "check-ghd", {"k": 2})])
        with ResultStore(tmp_path) as store:
            store.put_check(h, "ghd", 2, None, acc.value)
            store.put_check(h, "ghd", 1, None, None)
        with ResultStore(tmp_path) as store:
            accepted, witness = store.get_check(h, "ghd", 2, None)
            assert accepted and witness.width() <= 2 + 1e-9
            assert store.get_check(h, "ghd", 1, None) == (False, None)
            assert store.get_check(h, "ghd", 3, None) is None

    def test_check_non_boolean_verdict_is_a_miss(self, tmp_path):
        """``accepted`` is a JSON boolean or the record is malformed."""
        h = triangle()
        (acc,) = solve_many([BatchRequest(h, "check-ghd", {"k": 2})])
        with ResultStore(tmp_path) as store:
            store.append(
                ("check", h.canonical_hash(), "ghd", 2.0, "bb", "{}"),
                {"accepted": "no", "witness": acc.value.as_dict()},
            )
            assert store.get_check(h, "ghd", 2, None) is None

    def test_block_boolean_width_is_a_miss(self, tmp_path):
        """A bool is not a width, even where it would validate as 1."""
        h = path4()
        (result,) = solve_many([BatchRequest(h, "ghw")])
        width, witness = result.value
        assert width == 1
        with ResultStore(tmp_path) as store:
            store.append(
                ("block", h.canonical_hash(), "ghd", "bb", "{}"),
                {"width": True, "witness": witness.as_dict()},
            )
            assert store.get_block(h, "ghd", None) is None

    def test_opaque_params_never_persisted(self, tmp_path):
        h = triangle()
        (result,) = solve_many([BatchRequest(h, "ghw")])
        with ResultStore(tmp_path) as store:
            store.put_instance(h, "ghw", {"fn": lambda: None}, result.value)
            assert len(store) == 0


# ----------------------------------------------------------------------
# Oracle export / import: untrusted entries
# ----------------------------------------------------------------------
class TestOracleImport:
    def _warm_oracle(self):
        h = triangle()
        oracle = CoverOracle(h)
        for bag in (frozenset("xy"), frozenset("xyz")):
            oracle.fractional_cover(bag)
        return h, oracle

    def test_export_import_round_trip(self):
        h, oracle = self._warm_oracle()
        entries = oracle.export_entries()
        assert entries
        fresh = CoverOracle(h)
        assert fresh.import_entries(entries) == len(entries)
        before = fresh.stats.lp_solves
        # Imported covers are upper-bound hints: feasibility questions
        # they satisfy are answered without an LP solve ...
        for bag in (frozenset("xy"), frozenset("xyz")):
            assert fresh.cover_feasible_within(bag, 1.5)
        assert fresh.stats.lp_solves == before  # served from the import
        # ... but exact ρ* queries never trust them and re-solve.
        cover = fresh.fractional_cover(frozenset("xyz"))
        assert cover is not None and cover.weight == pytest.approx(1.5)
        assert fresh.stats.lp_solves == before + 1

    def test_suboptimal_import_cannot_flip_verdicts(self):
        """A feasible-but-heavy record must never inflate ρ*.

        Regression: imported covers used to land in the authoritative
        cache, so a weight-3 cover of the triangle (ρ* = 1.5) made
        ``cover_feasible_within(bag, 2)`` report False and flipped
        check verdicts.  As a hint it proves only ρ* <= 3.
        """
        h = triangle()
        bag = ["x", "y", "z"]
        heavy = [["frac", sorted(bag), None, {"r": 1.0, "s": 1.0, "t": 1.0}]]
        fresh = CoverOracle(h)
        assert fresh.import_entries(heavy) == 1
        # Within the hint's weight: answered hint-only, no LP.
        assert fresh.cover_feasible_within(bag, 3.0)
        assert fresh.stats.lp_solves == 0
        # Below the hint's weight the LP decides — and says feasible.
        assert fresh.cover_feasible_within(bag, 2.0)
        assert fresh.stats.lp_solves == 1
        assert fresh.fractional_weight(bag) == pytest.approx(1.5)

    def test_capped_import_must_be_purely_fractional(self):
        """'capped' entries with a weight-1 edge are rejected outright."""
        h = triangle()
        bag = sorted(["x", "y", "z"])
        integral = [["capped", bag, None, {"r": 1.0, "s": 1.0, "t": 1.0}]]
        fractional = [["capped", bag, None, {"r": 0.5, "s": 0.5, "t": 0.5}]]
        fresh = CoverOracle(h)
        assert fresh.import_entries(integral) == 0
        assert fresh.import_entries(fractional) == 1
        # Budgeted queries the hint satisfies skip the LP; the
        # unbudgeted (exact-optimum) form always solves.
        gamma = fresh.fractional_cover_capped(bag, budget=1.5)
        assert gamma is not None
        assert gamma.weight == pytest.approx(1.5)
        assert fresh.stats.lp_solves == 0
        exact = fresh.fractional_cover_capped(bag)
        assert exact is not None and exact.weight == pytest.approx(1.5)
        assert fresh.stats.lp_solves > 0

    def test_corrupt_cover_rejected(self):
        h, oracle = self._warm_oracle()
        entries = oracle.export_entries()
        bad = [list(e) for e in entries]
        for entry in bad:
            if entry[3] is not None:
                entry[3] = {name: 0.01 for name in entry[3]}  # not a cover
        fresh = CoverOracle(h)
        assert fresh.import_entries(bad) == 0

    def test_fake_infeasible_rejected(self):
        h, _ = self._warm_oracle()
        # Claim {x, y} has no cover among all edges — a lie.
        fake = [["frac", ["x", "y"], None, None]]
        fresh = CoverOracle(h)
        assert fresh.import_entries(fake) == 0

    def test_malformed_entries_skipped(self):
        h, _ = self._warm_oracle()
        fresh = CoverOracle(h)
        garbage = [
            None,
            [],
            ["frac"],
            ["unknown-kind", ["x"], None, None],
            ["frac", ["not-a-vertex"], None, None],
            ["frac", ["x"], ["not-an-edge"], {"not-an-edge": 1.0}],
        ]
        assert fresh.import_entries(garbage) == 0


# ----------------------------------------------------------------------
# End to end: solve → persist → reload → serve without solving
# ----------------------------------------------------------------------
class TestStoreServing:
    KINDS = ("hw", "ghw", "fhw")

    def test_second_run_is_free(self, tmp_path):
        h1, h2 = triangle(), path4()
        requests = [BatchRequest(h, k) for h in (h1, h2) for k in self.KINDS]
        with ResultStore(tmp_path) as store:
            first, _ = solve_with_store(store, requests)
        with ResultStore(tmp_path) as store:  # fresh handle = "restart"
            second, stats = solve_with_store(store, requests)
        assert stats.store_instance_hits == len(requests)
        assert stats.tasks_run == 0
        assert stats.lp_solves == 0
        for a, b in zip(first, second):
            assert b.ok
            assert b.value[0] == pytest.approx(a.value[0])

    def test_block_seeding_after_partial_damage(self, tmp_path):
        """Losing the tail costs recomputation, never correctness."""
        h = triangle()
        with ResultStore(tmp_path) as store:
            (first,), _ = solve_with_store(store, [BatchRequest(h, "ghw")])
        log = tmp_path / STORE_FILENAME
        log.write_bytes(log.read_bytes()[:-11])  # tear the last record
        with ResultStore(tmp_path) as store:
            assert store.stats.records_skipped == 1
            (again,), _ = solve_with_store(store, [BatchRequest(h, "ghw")])
        assert again.ok
        assert again.value[0] == first.value[0]

    def test_boolean_width_instance_record_is_a_miss(self, tmp_path):
        h = path4()
        with ResultStore(tmp_path / "a") as store:
            (first,), _ = solve_with_store(store, [BatchRequest(h, "ghw")])
            (key,) = [k for k in store._index if k[0] == "instance"]
        assert first.value[0] == 1
        with ResultStore(tmp_path / "b") as store:
            store.append(
                key, {"width": True, "witness": first.value[1].as_dict()}
            )
            (again,), stats = solve_with_store(store, [BatchRequest(h, "ghw")])
        assert stats.store_instance_hits == 0
        assert again.ok and again.value[0] == 1

    def test_int_vertex_instance_hits_the_store(self, tmp_path):
        """Bags round-trip through the hypergraph's ``{str(v): v}`` table."""
        h = Hypergraph({"a": [1, 2], "b": [2, 3]})
        request = BatchRequest(h, "ghw")
        with ResultStore(tmp_path) as store:
            (first,), _ = solve_with_store(store, [request])
            (second,), stats = solve_with_store(store, [request])
        assert stats.store_instance_hits == 1
        width, witness = second.value
        assert width == first.value[0] == 1
        assert all(
            isinstance(v, int)
            for nid in witness.node_ids
            for v in witness.bag(nid)
        )
        validate(h, witness, kind="ghd", width=width)

    def test_failed_writes_are_counted_and_logged(self, tmp_path, caplog):
        """A full disk costs persistence, never the answer, and never
        silently: each failed write-back is counted and logged."""

        def full_disk(*args, **kwargs):
            raise OSError("No space left on device")

        with ResultStore(tmp_path) as store:
            store.append = full_disk
            with caplog.at_level("WARNING", logger="repro.pipeline.batch"):
                (result,), stats = solve_with_store(
                    store, [BatchRequest(triangle(), "ghw")]
                )
            assert len(store) == 0
        assert result.ok and result.value[0] == 2
        # One block verdict and one instance record, both lost.
        assert stats.store_write_errors == 2
        assert stats.as_dict()["store_write_errors"] == 2
        failures = [r for r in caplog.records if "store write" in r.message]
        assert len(failures) == 2
        assert all("No space left" in r.message for r in failures)

    def test_fresh_process_round_trip(self, tmp_path):
        """The acceptance check, cross-process: restart really is free."""
        script = (
            "import json, sys\n"
            "sys.path.insert(0, %r)\n"
            "from repro.hypergraph import Hypergraph\n"
            "from repro.pipeline import BatchRequest\n"
            "from repro.pipeline.batch import BatchScheduler\n"
            "from repro.store import ResultStore\n"
            "h = Hypergraph(json.loads(sys.argv[2]))\n"
            "with ResultStore(sys.argv[1]) as store:\n"
            "    s = BatchScheduler(store=store)\n"
            "    handles = [s.submit(BatchRequest(h, k))"
            " for k in ('hw', 'ghw', 'fhw')]\n"
            "    s.run()\n"
            "    print(json.dumps({\n"
            "        'widths': [r.value[0] for r in handles],\n"
            "        'hits': s.last_stats.store_instance_hits,\n"
            "        'tasks': s.last_stats.tasks_run,\n"
            "        'lp': s.last_stats.lp_solves,\n"
            "    }))\n"
        ) % str(REPO_ROOT / "src")
        edges = {"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]}

        def run():
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path), json.dumps(edges)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        cold, warm = run(), run()
        assert cold["hits"] == 0
        assert warm["hits"] == 3
        assert warm["tasks"] == 0 and warm["lp"] == 0
        assert warm["widths"] == cold["widths"]

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(h=hypergraphs(max_vertices=6, max_edges=5), data=st.data())
    def test_round_trip_property(self, h, data, tmp_path_factory):
        """∀ hypergraphs: persist + reload serves identical widths
        with re-validated witnesses and no solving."""
        kind = data.draw(st.sampled_from(["hw", "ghw", "fhw"]), label="kind")
        base = tmp_path_factory.mktemp("store")
        with ResultStore(base) as store:
            (first,), _ = solve_with_store(store, [BatchRequest(h, kind)])
        with ResultStore(base) as store:
            (second,), stats = solve_with_store(store, [BatchRequest(h, kind)])
        assert first.ok and second.ok
        assert stats.store_instance_hits == 1
        assert stats.tasks_run == 0 and stats.lp_solves == 0
        assert second.value[0] == pytest.approx(first.value[0])
        witness = second.value[1]
        if witness is not None:
            # Served witnesses passed checked_witness on the way out.
            assert witness.width() <= first.value[0] + 1e-6


# ----------------------------------------------------------------------
# The perf harness's patch points
# ----------------------------------------------------------------------
class TestTracerHooks:
    def test_every_layer_is_patchable(self):
        """``perfbench/tracer.py`` wraps store lookups, re-validation
        and every other layer by name; a renamed one would silently
        drop out of the per-layer metrics."""
        script = (
            "import json, sys\n"
            "sys.path[:0] = [%r, %r]\n"
            "from tracer import Recorder, install\n"
            "print(json.dumps(install(Recorder())))\n"
        ) % (str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench"))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

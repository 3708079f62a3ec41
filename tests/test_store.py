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
* **on-disk index** — memory holds one int per record, not the
  record; every read re-checks the frame on disk, so a record changed
  after open is a counted, logged miss that is recomputed;
* **untrusted input** — stored witnesses are re-validated before use;
  the cover-LP ``oracle`` records older logs hold load but are never
  read, so even a hostile one cannot move an answer.
"""

import json
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.approx import frac_decomp
from repro.decomposition import validate
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import cycle, grid
from repro.pipeline import BatchRequest, solve_many
from repro.pipeline.batch import BatchScheduler
from repro.store import (
    STORE_FILENAME,
    ResultStore,
    answer_payload,
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
    return handles, scheduler.run()


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

    def test_unserializable_params_raise(self):
        # No sentinel: checked request params are JSON, except the
        # PTAAS's find_fhd, whose kind never reaches the store.
        with pytest.raises(TypeError):
            params_fingerprint({"find_fhd": lambda h: None})


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
    def test_append_get_and_first_write_wins(self, tmp_path):
        with ResultStore(tmp_path) as store:
            assert store.append(("t", "k1"), {"v": 1})
            for again in ({"v": 2}, {"v": 1}):  # immutable, even re-sent
                assert not store.append(("t", "k1"), again)
            assert store.get(("t", "k1")) == {"v": 1}
            assert ("t", "k1") in store and len(store) == 1
            assert store.stats.records_appended == 1

    def test_get_returns_a_fresh_copy(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.append(("t", 1), {"v": [1]})
            store.get(("t", 1))["v"].append(2)
            assert store.get(("t", 1)) == {"v": [1]}

    def test_reload_sees_first_values(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.append(("a", 1), {"v": 1})
            store.append(("b", 2), {"v": 2})
            assert not store.append(("a", 1), {"v": 9})
        with ResultStore(tmp_path) as store:
            assert store.stats.records_loaded == 2
            assert store.stats.records_skipped == 0
            assert len(store) == 2
            assert store.get(("a", 1)) == {"v": 1}
            assert not store.append(("a", 1), {"v": 9})  # across reopens

    def test_last_frame_wins_on_reload(self, tmp_path):
        """A log holding one key twice (appends never write one) loads
        its last frame."""
        log = _fill(tmp_path, n=1)
        payload = json.dumps({"key": ["t", 0], "value": {"v": 7}}).encode()
        frame = _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload))
        log.write_bytes(log.read_bytes() + frame + payload)
        with ResultStore(tmp_path) as store:
            assert store.stats.records_loaded == 2
            assert store.stats.entries == len(store) == 1
            assert store.get(("t", 0)) == {"v": 7}

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

    def test_flipped_payload_byte_fails_crc(self, tmp_path, caplog):
        log = _fill(tmp_path)
        data = bytearray(log.read_bytes())
        # Corrupt one byte inside the *first* record's payload: that
        # frame is skipped, and the log behind it still loads.
        data[_HEADER.size + 4] ^= 0xFF
        log.write_bytes(bytes(data))
        with caplog.at_level("WARNING", logger="repro.store.log"):
            with ResultStore(tmp_path) as store:
                assert store.stats.records_loaded == 3
                assert store.stats.records_damaged == 1
                assert store.stats.records_skipped == 0
                assert store.stats.bytes_valid == len(data)
                assert store.get(("t", 0)) is None
                assert store.get(("t", 3)) == {"v": 3}
        assert ["fails its CRC" in r.message for r in caplog.records] == [True]

    def test_damaged_last_frame_is_the_truncation_point(self, tmp_path):
        log = _fill(tmp_path, n=2)
        data = bytearray(log.read_bytes())
        data[-2] ^= 0xFF  # inside the last record's payload
        log.write_bytes(bytes(data))
        with ResultStore(tmp_path) as store:
            assert store.stats.records_damaged == 1
            assert store.stats.records_loaded == 1
            store.append(("t", "new"), {"v": "n"})
        with ResultStore(tmp_path) as store:
            assert len(store) == 2 and store.stats.records_damaged == 0
            assert store.get(("t", "new")) == {"v": "n"}

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

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"key": [["a"]], "value": {}}',  # unhashable key part
            b'{"key": "ab", "value": {}}',  # would load as ("a", "b")
            b'{"key": {"x": 1}, "value": {}}',  # would load as ("x",)
            b'{"key": ["t"]}',  # no value
            b'["key", "value"]',  # not an object
            b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
        ],
        ids=["nested-key", "string-key", "object-key", "no-value",
             "array-record", "deep"],
    )
    def test_crc_valid_bad_record_ends_the_good_prefix(self, tmp_path, payload):
        """A crafted frame whose CRC holds must not stop the store from
        opening, nor load under a key nobody wrote."""
        log = _fill(tmp_path, n=1)
        bad = _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload)) + payload
        log.write_bytes(log.read_bytes() + bad)
        with ResultStore(tmp_path) as store:
            assert store.stats.records_loaded == 1
            assert store.stats.records_skipped == 1
            assert list(store._index) == [("t", 0)]
            assert store.get(("t", 0)) == {"v": 0}

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


class TestOnDiskIndex:
    """Memory holds where each record is, not the record: every read
    goes back to the log and re-checks the frame."""

    def test_record_changed_after_open_is_a_counted_miss(
        self, tmp_path, caplog
    ):
        h = triangle()
        kinds = ("fhw", "ghw")
        baseline = solve_many([BatchRequest(h, kind) for kind in kinds])
        solve_many([BatchRequest(h, kind) for kind in kinds], store=tmp_path)
        with ResultStore(tmp_path) as store:
            keys = [k for k in store._index if k[0] == "instance"]
            assert len(keys) == 2
            # Flip one byte inside every instance record, behind the
            # open handle's back.
            log = tmp_path / STORE_FILENAME
            data = log.read_bytes()
            with open(log, "r+b") as f:
                start = data.find(b'{"key": ["instance"')
                while start != -1:
                    f.seek(start + 1)
                    f.write(bytes([data[start + 1] ^ 0x01]))
                    start = data.find(b'{"key": ["instance"', start + 1)
            with caplog.at_level("WARNING", logger="repro.store.log"):
                assert store.get(keys[0]) is None
                assert store.stats.records_damaged == 1
                assert keys[0] not in store
                assert store.get(keys[0]) is None  # now a plain miss
                assert store.stats.records_damaged == 1
                appended = store.stats.records_appended
                stored = solve_many(
                    [BatchRequest(h, kind) for kind in kinds], store=store
                )
            assert store.stats.records_damaged == 2
            # Both recomputed instance verdicts were appended again.
            assert store.stats.records_appended == appended + 2
            assert all(key in store for key in keys)
            assert all(store.get(key) is not None for key in keys)
        damaged = [r for r in caplog.records if "changed on disk" in r.message]
        assert len(damaged) == 2
        for kind, want, got in zip(kinds, baseline, stored):
            assert got.ok
            assert answer_payload(kind, got.value) == answer_payload(
                kind, want.value
            )

    def test_damaged_record_keeps_the_log_behind_it(self, tmp_path):
        """A record damaged while open and then re-appended: a reopen
        loads every record, and the next append keeps them all."""
        log = tmp_path / STORE_FILENAME
        with ResultStore(tmp_path) as store:
            for i in range(100):
                store.append(("t", i), {"v": i})
            with open(log, "r+b") as f:  # record 0's payload, byte 4
                f.seek(_HEADER.size + 4)
                byte = f.read(1)[0]
                f.seek(_HEADER.size + 4)
                f.write(bytes([byte ^ 0xFF]))
            assert store.get(("t", 0)) is None
            assert store.append(("t", 0), {"v": 0})
        with ResultStore(tmp_path) as store:
            assert store.stats.records_loaded == 100
            assert store.stats.records_damaged == 1
            assert store.append(("t", "next"), {"v": "next"})
        with ResultStore(tmp_path) as store:
            assert len(store) == 101
            assert all(store.get(("t", i)) == {"v": i} for i in range(100))

    def test_index_holds_offsets_not_records(self, tmp_path):
        """500 records of ~4 KiB grow traced memory by well under their
        payloads: the index keeps a key and one int per record."""
        value = {"witness": "x" * 4096}
        with ResultStore(tmp_path) as store:
            store.append(("warm-up",), value)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for i in range(500):
                    store.append(("instance", f"{i:064x}", "fhw", "bb", "{}"),
                                 value)
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(store) == 501
            assert grown < 512 * 500
            assert store.get(("instance", f"{499:064x}", "fhw", "bb", "{}")) \
                == value

    def test_reads_and_writes_after_close_raise(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(("t", 1), {"v": 1})
        store.close()
        with pytest.raises(ValueError):
            store.get(("t", 1))
        with pytest.raises(ValueError):
            store.get(("t", 2))
        with pytest.raises(ValueError):
            store.append(("t", 3), {"v": 3})

    READERS = (os.cpu_count() or 1) + 2

    def _race(self, targets):
        """Run each target on its own thread with a short switch
        interval; every thread must finish within the timeout."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [
            threading.Thread(target=target, daemon=True) for target in targets
        ]
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    def test_lock_free_reads_race_appends(self, tmp_path):
        """Readers pread while a writer seeks and appends: every read
        sees the value written, and no frame is ever counted damaged."""
        with ResultStore(tmp_path) as store:
            store.append(("t", 0), {"v": 0})
            done = threading.Event()
            errors = []

            def write():
                try:
                    for i in range(1, 300):
                        store.append(("t", i), {"v": i})
                finally:
                    done.set()

            def read():
                rng = random.Random(threading.get_ident())
                while not done.is_set():
                    i = rng.randrange(len(store))  # keys 0..len-1 exist
                    if store.get(("t", i)) != {"v": i}:
                        errors.append(i)

            self._race([write] + [read] * self.READERS)
            assert len(store) == 300
            assert errors == []
            assert store.stats.records_damaged == 0

    def test_concurrent_readers_count_a_damaged_record_once(
        self, tmp_path, caplog
    ):
        log = _fill(tmp_path, n=2)
        with ResultStore(tmp_path) as store:
            data = log.read_bytes()
            with open(log, "r+b") as f:
                f.seek(_HEADER.size + 2)  # inside record ("t", 0)
                f.write(bytes([data[_HEADER.size + 2] ^ 0x01]))
            misses = []
            with caplog.at_level("WARNING", logger="repro.store.log"):
                self._race(
                    [lambda: misses.append(store.get(("t", 0)))]
                    * self.READERS
                )
            assert misses == [None] * self.READERS
            assert store.stats.records_damaged == 1
            assert store.stats.entries == len(store) == 1
            assert store.get(("t", 1)) == {"v": 1}
        damaged = [r for r in caplog.records if "changed on disk" in r.message]
        assert len(damaged) == 1


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

    def test_unchecked_params_never_reach_the_store(self, tmp_path):
        h = triangle()
        with ResultStore(tmp_path) as store:
            bad, ptaas = solve_many(
                [
                    BatchRequest(h, "ghw", {"fn": lambda: None}),
                    BatchRequest(
                        h, "fhw-approximation",
                        {"K": 2.0, "eps": 0.5, "find_fhd": frac_decomp},
                    ),
                ],
                store=store,
            )
            assert isinstance(bad.error, ValueError)
            assert "unknown params for 'ghw': 'fn'" in str(bad.error)
            assert ptaas.ok
            assert len(store) == 0


# ----------------------------------------------------------------------
# Logs written before the oracle records were retired
# ----------------------------------------------------------------------
def square() -> Hypergraph:
    return Hypergraph(
        {"a": ["1", "2"], "b": ["2", "3"], "c": ["3", "4"], "d": ["4", "1"]}
    )


class TestLegacyOracleRecords:
    """Old logs hold ``("oracle", hash)`` cover-LP records (entries
    ``[kind, bag, allowed, weights]``); they load and are never read."""

    REQUESTS = [
        (h, kind, params)
        for h in (triangle(), square())
        for kind, params in [("fhw", {})] + [
            ("check-fhd-bd", {"k": k}) for k in (1.0, 1.5, 2.0)
        ]
    ]

    def _legacy_log(self, path):
        """A store with one well-formed and one hostile oracle record."""
        with ResultStore(path) as store:
            # Well-formed: the square's optimal cover (ρ* = 2).
            store.append(
                ("oracle", square().canonical_hash()),
                {"entries": [
                    ["frac", ["1", "2", "3", "4"], None, {"a": 1.0, "c": 1.0}],
                ]},
            )
            # Hostile: a weight-3 "cover" of the triangle (ρ* = 1.5).
            store.append(
                ("oracle", triangle().canonical_hash()),
                {"entries": [
                    ["frac", ["x", "y", "z"], None,
                     {"r": 1.0, "s": 1.0, "t": 1.0}],
                    ["capped", ["x", "y", "z"], None,
                     {"r": 1.0, "s": 1.0, "t": 1.0}],
                ]},
            )

    def test_legacy_log_reopens_and_answers_as_without_a_store(
        self, tmp_path, monkeypatch
    ):
        self._legacy_log(tmp_path)
        read = []
        original_get = ResultStore.get

        def spying_get(store, key):
            read.append(tuple(key)[0])
            return original_get(store, key)

        monkeypatch.setattr(ResultStore, "get", spying_get)
        baseline = solve_many(
            [BatchRequest(h, kind, dict(p)) for h, kind, p in self.REQUESTS]
        )
        with ResultStore(tmp_path) as store:
            assert store.stats.records_loaded == 2
            assert store.stats.records_skipped == 0
            assert store.type_counts() == {"oracle": 2}
            stored, _stats = solve_with_store(
                store,
                [BatchRequest(h, kind, dict(p)) for h, kind, p in self.REQUESTS],
            )
            assert store.type_counts()["oracle"] == 2
        assert read and "oracle" not in read
        for (_h, kind, _p), want, got in zip(self.REQUESTS, baseline, stored):
            assert got.ok
            assert answer_payload(kind, got.value) == answer_payload(
                kind, want.value
            )
        assert [r.value is not None for r in stored[1:4]] == [
            False, True, True,
        ]
        assert stored[0].value[0] == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "entries",
        [
            # Not a cover: every weight far below what a vertex needs.
            [["frac", ["x", "y", "z"], None,
              {"r": 0.01, "s": 0.01, "t": 0.01}]],
            # A false "no cover exists" claim for a coverable bag.
            [["frac", ["x", "y"], None, None]],
            # A "capped" cover with weight-1 edges, the Algorithm 3
            # check 2.a form that must be purely fractional.
            [["capped", ["x", "y", "z"], None,
              {"r": 1.0, "s": 1.0, "t": 1.0}]],
            # Malformed entries of every shape.
            [None, [], ["frac"], ["unknown-kind", ["x"], None, None],
             ["frac", ["not-a-vertex"], None, None],
             ["frac", ["x"], ["not-an-edge"], {"not-an-edge": 1.0}]],
        ],
        ids=["not-a-cover", "fake-infeasible", "integral-capped", "malformed"],
    )
    def test_hostile_legacy_record_cannot_move_an_answer(
        self, tmp_path, entries
    ):
        h = triangle()
        requests = [("fhw", {})] + [
            ("check-fhd-bd", {"k": k}) for k in (1.4, 1.5)
        ]
        baseline = solve_many(
            [BatchRequest(h, kind, dict(p)) for kind, p in requests]
        )
        with ResultStore(tmp_path) as store:
            store.append(("oracle", h.canonical_hash()), {"entries": entries})
        with ResultStore(tmp_path) as store:
            assert store.type_counts() == {"oracle": 1}
            stored, _stats = solve_with_store(
                store,
                [BatchRequest(h, kind, dict(p)) for kind, p in requests],
            )
        for (kind, _p), want, got in zip(requests, baseline, stored):
            assert got.ok
            assert answer_payload(kind, got.value) == answer_payload(
                kind, want.value
            )
        assert stored[0].value[0] == pytest.approx(1.5)
        assert [r.value is not None for r in stored[1:]] == [False, True]

    def test_cold_run_writes_only_answer_records(self, tmp_path):
        kinds = [
            ("hw", {}), ("ghw", {}), ("ghw-exact", {}), ("fhw", {}),
            ("check-ghd", {"k": 2}), ("check-fhd-bd", {"k": 1.5}),
        ]
        requests = [
            BatchRequest(h, kind, dict(params))
            for h in (triangle(), square())
            for kind, params in kinds
        ]
        with ResultStore(tmp_path) as store:
            solve_with_store(store, requests, bounds="none")
            assert set(store.type_counts()) == {
                "block", "block-exact", "check", "instance",
            }


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

    @pytest.mark.parametrize(
        "kind, spelled",
        [("ghw", {"method": "fixpoint"}), ("fhw", {"vertex_limit": 18})],
    )
    def test_default_spelled_repeat_hits_the_empty_params_record(
        self, tmp_path, kind, spelled
    ):
        """Params equal to their defaults are dropped before keying, so
        the repeat is the ``{}`` request and its instance record hits."""
        h = grid(3, 4)
        with ResultStore(tmp_path) as store:
            (first,), _ = solve_with_store(store, [BatchRequest(h, kind)])
        with ResultStore(tmp_path) as store:
            (again,), stats = solve_with_store(
                store, [BatchRequest(h, kind, dict(spelled))]
            )
        assert (stats.tasks_run, stats.store_instance_hits) == (0, 1)
        assert again.request.params == {}
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

    def test_record_failing_revalidation_is_replaced(self, tmp_path, caplog):
        """A CRC-valid record whose witness fails re-validation is a
        counted, logged miss whose recomputed verdict replaces it: the
        next calls hit, and so does a reopened store (the later frame
        wins on load)."""
        h = cycle(3)
        (solved,) = solve_many([(h, "ghw")])
        width, witness = solved.value
        assert width == 2
        key = ("instance", h.canonical_hash(), "ghw", "bb", "{}")
        with ResultStore(tmp_path) as store:
            # Forged: the width-2 witness stored as width 1.
            store.append(key, {"width": 1, "witness": witness.as_dict()})
            (first,) = solve_many([(h, "ghw")], store=store)
            assert first.stats.store_instance_hits == 0
            assert first.stats.store_records_appended >= 1
            assert key in store
            assert first.value[0] == 2
            assert store.stats.records_damaged == 1
            assert "fails re-validation" in caplog.text
            for _call in range(2):
                (again,) = solve_many([(h, "ghw")], store=store)
                assert again.stats.store_instance_hits == 1
                assert again.value[0] == 2
        with ResultStore(tmp_path) as store:
            (reopened,) = solve_many([(h, "ghw")], store=store)
            assert reopened.stats.store_instance_hits == 1
            assert reopened.value[0] == 2
            assert store.stats.records_damaged == 0

    @pytest.mark.parametrize("width", [math.nan, math.inf])
    def test_non_finite_stored_width_is_recomputed(self, tmp_path, width):
        """``json`` reads ``NaN`` and ``Infinity``; a stored width that
        is one is a counted miss, never an answer (a NaN compares false
        with every bound, so it would pass the width checks)."""
        h = cycle(3)
        (solved,) = solve_many([(h, "fhw")])
        assert solved.value[0] == 1.5
        key = ("instance", h.canonical_hash(), "fhw", "bb", "{}")
        with ResultStore(tmp_path) as store:
            store.append(
                key, {"width": width, "witness": solved.value[1].as_dict()}
            )
            (result,) = solve_many([(h, "fhw")], store=store)
            assert result.stats.store_instance_hits == 0
            assert result.value[0] == 1.5
            assert store.stats.records_damaged == 1

    def test_vertices_sharing_a_string_are_never_stored(self, tmp_path):
        """``1`` and ``"1"`` map to one stored bag vertex, so no record
        of such a hypergraph could re-validate: none is written."""
        h = Hypergraph({"e": [1, "1"], "f": ["1", 2], "g": [2, 1]})
        with ResultStore(tmp_path) as store:
            for _call in range(2):
                (result,) = solve_many([(h, "ghw")], store=store)
                assert result.value[0] == 2
                assert result.stats.store_instance_hits == 0
            assert len(store) == 0
            assert store.stats.records_damaged == 0

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
            "    stats = s.run()\n"
            "    print(json.dumps({\n"
            "        'widths': [r.value[0] for r in handles],\n"
            "        'hits': stats.store_instance_hits,\n"
            "        'tasks': stats.tasks_run,\n"
            "        'lp': stats.lp_solves,\n"
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

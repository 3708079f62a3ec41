"""The append-only result log behind :class:`ResultStore`.

Why a log and not a database: the write path of a serving daemon must
be cheap (one append per settled verdict), crash tolerance must be
*structural* rather than transactional (any torn write is detected and
discarded on load), and the whole store must remain dependency-free.
The format is deliberately boring::

    record   := MAGIC(4) | length(4, big-endian) | crc32(4) | payload
    payload  := UTF-8 JSON {"key": [...], "value": {...}}

Loading scans records until the first structural problem — bad magic,
impossible length, CRC mismatch, malformed JSON — and remembers the
byte offset of the last good record.  Everything after it is a
*skipped tail*: reads behave as if those records were never written,
and the next append truncates the file back to the good prefix before
writing.  A writer killed between ``write`` and ``fsync`` therefore
costs at most the unsynced suffix — recomputation, never corruption.

Record vocabulary (all keys start with a type tag):

* ``("block", hhash, kind, solver, params_fp)`` — a settled iterative
  block: ``{"width": k, "witness": {...}}``.  Implies every ``k' < k``
  was rejected, so one record seeds the whole k-search.
* ``("block-exact", hhash, kind, solver, params_fp)`` — a oneshot
  exact-oracle block: ``{"width": w, "witness": {...}}``.
* ``("check", hhash, kind, k, solver, params_fp)`` — one Check(X, k)
  verdict: ``{"accepted": bool, "witness": {...} | null}``.
* ``("instance", hhash, request_kind, solver, params_fp)`` — a full
  request answer (stitched witness), the serve layer's fast path.
* ``("oracle", hhash)`` — exported cover-oracle entries for one
  hypergraph (see :meth:`repro.engine.oracle.CoverOracle.export_entries`).

Witness payloads use the stable JSON schema of
:mod:`repro.decomposition.io`; bag vertices are stringified there, so
round trips are exact for string-vertex hypergraphs (the serving
formats) and safely *miss* — witness validation fails — for exotic
vertex types.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..decomposition import Decomposition, validate
from ..decomposition.io import decomposition_from_dict
from ..hypergraph import Hypergraph

__all__ = [
    "ResultStore",
    "StoreStats",
    "checked_witness",
    "params_fingerprint",
    "STORE_FILENAME",
]

#: File name of the record log inside a store directory.
STORE_FILENAME = "results.log"

#: Per-record frame: magic, payload length, payload CRC32.
_MAGIC = b"RPS1"
_HEADER = struct.Struct(">4sII")

#: Refuse absurd record sizes (a corrupt length field would otherwise
#: make the loader try to read gigabytes before failing the CRC).
_MAX_RECORD_BYTES = 64 * 1024 * 1024

_EPS = 1e-9


def params_fingerprint(params: dict | None) -> str:
    """A stable, order-independent fingerprint of solver parameters.

    Store keys include it so answers computed under different tuning
    parameters (``method``, ``vertex_limit``, enumeration caps, ...)
    never serve each other.  Unfingerprintable values (non-JSON
    objects, e.g. a custom ``find_fhd`` callable) yield the sentinel
    ``"!opaque"``, which matches nothing but itself within one process
    and is never written by the persistence layer — callers skip
    storing such requests.
    """
    if not params:
        return "{}"
    try:
        return json.dumps(params, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        return "!opaque"


def checked_witness(
    hypergraph: Hypergraph,
    payload: dict | None,
    kind: str,
    width: float | None = None,
) -> Decomposition | None:
    """Deserialize and re-validate a stored witness, or None.

    The store is untrusted input: a witness only counts if it parses
    *and* validates as a ``kind`` decomposition of ``hypergraph``
    (within ``width``, when given).  Any failure — malformed JSON
    shape, wrong hypergraph, wrong kind, width too large — degrades to
    a cache miss by returning None.
    """
    try:
        decomposition = decomposition_from_dict(payload)
        validate(hypergraph, decomposition, kind=kind, width=width)
    except (ValueError, KeyError, TypeError, AttributeError):
        return None
    return decomposition


@dataclass
class StoreStats:
    """Load/append counters of one :class:`ResultStore`.

    Attributes
    ----------
    records_loaded : int
        Well-formed records read at open time.
    records_skipped : int
        Records lost to the corrupt/truncated tail at open time (at
        most 1 can be counted — loading stops at the first bad frame —
        so this is 0 or 1; the *bytes* lost are in ``bytes_skipped``).
    records_appended : int
        Records written by this handle since opening.
    bytes_valid : int
        Length of the good log prefix.
    bytes_skipped : int
        Bytes after the good prefix discarded at open time.
    entries : int
        Live keys in the index (last record per key wins).
    """

    records_loaded: int = 0
    records_skipped: int = 0
    records_appended: int = 0
    bytes_valid: int = 0
    bytes_skipped: int = 0
    entries: int = 0

    def as_dict(self) -> dict:
        """The counters as a JSON-ready dictionary."""
        return {
            "records_loaded": self.records_loaded,
            "records_skipped": self.records_skipped,
            "records_appended": self.records_appended,
            "bytes_valid": self.bytes_valid,
            "bytes_skipped": self.bytes_skipped,
            "entries": self.entries,
        }


class ResultStore:
    """A persistent, crash-tolerant map from solve keys to verdicts.

    Parameters
    ----------
    path : str or Path
        Store directory (created if missing); the log lives at
        ``path/results.log``.
    fsync : bool, optional
        Force every append to stable storage before returning (default
        False: the OS flushes on its own schedule, and a crash costs
        only the unsynced suffix — recomputation, not corruption).

    The store is safe for concurrent use from many threads of one
    process (appends serialize on an internal lock).  Concurrent
    *writers in different processes* are not supported — run one
    ``repro serve`` daemon per store directory.
    """

    def __init__(self, path, fsync: bool = False) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.fsync = bool(fsync)
        self.stats = StoreStats()
        self._lock = threading.Lock()
        self._index: dict[tuple, dict] = {}
        self._file = open(self.log_path, "a+b")
        self._load()

    @property
    def log_path(self) -> Path:
        """Path of the append-only record log."""
        return self.path / STORE_FILENAME

    # ------------------------------------------------------------------
    # Log plumbing
    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Index the good log prefix; remember where the bad tail starts."""
        f = self._file
        f.seek(0)
        good = 0
        while True:
            header = f.read(_HEADER.size)
            if len(header) < _HEADER.size:
                break  # clean end of log (or torn header: same treatment)
            magic, length, crc = _HEADER.unpack(header)
            if magic != _MAGIC or length > _MAX_RECORD_BYTES:
                break
            payload = f.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                break
            try:
                record = json.loads(payload.decode("utf-8"))
                key = tuple(record["key"])
                value = record["value"]
            except (ValueError, KeyError, TypeError):
                break
            self._index[key] = value
            self.stats.records_loaded += 1
            good = f.tell()
        f.seek(0, 2)
        end = f.tell()
        self.stats.bytes_valid = good
        self.stats.bytes_skipped = end - good
        if end > good:
            self.stats.records_skipped = 1
        self.stats.entries = len(self._index)
        self._valid_bytes = good

    def append(self, key: tuple, value: dict, overwrite: bool = False) -> bool:
        """Append one record; returns whether anything was written.

        With ``overwrite=False`` (default) an existing key is left
        alone — verdicts are immutable facts, so re-writing them only
        grows the log.  The first append after opening a store with a
        corrupt tail truncates the tail away, keeping the invariant
        that the file is exactly the good prefix plus new records.
        """
        key = tuple(key)
        payload = json.dumps(
            {"key": list(key), "value": value}, sort_keys=True
        ).encode("utf-8")
        header = _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload))
        with self._lock:
            if not overwrite and key in self._index:
                return False
            f = self._file
            f.seek(0, 2)
            if f.tell() != self._valid_bytes:
                f.truncate(self._valid_bytes)
                f.seek(self._valid_bytes)
                self.stats.bytes_skipped = 0
            f.write(header + payload)
            f.flush()
            if self.fsync:
                import os

                os.fsync(f.fileno())
            self._valid_bytes = f.tell()
            self._index[key] = value
            self.stats.records_appended += 1
            self.stats.bytes_valid = self._valid_bytes
            self.stats.entries = len(self._index)
        return True

    def get(self, key: tuple) -> dict | None:
        """The live value of ``key``, or None (raw, un-revalidated)."""
        return self._index.get(tuple(key))

    def __contains__(self, key: tuple) -> bool:
        return tuple(key) in self._index

    def __len__(self) -> int:
        return len(self._index)

    def type_counts(self) -> dict:
        """Live record count per record-type tag (``repro store stats``)."""
        counts: dict[str, int] = {}
        for key in self._index:
            tag = str(key[0]) if key else "?"
            counts[tag] = counts.get(tag, 0) + 1
        return dict(sorted(counts.items()))

    def close(self) -> None:
        """Close the log file handle (reads/writes after this raise)."""
        self._file.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Typed records
    # ------------------------------------------------------------------
    @staticmethod
    def _knorm(k) -> float:
        return round(float(k), 9)

    def put_block(
        self,
        hypergraph: Hypergraph,
        kind: str,
        solver: str,
        params: dict | None,
        width: int,
        witness: Decomposition,
    ) -> None:
        """Persist a settled iterative block: its width and witness."""
        fp = params_fingerprint(params)
        if fp == "!opaque":
            return
        self.append(
            ("block", hypergraph.canonical_hash(), kind, solver, fp),
            {"width": int(width), "witness": witness.as_dict()},
        )

    def get_block(
        self,
        hypergraph: Hypergraph,
        kind: str,
        solver: str,
        params: dict | None,
    ) -> tuple[int, Decomposition] | None:
        """A validated ``(width, witness)`` for the block, or None."""
        value = self.get(
            (
                "block",
                hypergraph.canonical_hash(),
                kind,
                solver,
                params_fingerprint(params),
            )
        )
        if not isinstance(value, dict):
            return None
        width = value.get("width")
        if not isinstance(width, int) or width < 1:
            return None
        witness = checked_witness(
            hypergraph, value.get("witness"), kind, width=width + _EPS
        )
        return None if witness is None else (width, witness)

    def put_block_exact(
        self,
        hypergraph: Hypergraph,
        kind: str,
        solver: str,
        params: dict | None,
        width: float,
        witness: Decomposition,
    ) -> None:
        """Persist a oneshot exact-oracle block result."""
        fp = params_fingerprint(params)
        if fp == "!opaque":
            return
        self.append(
            ("block-exact", hypergraph.canonical_hash(), kind, solver, fp),
            {"width": float(width), "witness": witness.as_dict()},
        )

    def get_block_exact(
        self,
        hypergraph: Hypergraph,
        kind: str,
        solver: str,
        params: dict | None,
    ) -> tuple[float, Decomposition] | None:
        """A validated oneshot ``(width, witness)``, or None."""
        value = self.get(
            (
                "block-exact",
                hypergraph.canonical_hash(),
                kind,
                solver,
                params_fingerprint(params),
            )
        )
        if not isinstance(value, dict):
            return None
        width = value.get("width")
        if not isinstance(width, (int, float)) or width < 1 - _EPS:
            return None
        witness = checked_witness(
            hypergraph, value.get("witness"), kind, width=float(width) + _EPS
        )
        return None if witness is None else (float(width), witness)

    def put_check(
        self,
        hypergraph: Hypergraph,
        kind: str,
        k,
        solver: str,
        params: dict | None,
        witness: Decomposition | None,
    ) -> None:
        """Persist one Check(X, k) verdict (None witness = rejected)."""
        fp = params_fingerprint(params)
        if fp == "!opaque":
            return
        self.append(
            (
                "check",
                hypergraph.canonical_hash(),
                kind,
                self._knorm(k),
                solver,
                fp,
            ),
            {
                "accepted": witness is not None,
                "witness": None if witness is None else witness.as_dict(),
            },
        )

    def get_check(
        self,
        hypergraph: Hypergraph,
        kind: str,
        k,
        solver: str,
        params: dict | None,
    ):
        """A stored Check verdict: ``(accepted, witness)`` or None.

        An *accepted* record whose witness fails re-validation is a
        miss (never trust the log); a *rejected* record needs no
        witness and is returned as ``(False, None)``.
        """
        value = self.get(
            (
                "check",
                hypergraph.canonical_hash(),
                kind,
                self._knorm(k),
                solver,
                params_fingerprint(params),
            )
        )
        if not isinstance(value, dict):
            return None
        if not value.get("accepted"):
            return (False, None)
        witness = checked_witness(
            hypergraph, value.get("witness"), kind, width=float(k) + _EPS
        )
        return None if witness is None else (True, witness)

    def put_instance(
        self,
        hypergraph: Hypergraph,
        request_kind: str,
        solver: str,
        params: dict | None,
        value: dict,
    ) -> None:
        """Persist a full request answer (the serve layer's fast path)."""
        fp = params_fingerprint(params)
        if fp == "!opaque":
            return
        self.append(
            ("instance", hypergraph.canonical_hash(), request_kind, solver, fp),
            value,
        )

    def get_instance(
        self,
        hypergraph: Hypergraph,
        request_kind: str,
        solver: str,
        params: dict | None,
    ) -> dict | None:
        """The raw stored answer for a full request, or None.

        Witness re-validation is the caller's job (the serve layer
        validates against the request's own hypergraph and kind).
        """
        return self.get(
            (
                "instance",
                hypergraph.canonical_hash(),
                request_kind,
                solver,
                params_fingerprint(params),
            )
        )

    def put_oracle_entries(
        self, hypergraph: Hypergraph, entries: list
    ) -> None:
        """Persist exported cover-oracle entries for one hypergraph.

        Overwrites the previous export (the newest snapshot subsumes
        older, smaller ones).  Empty exports are not written.
        """
        if entries:
            self.append(
                ("oracle", hypergraph.canonical_hash()),
                {"entries": entries},
                overwrite=True,
            )

    def get_oracle_entries(self, hypergraph: Hypergraph) -> list:
        """The stored oracle export for a hypergraph ([] when absent)."""
        value = self.get(("oracle", hypergraph.canonical_hash()))
        if not isinstance(value, dict):
            return []
        entries = value.get("entries")
        return entries if isinstance(entries, list) else []

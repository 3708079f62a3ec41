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

Record vocabulary (all keys start with a type tag; every value but the
oracle export is an :func:`answer_payload`, read back through
:func:`answer_from_payload` and :func:`checked_witness`):

* ``("block", hhash, kind, "bb", params_fp)`` — a settled iterative
  block: ``{"width": k, "witness": {...}}``.  Implies every ``k' < k``
  was rejected, so one record seeds the whole k-search.
* ``("block-exact", hhash, kind, "bb", params_fp)`` — a oneshot
  exact-oracle block: ``{"width": w, "witness": {...}}``.
* ``("check", hhash, kind, k, "bb", params_fp)`` — one Check(X, k)
  verdict: ``{"accepted": bool, "witness": {...} | null}``.
* ``("instance", hhash, request_kind, "bb", params_fp)`` — a full
  request answer (stitched witness), the serve layer's fast path.

The ``"bb"`` slot once named the engine mode; it stays a constant so
logs written by earlier versions keep hitting.
* ``("oracle", hhash)`` — exported cover-oracle entries for one
  hypergraph (see :meth:`repro.engine.oracle.CoverOracle.export_entries`).

Witness payloads use the stable JSON schema of
:mod:`repro.decomposition.io`; bag vertices are stringified there and
map back through the hypergraph's ``{str(v): v}`` table, so int-vertex
hypergraphs round-trip too.  The canonical hash tags vertex types, so
a bag mapped to the wrong vertices fails validation: a miss.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

from ..decomposition import Decomposition, validate
from ..decomposition.io import decomposition_from_dict
from ..hypergraph import Hypergraph

__all__ = [
    "ResultStore",
    "StoreStats",
    "answer_payload",
    "answer_from_payload",
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
    payload: dict | Decomposition | None,
    kind: str,
    width: float | None = None,
) -> Decomposition | None:
    """Deserialize and re-validate a stored witness, or None.

    The store is untrusted input: a witness (an ``as_dict()`` payload
    or a decoded one) only counts if it parses *and* validates as a
    ``kind`` decomposition of ``hypergraph`` (within ``width``, when
    given).  Any failure — malformed JSON shape, wrong hypergraph,
    wrong kind, width too large — degrades to a cache miss by
    returning None.
    """
    try:
        if not isinstance(payload, Decomposition):
            vertices = {str(v): v for v in hypergraph.vertices}
            payload = decomposition_from_dict(payload, vertices)
        validate(hypergraph, payload, kind=kind, width=width)
    except (ValueError, KeyError, TypeError, AttributeError):
        return None
    return payload


def _answer_shape(kind: str) -> str:
    """The answer schema of a batch kind, a block-task solver name or a
    record tag."""
    if kind.startswith("check"):
        return "check"
    if kind in ("bounds", "heuristic-bounds"):
        return "bounds"
    return "approximation" if kind == "fhw-approximation" else "width"


def answer_payload(kind: str, value) -> dict:
    """Encode a resolved value in the store's answer schema.

    ``kind`` is a batch kind, a :data:`~repro.pipeline.solve.SOLVERS`
    name or a record tag; ``fhw-approximation`` encodes the fields of
    its result.
    """
    shape = _answer_shape(kind)
    if shape == "check":
        return {
            "accepted": value is not None,
            "witness": None if value is None else value.as_dict(),
        }
    if shape == "bounds":
        lower, width, witness = value
        return {
            "lower": float(lower),
            "width": float(width),
            "witness": witness.as_dict(),
        }
    if shape == "approximation":
        found = value.decomposition
        return {
            "decomposition": None if found is None else found.as_dict(),
            "width": value.width,
            "iterations": value.iterations,
            "trace": value.trace,
        }
    width, witness = value
    return {"width": width, "witness": witness.as_dict()}


def answer_from_payload(kind: str, payload, hypergraph: Hypergraph):
    """Decode an :func:`answer_payload`; ``ValueError`` if malformed.

    ``accepted`` must be a JSON boolean and every number an int or float
    (not a bool).  Witness bags map back through ``hypergraph``'s
    ``{str(v): v}`` table; they are not validated here.
    """
    vertices = {str(v): v for v in hypergraph.vertices}

    def number(value, nullable=False):
        if type(value) not in (int, float) and not (nullable and value is None):
            raise ValueError(f"{value!r} is not a number")
        return value

    def witness(key, nullable=False):
        found = payload[key]
        if nullable and found is None:
            return None
        return decomposition_from_dict(found, vertices)

    shape = _answer_shape(kind)
    try:
        if shape == "check":
            accepted = payload["accepted"]
            if type(accepted) is not bool:
                raise ValueError(f"{accepted!r} is not a boolean")
            return witness("witness") if accepted else None
        if shape == "bounds":
            lower, width = number(payload["lower"]), number(payload["width"])
            return lower, width, witness("witness")
        if shape == "approximation":
            from ..algorithms.approx import FHWApproximationResult  # lazy

            trace = [
                (float(number(a)), float(number(b)), c is True)
                for a, b, c in payload["trace"]
            ]
            return FHWApproximationResult(
                witness("decomposition", nullable=True),
                number(payload["width"], nullable=True),
                int(number(payload["iterations"])),
                trace,
            )
        return number(payload["width"]), witness("witness")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed {kind} answer: {exc}") from None


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
        return asdict(self)


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
        # key -> the record's encoded payload, decoded on every read:
        # bytes hold a fraction of the memory of the decoded JSON tree,
        # and a read can never hand out the live value.
        self._index: dict[tuple, bytes] = {}
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
            except (ValueError, KeyError, TypeError):
                break
            if "value" not in record:
                break
            self._index[key] = payload
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
            self._index[key] = payload
            self.stats.records_appended += 1
            self.stats.bytes_valid = self._valid_bytes
            self.stats.entries = len(self._index)
        return True

    def get(self, key: tuple) -> dict | None:
        """A fresh copy of the live value of ``key``, or None (raw,
        un-revalidated)."""
        payload = self._index.get(tuple(key))
        return None if payload is None else json.loads(payload)["value"]

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
    def _key(tag: str, hypergraph: Hypergraph, *dims, params) -> tuple:
        # ``"bb"`` fills the slot that once named the engine mode, so
        # logs written while several engines existed keep hitting.
        fp = params_fingerprint(params)
        return (tag, hypergraph.canonical_hash(), *dims, "bb", fp)

    def _put(self, key: tuple, kind: str, value) -> None:
        if key[-1] != "!opaque":
            self.append(key, answer_payload(kind, value))

    def _answer(
        self, key: tuple, hypergraph: Hypergraph, kind: str, dkind: str, k=None
    ) -> tuple | None:
        """The ``kind`` answer at ``key`` as ``(value,)``, or None.

        Its witness must re-validate as a ``dkind`` decomposition of
        ``hypergraph`` within ``k`` (check kinds) or its stored width.
        A rejection has no witness: it is trusted *self-authored* data,
        CRC-protected and keyed by the collision-resistant canonical
        hash, though a deliberately tampered log could forge one
        (delete the store to recompute from scratch).
        """
        payload = self.get(key)
        if payload is None:
            return None
        try:
            value = answer_from_payload(kind, payload, hypergraph)
        except ValueError:
            return None
        if _answer_shape(kind) == "check":
            if value is None:
                return (None,)
            bound, witness = k, value
        else:
            bound, witness = value[-2:]
        if bound < 1 - _EPS or checked_witness(
            hypergraph, witness, dkind, width=float(bound) + _EPS
        ) is None:
            return None
        return (value,)

    def put_block(
        self,
        hypergraph: Hypergraph,
        kind: str,
        params: dict | None,
        width: int,
        witness: Decomposition,
    ) -> None:
        """Persist a settled iterative block: its width and witness."""
        key = self._key("block", hypergraph, kind, params=params)
        self._put(key, "block", (int(width), witness))

    def get_block(
        self,
        hypergraph: Hypergraph,
        kind: str,
        params: dict | None,
    ) -> tuple[int, Decomposition] | None:
        """A validated ``(width, witness)`` for the block, or None."""
        key = self._key("block", hypergraph, kind, params=params)
        hit = self._answer(key, hypergraph, "block", kind)
        return hit[0] if hit and isinstance(hit[0][0], int) else None

    def put_block_exact(
        self,
        hypergraph: Hypergraph,
        kind: str,
        params: dict | None,
        width: float,
        witness: Decomposition,
    ) -> None:
        """Persist a oneshot exact-oracle block result."""
        key = self._key("block-exact", hypergraph, kind, params=params)
        self._put(key, "block-exact", (float(width), witness))

    def get_block_exact(
        self,
        hypergraph: Hypergraph,
        kind: str,
        params: dict | None,
    ) -> tuple[float, Decomposition] | None:
        """A validated oneshot ``(width, witness)``, or None."""
        key = self._key("block-exact", hypergraph, kind, params=params)
        hit = self._answer(key, hypergraph, "block-exact", kind)
        return None if hit is None else (float(hit[0][0]), hit[0][1])

    def put_check(
        self,
        hypergraph: Hypergraph,
        kind: str,
        k,
        params: dict | None,
        witness: Decomposition | None,
    ) -> None:
        """Persist one Check(X, k) verdict (None witness = rejected)."""
        k = round(float(k), 9)
        key = self._key("check", hypergraph, kind, k, params=params)
        self._put(key, "check", witness)

    def get_check(
        self,
        hypergraph: Hypergraph,
        kind: str,
        k,
        params: dict | None,
    ):
        """A stored Check verdict: ``(accepted, witness)`` or None.

        An *accepted* record whose witness fails re-validation is a
        miss (never trust the log); a *rejected* record needs no
        witness and is returned as ``(False, None)``.
        """
        k = round(float(k), 9)
        key = self._key("check", hypergraph, kind, k, params=params)
        hit = self._answer(key, hypergraph, "check", kind, k)
        return None if hit is None else (hit[0] is not None, hit[0])

    def put_instance(
        self,
        hypergraph: Hypergraph,
        request_kind: str,
        params: dict | None,
        value,
    ) -> None:
        """Persist a request's resolved value (the serve layer's fast path)."""
        key = self._key(
            "instance", hypergraph, request_kind, params=params
        )
        self._put(key, request_kind, value)

    def get_instance(
        self,
        hypergraph: Hypergraph,
        request_kind: str,
        params: dict | None,
        dkind: str,
        k=None,
    ) -> tuple | None:
        """A request's re-validated value as ``(value,)``, or None.

        A check rejection is ``(None,)``, never confused with a miss.
        The witness validates as a ``dkind`` decomposition (within
        ``k`` for check kinds); hw/ghw/ghw-exact widths are ints, and a
        bounds lower bound is clamped to the witness width.
        """
        key = self._key(
            "instance", hypergraph, request_kind, params=params
        )
        hit = self._answer(key, hypergraph, request_kind, dkind, k)
        shape = _answer_shape(request_kind)
        if hit is None or shape == "check":
            return hit
        if shape == "bounds":
            lower, _width, witness = hit[0]
            upper = witness.width()
            return ((min(float(lower), upper), upper, witness),)
        width, witness = hit[0]
        if request_kind in ("hw", "ghw", "ghw-exact"):
            width = int(width)
        return ((width, witness),)

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

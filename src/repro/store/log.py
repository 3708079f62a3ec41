"""The append-only result log behind :class:`ResultStore`.

Why a log and not a database: the write path of a serving daemon must
be cheap (one append per settled verdict), crash tolerance must be
*structural* rather than transactional (any torn write is detected and
discarded on load), and the whole store must remain dependency-free.
The format is deliberately boring::

    record   := MAGIC(4) | length(4, big-endian) | crc32(4) | payload
    payload  := UTF-8 JSON {"key": [...], "value": {...}}

Loading scans records until the first structural problem — bad magic,
impossible length, a short read, malformed JSON, a key that is not a
JSON array of scalars — and remembers the byte offset of the last good
record (a whole frame that only fails its CRC is skipped, counted and
logged).  Everything after it is a *skipped tail*: reads behave as if
those records were never written, and the next append truncates the
file back to the good prefix before writing.  A writer killed between
``write`` and ``fsync`` therefore costs at most the unsynced suffix —
recomputation, never corruption.

The index is a keydir in the manner of Bitcask: memory holds one int
per key (the frame's offset and payload length), never the record.  A
read fetches the frame with one ``os.pread`` and re-checks its magic,
length, CRC and key before decoding, so a byte changed on disk after
open is a counted, logged miss; ``pread`` leaves the file position that
appends seek untouched, so reads take no lock.

Record vocabulary (all keys start with a type tag; every value is an
:func:`answer_payload`, read back through :func:`answer_from_payload`
and :func:`checked_witness`):

* ``("block", hhash, kind, "bb", params_fp)`` — a settled width-search
  block: ``{"width": k, "witness": {...}}``.  Implies every ``k' < k``
  was rejected, so one record seeds the whole k-search.
* ``("block-exact", hhash, kind, "bb", params_fp)`` — an
  exact-oracle block: ``{"width": w, "witness": {...}}``.
* ``("check", hhash, kind, k, "bb", params_fp)`` — one Check(X, k)
  verdict: ``{"accepted": bool, "witness": {...} | null}``.
* ``("instance", hhash, request_kind, "bb", params_fp)`` — a full
  request answer (stitched witness), the serve layer's fast path.

The ``"bb"`` slot once named the engine mode; it stays a constant so
logs written by earlier versions keep hitting.  Those logs may also
hold ``("oracle", hhash)`` cover-LP records: they load, and are never
read.

Witness payloads use the stable JSON schema of
:mod:`repro.decomposition.io`; bag vertices are stringified there and
map back through the hypergraph's ``{str(v): v}`` table, so int-vertex
hypergraphs round-trip too.  The canonical hash tags vertex types, so
a bag mapped to the wrong vertices fails validation: a miss.
"""

from __future__ import annotations

import json
import logging
import math
import os
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

#: An index slot is ``offset * _SLOT + payload length`` of the frame
#: (lengths are below ``_MAX_RECORD_BYTES``, so they fit under it).
_SLOT = 1 << 32

_EPS = 1e-9

_LOG = logging.getLogger(__name__)


def params_fingerprint(params: dict | None) -> str:
    """A stable, order-independent fingerprint of solver parameters.

    Store keys include it so answers computed under different tuning
    parameters (``method``, ``vertex_limit``, enumeration caps, ...)
    never serve each other.  Params normalised by
    :func:`repro.pipeline.batch.request_params` give one per request.
    """
    if not params:
        return "{}"
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


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

    ``accepted`` must be a JSON boolean and every number an int or a
    finite float, never a bool.  ``json`` reads ``NaN`` and ``Infinity``,
    and a NaN width compares false with every bound, so it would pass
    re-validation.  Witness bags map back through ``hypergraph``'s
    ``{str(v): v}`` table; they are not validated here.
    """
    vertices = {str(v): v for v in hypergraph.vertices}

    def number(value, nullable=False):
        if type(value) not in (int, float) and not (nullable and value is None):
            raise ValueError(f"{value!r} is not a number")
        if type(value) is float and not math.isfinite(value):
            raise ValueError(f"{value!r} is not finite")
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
    """Load/read/append counters of one :class:`ResultStore`.

    Attributes
    ----------
    records_loaded : int
        Well-formed records read at open time.
    records_damaged : int
        Records that failed a check, each logged and counted once: a
        frame failing its CRC (a byte changed on disk) is skipped at
        open time; an indexed frame failing its re-read, its decoding
        or its witness re-validation is served as a miss and dropped
        from the index, so the recomputed verdict is appended again
        (and, as the later frame, wins at the next open).
    records_skipped : int
        Records lost to the corrupt/truncated tail at open time (at
        most 1 can be counted — loading stops at the first bad header
        or short read — so this is 0 or 1; the *bytes* lost are in
        ``bytes_skipped``).
    records_appended : int
        Records written by this handle since opening.
    bytes_valid : int
        Length of the good log prefix.
    bytes_skipped : int
        Bytes after the good prefix discarded at open time.
    entries : int
        Distinct keys in the index (appends never repeat a key; when
        a loaded log holds one key twice, the last frame wins).
    """

    records_loaded: int = 0
    records_damaged: int = 0
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

    Memory holds one int per key, the record's place in the log, never
    the record itself, so a long-lived daemon does not grow with the
    answers it has stored.  Every read fetches the frame from disk and
    re-checks its CRC; a frame changed since it was indexed is a miss,
    counted in ``stats.records_damaged``.

    The store is safe for concurrent use from many threads of one
    process: appends serialize on an internal lock, and reads need none
    (``os.pread`` leaves the shared file position alone).  Concurrent
    *writers in different processes* are not supported — run one
    ``repro serve`` daemon per store directory.
    """

    def __init__(self, path, fsync: bool = False) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.fsync = bool(fsync)
        self.stats = StoreStats()
        self._lock = threading.Lock()
        # key -> offset * _SLOT + payload length of its frame: one int
        # per key, so the records themselves stay on disk.
        self._index: dict[tuple, int] = {}
        self._file = open(self.log_path, "a+b")
        self._load()

    @property
    def log_path(self) -> Path:
        """Path of the append-only record log."""
        return self.path / STORE_FILENAME

    # ------------------------------------------------------------------
    # Log plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _decode(payload: bytes) -> tuple[tuple, object] | None:
        """A payload's ``(key, value)``, or None unless it is a JSON
        object whose key is an array of scalars and which has a value."""
        try:
            record = json.loads(payload.decode("utf-8"))
        except (ValueError, RecursionError):
            return None
        if not isinstance(record, dict) or "value" not in record:
            return None
        key = record.get("key")
        if not isinstance(key, list) or not all(
            part is None or isinstance(part, (str, int, float)) for part in key
        ):
            return None
        return tuple(key), record["value"]

    def _load(self) -> None:
        """Index the good log prefix; remember where the bad tail starts.

        A CRC-failed frame is skipped as damaged, not an end of log."""
        f = self._file
        f.seek(0)
        good = 0
        while True:
            offset = f.tell()
            header = f.read(_HEADER.size)
            if len(header) < _HEADER.size:
                break  # clean end of log (or torn header: same treatment)
            magic, length, crc = _HEADER.unpack(header)
            if magic != _MAGIC or length > _MAX_RECORD_BYTES:
                break
            payload = f.read(length)
            if len(payload) < length:
                break
            if zlib.crc32(payload) != crc:
                self.stats.records_damaged += 1
                _LOG.warning(
                    "store record at byte %d of %s fails its CRC; "
                    "skipping it", offset, self.log_path,
                )
                continue
            record = self._decode(payload)
            if record is None:
                break
            self._index[record[0]] = offset * _SLOT + length
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

    def append(self, key: tuple, value: dict) -> bool:
        """Append one record; returns whether anything was written.

        The first write of a key wins: verdicts are immutable facts, so
        an existing key is left alone.  The first append after opening
        a store with a corrupt tail truncates the tail away, keeping the
        invariant that the file is exactly the good prefix plus new
        records.
        """
        key = tuple(key)
        payload = json.dumps(
            {"key": list(key), "value": value}, sort_keys=True
        ).encode("utf-8")
        header = _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload))
        with self._lock:
            if key in self._index:
                return False
            f = self._file
            f.seek(0, 2)
            if f.tell() != self._valid_bytes:
                f.truncate(self._valid_bytes)
                f.seek(self._valid_bytes)
                self.stats.bytes_skipped = 0
            offset = self._valid_bytes
            f.write(header + payload)
            f.flush()
            if self.fsync:
                os.fsync(f.fileno())
            self._valid_bytes = f.tell()
            self._index[key] = offset * _SLOT + len(payload)
            self.stats.records_appended += 1
            self.stats.bytes_valid = self._valid_bytes
            self.stats.entries = len(self._index)
        return True

    def get(self, key: tuple) -> dict | None:
        """A fresh copy of the live value of ``key``, or None (raw,
        un-revalidated).

        The frame is read back from disk and its magic, length, CRC and
        key re-checked first.  A frame that fails is a miss: it is
        counted in ``stats.records_damaged``, logged once and dropped
        from the index, so the recomputed verdict is appended again.
        """
        fd = self._file.fileno()  # ValueError once closed
        key = tuple(key)
        slot = self._index.get(key)
        if slot is None:
            return None
        offset, length = divmod(slot, _SLOT)
        try:
            frame = os.pread(fd, _HEADER.size + length, offset)
        except OSError:
            frame = b""
        record = None
        if len(frame) == _HEADER.size + length:
            payload = frame[_HEADER.size :]
            if _HEADER.unpack_from(frame) == (
                _MAGIC, length, zlib.crc32(payload)
            ):
                record = self._decode(payload)
        if record is not None and record[0] == key:
            return record[1]
        self._drop_damaged(key, slot, "changed on disk")
        return None

    def _drop_damaged(self, key: tuple, slot: int, why: str) -> None:
        """Forget ``key`` whose frame at ``slot`` failed a re-check, so
        the recomputed verdict is appended (a later frame wins on load)."""
        with self._lock:
            if self._index.get(key) != slot:
                return  # another reader already dropped it
            del self._index[key]
            self.stats.records_damaged += 1
            self.stats.entries = len(self._index)
        _LOG.warning(
            "store record %r at byte %d of %s %s; "
            "serving a miss and recomputing",
            key, slot // _SLOT, self.log_path, why,
        )

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
        """Close the log file handle (reads/writes after this raise
        ``ValueError``)."""
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

    def _put(self, key: tuple, hypergraph: Hypergraph, value: dict) -> bool:
        """Append one typed record, unless two vertices of ``hypergraph``
        share a string (``1`` and ``"1"``): stored bags could not map
        back, so the record would fail re-validation on every read.
        Every ``put_*`` returns whether it appended a record."""
        names = set(map(str, hypergraph.vertices))
        return len(names) == hypergraph.num_vertices and self.append(key, value)

    def _answer(
        self, key: tuple, hypergraph: Hypergraph, kind: str, dkind: str, k=None
    ) -> tuple | None:
        """The ``kind`` answer at ``key`` as ``(value,)``, or None.

        Its witness must re-validate as a ``dkind`` decomposition of
        ``hypergraph`` within ``k`` (check kinds) or its stored width,
        an int for ``"block"`` records.  A record that fails is dropped
        like a damaged frame, so the recomputed verdict replaces it.
        A rejection has no witness: it is trusted *self-authored* data,
        CRC-protected and keyed by the collision-resistant canonical
        hash, though a deliberately tampered log could forge one
        (delete the store to recompute from scratch).
        """
        slot = self._index.get(key)
        payload = self.get(key)
        if payload is None:
            return None
        try:
            value = answer_from_payload(kind, payload, hypergraph)
            if _answer_shape(kind) == "check":
                if value is None:
                    return (None,)
                bound, witness = k, value
            else:
                bound, witness = value[-2:]
            if kind == "block" and not isinstance(bound, int):
                raise ValueError(f"block width {bound!r} is not an int")
            if bound < 1 - _EPS or checked_witness(
                hypergraph, witness, dkind, width=float(bound) + _EPS
            ) is None:
                raise ValueError(f"no valid witness of width {bound!r}")
        except ValueError:
            self._drop_damaged(key, slot, "fails re-validation")
            return None
        return (value,)

    def put_block(
        self,
        hypergraph: Hypergraph,
        kind: str,
        params: dict | None,
        width: int,
        witness: Decomposition,
    ) -> bool:
        """Persist a settled width-search block: its width and witness."""
        key = self._key("block", hypergraph, kind, params=params)
        return self._put(
            key, hypergraph, answer_payload("block", (int(width), witness))
        )

    def get_block(
        self,
        hypergraph: Hypergraph,
        kind: str,
        params: dict | None,
    ) -> tuple[int, Decomposition] | None:
        """A validated ``(width, witness)`` for the block, or None."""
        key = self._key("block", hypergraph, kind, params=params)
        hit = self._answer(key, hypergraph, "block", kind)
        return None if hit is None else hit[0]

    def put_block_exact(
        self,
        hypergraph: Hypergraph,
        kind: str,
        params: dict | None,
        width: float,
        witness: Decomposition,
    ) -> bool:
        """Persist an exact-oracle block result."""
        key = self._key("block-exact", hypergraph, kind, params=params)
        return self._put(
            key,
            hypergraph,
            answer_payload("block-exact", (float(width), witness)),
        )

    def get_block_exact(
        self,
        hypergraph: Hypergraph,
        kind: str,
        params: dict | None,
    ) -> tuple[float, Decomposition] | None:
        """A validated exact-oracle ``(width, witness)``, or None."""
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
    ) -> bool:
        """Persist one Check(X, k) verdict (None witness = rejected)."""
        k = round(float(k), 9)
        key = self._key("check", hypergraph, kind, k, params=params)
        return self._put(key, hypergraph, answer_payload("check", witness))

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
    ) -> bool:
        """Persist a request's resolved value (the serve layer's fast path)."""
        key = self._key(
            "instance", hypergraph, request_kind, params=params
        )
        return self._put(key, hypergraph, answer_payload(request_kind, value))

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

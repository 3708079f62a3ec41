"""Wire protocol of the distributed block-solve backend.

One frame per message, mirroring the ``RPS1`` framing discipline of the
result-store log (:mod:`repro.store.log`) — length-prefixed, CRC-checked,
refuse-absurd-lengths::

    frame   := MAGIC(4) | length(4, big-endian) | crc32(4) | payload
    payload := UTF-8 JSON object

The payload is a JSON object with a ``"type"`` tag.  Messages a worker
sends to the driver:

* ``{"type": "hello", "jobs": N, "pid": P}`` — registration, first
  frame on the connection;
* ``{"type": "heartbeat", "in_flight": N, "executed": N}`` — liveness
  (periodic, and in reply to every ``ping``);
* ``{"type": "result", "task": id, "value": {...}, "counts": {...}}``
  — a finished task, its value in the store's answer schema
  (:func:`repro.store.answer_payload` keyed by the solver) and the
  engine work it did (:func:`repro.serve.protocol.counts_payload`);
* ``{"type": "error", "task": id, "error": {"type", "message"}}`` — a
  failed one, named by its exception class;
* ``{"type": "cancelled", "task": id}`` — a task dequeued before it
  started, in reply to ``cancel``;
* ``{"type": "bye"}`` — clean goodbye (idle auto-shutdown).

Messages the driver sends to a worker:

* ``{"type": "task", "task": id, "solver": s, "hypergraph": {...},
  "params": {...}}`` — one :func:`~repro.pipeline.solve.run_block_task`
  payload, the block in the
  :func:`~repro.serve.protocol.hypergraph_to_payload` shape;
* ``{"type": "cancel", "task": id}`` — dequeue the task if it has not
  started (a running task finishes and replies);
* ``{"type": "ping"}`` — liveness probe (answered by a heartbeat);
* ``{"type": "shutdown"}`` — drain and exit.

Both directions carry JSON, like the store log, so nothing a peer
sends is decoded by a mechanism that can execute code; the codec of
every object inside a frame is :mod:`repro.serve.protocol`.  The
framing protects against the accidental failure modes: torn writes,
truncation and bit rot all fail the CRC and surface as a
:class:`ProtocolError`.  The magic names the payload encoding, so a
peer of another version fails the magic check rather than a decode.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib

__all__ = [
    "MAGIC",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "send_message",
    "recv_message",
    "parse_endpoint",
]

#: Per-frame header: magic, payload length, payload CRC32.
MAGIC = b"RPW2"
_HEADER = struct.Struct(">4sII")

#: Refuse absurd frame sizes (a corrupt length field would otherwise
#: make the reader buffer gigabytes before failing the CRC).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ProtocolError(ConnectionError):
    """A structurally invalid frame: bad magic, length or CRC.

    The connection is unusable after this — there is no way to resync
    a byte stream mid-frame — so both sides drop it on sight.
    """


def send_message(sock: socket.socket, message: dict) -> None:
    """Encode ``message`` as JSON and write it as one frame.

    Encoding happens before any byte hits the socket, so a message that
    is not plain JSON (raising ``TypeError`` / ``ValueError``) never
    leaves a torn frame behind; callers may catch and retry with a
    simpler payload.  Socket failures propagate as ``OSError``.
    """
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    header = _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload))
    sock.sendall(header + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes, or None on a clean EOF at a boundary.

    EOF in the *middle* of the requested span is a torn frame and
    raises :class:`ProtocolError`.
    """
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict | None:
    """Read one frame; the decoded message, or None on clean EOF.

    Raises
    ------
    ProtocolError
        On bad magic, an impossible length, a CRC mismatch, a torn
        frame, or a payload that is not a UTF-8 JSON object.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    magic, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds the limit")
    payload = _recv_exact(sock, length)
    if payload is None or zlib.crc32(payload) != crc:
        raise ProtocolError("frame CRC mismatch")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8/JSON, deep nesting
        raise ProtocolError(f"frame payload is not JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload is {type(message).__name__}, expected dict"
        )
    return message


def parse_endpoint(address: str) -> tuple[str, int]:
    """Split ``"host:port"`` into ``(host, port)``.

    Raises
    ------
    ValueError
        If the address has no ``:`` or a non-integer port.
    """
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be HOST:PORT; got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"port must be an integer; got {port!r}") from None

"""Persistent result store: width answers that survive restarts.

``solve_many`` amortizes work *within* one process, but every settled
:class:`~repro.pipeline.solve.BlockState` verdict and stitched witness
still dies with the process.  This package spills them to disk:

* :class:`ResultStore` — an append-only, checksummed record log keyed
  on ``(hypergraph canonical hash, measure, k, params)``.  Records
  are length-prefixed and CRC-protected, so a crash mid-write (or any
  corrupt/truncated tail) degrades to a **cache miss, never a wrong
  answer**: loading stops at the first bad record and the next append
  truncates the bad tail away.  Memory holds one offset per key, not
  the records, and every read re-checks its frame's CRC on disk;
* every stored witness is **re-validated** against the hypergraph it is
  served for before it is trusted (:func:`checked_witness`) — the store
  is untrusted input, exactly like the solver outputs it mirrors;
* the batch scheduler seeds per-block search state from the store and
  writes verdicts back on settle (``solve_many(..., store=...)``), and
  the ``repro serve`` daemon answers repeat requests from it with zero
  LP solves and zero exact Check tasks (benchmark E23).

It owns the answer schema (:func:`answer_payload`,
:func:`answer_from_payload`) of every record, HTTP answer and worker
result; the log format and record vocabulary live in
:mod:`repro.store.log`.
"""

from .log import (
    STORE_FILENAME,
    ResultStore,
    StoreStats,
    answer_from_payload,
    answer_payload,
    checked_witness,
    params_fingerprint,
)

__all__ = [
    "ResultStore",
    "StoreStats",
    "answer_payload",
    "answer_from_payload",
    "checked_witness",
    "params_fingerprint",
    "STORE_FILENAME",
]

"""The two halves around the drive loop: reduce → split, and stitch.

Every width query of the library — each function in
:mod:`repro.algorithms`, the CLI, the daemon and the query planner —
is a one-request :func:`~repro.pipeline.batch.solve_many` call, and
the request's :class:`~repro.pipeline.batch.BatchStats` is its
``result.stats``.  ``preprocess="none"`` runs the whole instance as
one unreduced block (the bounds pre-pass stays on unless
``bounds="none"``).  A query runs in four stages:

1. **reduce** — kind-safe simplification rules with undo records
   (:mod:`repro.pipeline.reduce`);
2. **split** — biconnected blocks of the primal graph for ghw/fhw,
   connected components for hw (:mod:`repro.pipeline.split`);
3. **solve** — any registered per-block algorithm, inline or on a
   thread/process pool with cross-block and cross-request parallelism
   (:mod:`repro.pipeline.solve`);
4. **stitch** — per-block witnesses joined along the block-cut forest
   and reduction undos replayed (:mod:`repro.decomposition.stitch`),
   then re-validated against the *original* hypergraph.

This module keeps the halves around the drive loop,
:func:`prepare_instance` (reduce + split) and :func:`stitch_instance`.

The stitched width is ``max(1, max over blocks)``: every width measure
is >= 1 on a non-empty hypergraph and re-attached degree-1 leaves cost
exactly 1, so the pipeline answer equals the direct answer — the
property tests in ``tests/test_pipeline.py`` pin this agreement.
"""

from __future__ import annotations

from ..decomposition import (
    Decomposition,
    replay_reductions,
    stitch_blocks,
    validate,
)
from ..hypergraph import Hypergraph
from .reduce import ReducedInstance, reduce_instance
from .split import Block, split_instance

__all__ = [
    "prepare_instance",
    "stitch_instance",
    "split_mode_for",
    "PREPROCESS_MODES",
]

#: Valid ``preprocess=`` arguments, in decreasing order of work done.
#: The CLI ``--preprocess`` flag and the README document exactly this
#: tuple (``tests/test_docs.py`` pins the agreement).
PREPROCESS_MODES = ("full", "reduce", "split", "none")


def split_mode_for(kind: str, preprocess: str) -> str:
    """The split mode the pipeline uses for a decomposition kind.

    Parameters
    ----------
    kind : str
        Decomposition kind: ``"hd"``, ``"ghd"`` or ``"fhd"``.
    preprocess : str
        One of :data:`PREPROCESS_MODES`.

    Returns
    -------
    str
        ``"none"`` when the preprocess mode skips splitting,
        ``"components"`` for hw (re-rooting block HDs can break the
        special condition), ``"biconnected"`` for ghw/fhw.
    """
    if preprocess in ("none", "reduce"):
        return "none"
    return "components" if kind == "hd" else "biconnected"


def prepare_instance(
    hypergraph: Hypergraph, kind: str, preprocess: str = "full"
) -> tuple[ReducedInstance, list[Block]]:
    """Run the reduce and split stages for one instance.

    This is the front half of the pipeline, run by the batch scheduler
    in :mod:`repro.pipeline.batch` for every instance up front.
    Isolated vertices are dropped in every mode, ``"none"`` included:
    no bag may contain them, so they are not part of any block.

    Parameters
    ----------
    hypergraph : Hypergraph
        The instance to prepare.
    kind : str
        Decomposition kind (``"hd"``, ``"ghd"``, ``"fhd"``); gates
        which reduction rules and which split mode are safe.
    preprocess : str, optional
        One of :data:`PREPROCESS_MODES` (default ``"full"``).

    Returns
    -------
    (ReducedInstance, list of Block)
        The reduction outcome (with its undo records) and the solvable
        blocks of the reduced hypergraph.

    Raises
    ------
    ValueError
        If ``preprocess`` is not one of :data:`PREPROCESS_MODES`, or if
        ``hypergraph`` has no vertex outside the isolated ones (no
        width measure is defined there).
    """
    if preprocess not in PREPROCESS_MODES:
        raise ValueError(f"preprocess must be one of {PREPROCESS_MODES}")
    rules = None if preprocess in ("full", "reduce") else ["isolated"]
    reduced = reduce_instance(hypergraph, kind=kind, rules=rules)
    if reduced.hypergraph.num_vertices == 0:
        raise ValueError("hypergraph has no vertices")
    blocks = split_instance(
        reduced.hypergraph, split_mode_for(kind, preprocess)
    )
    return reduced, blocks


def stitch_instance(
    original: Hypergraph,
    reduced: ReducedInstance,
    blocks: list[Block],
    witnesses: list[Decomposition],
    kind: str,
    width: float | None = None,
) -> Decomposition:
    """Join per-block witnesses and lift them back to the original.

    The back half of the pipeline, run by the batch scheduler per
    instance: re-root and join the block decompositions
    along the block-cut forest, replay the reduction undo records, and
    re-validate the result against the *original* hypergraph, so
    soundness never rests on the reduce/split layers being right.

    Parameters
    ----------
    original : Hypergraph
        The unreduced input instance to validate against.
    reduced : ReducedInstance
        The reduction outcome whose undo records are replayed.
    blocks : list of Block
        The blocks, parallel to ``witnesses``.
    witnesses : list of Decomposition
        One validated decomposition per block.
    kind : str
        Decomposition kind to validate as (``"hd"``/``"ghd"``/``"fhd"``).
    width : float, optional
        Width bound passed to the validator (None skips the check).

    Returns
    -------
    Decomposition
        A validated decomposition of ``original``.

    Raises
    ------
    ValueError
        If the stitched decomposition fails validation (a pipeline bug).
    """
    stitched = stitch_blocks(
        [
            (witness, block.parent, block.cut_vertex)
            for block, witness in zip(blocks, witnesses)
        ]
    )
    final = replay_reductions(stitched, reduced.undo)
    validate(original, final, kind=kind, width=width)
    return final

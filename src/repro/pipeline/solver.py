"""The ``WidthSolver`` facade: reduce → split → solve → stitch.

Every public width entry point of the library, and every
:class:`WidthSolver` method, is a one-request run of the batch
scheduler in :mod:`repro.pipeline.batch`, the pipeline's one drive
loop.  ``preprocess="none"`` runs the whole instance as one
unreduced block (the bounds pre-pass stays on unless
``bounds="none"``).  A query runs in four stages, timed and counted in
its :class:`~repro.pipeline.batch.BatchStats`:

1. **reduce** — kind-safe simplification rules with undo records
   (:mod:`repro.pipeline.reduce`);
2. **split** — biconnected blocks of the primal graph for ghw/fhw,
   connected components for hw (:mod:`repro.pipeline.split`);
3. **solve** — any registered per-block algorithm, inline or on a
   thread/process pool with cross-block and cross-k speculation
   (:mod:`repro.pipeline.solve`);
4. **stitch** — per-block witnesses joined along the block-cut forest
   and reduction undos replayed (:mod:`repro.decomposition.stitch`),
   then re-validated against the *original* hypergraph.

This module keeps the two halves around the drive loop,
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
from .bounds import BOUNDS_MODES
from .reduce import ReducedInstance, reduce_instance
from .split import Block, split_instance

__all__ = [
    "WidthSolver",
    "solve_width",
    "prepare_instance",
    "stitch_instance",
    "split_mode_for",
    "PREPROCESS_MODES",
]

#: Valid ``preprocess=`` arguments, in decreasing order of work done.
#: The CLI ``--preprocess`` flag and the README document exactly this
#: tuple (``tests/test_docs.py`` pins the agreement).
PREPROCESS_MODES = ("full", "reduce", "split", "none")

_EPS = 1e-9


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


class WidthSolver:
    """One hypergraph, every width query, one preprocessing discipline.

    Every method is a one-request :class:`~.batch.BatchScheduler` run
    with this solver's settings: it submits one
    :class:`~.batch.BatchRequest`, keeps the run's
    :class:`~.batch.BatchStats` (the request's ``result.stats``) in
    ``last_stats`` and returns the request's value (re-raising its
    error).

    Parameters
    ----------
    hypergraph:
        The instance to decompose.
    preprocess:
        ``"full"`` (reduce + split, the default), ``"reduce"``,
        ``"split"``, or ``"none"`` (the whole instance as one unreduced
        block; only isolated vertices are dropped).
    jobs:
        Worker count for cross-block / cross-k parallelism (None or 1 =
        serial, on the calling thread).
    executor:
        ``"thread"`` (default; shares engine caches), ``"process"``
        (GIL-free, cold caches per worker) or ``"remote"`` (the
        :mod:`repro.dist` worker fleet).
    bounds:
        Bounds pre-pass mode, one of
        :data:`repro.pipeline.bounds.BOUNDS_MODES`: ``"portfolio"``
        (default; per-block ordering-portfolio upper bound + clique
        lower bound, seeding every exact search), ``"clique"`` (lower
        bound only), or ``"none"`` (no pre-pass — the pre-bounds
        behaviour).  The pre-pass only prunes which exact checks run;
        answers are identical in every mode, save a valid cap that
        runs out (see :class:`~.batch.BatchScheduler`).
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        preprocess: str = "full",
        jobs: int | None = None,
        executor: str = "thread",
        bounds: str = "portfolio",
    ) -> None:
        if preprocess not in PREPROCESS_MODES:
            raise ValueError(f"preprocess must be one of {PREPROCESS_MODES}")
        if bounds not in BOUNDS_MODES:
            raise ValueError(f"bounds must be one of {BOUNDS_MODES}")
        self.hypergraph = hypergraph
        self.preprocess = preprocess
        self.jobs = max(1, int(jobs or 1))
        self.executor = executor
        self.bounds = bounds
        self.last_stats = None

    def _run(self, kind: str, params: dict):
        """Answer one request of ``kind`` as a one-request batch."""
        from .batch import solve_many  # lazy: batch imports this module

        (result,) = solve_many(
            [(self.hypergraph, kind, params)],
            jobs=self.jobs,
            preprocess=self.preprocess,
            executor=self.executor,
            bounds=self.bounds,
        )
        self.last_stats = result.stats
        return result.unwrap()

    # ------------------------------------------------------------------
    # Check(X, k) queries
    # ------------------------------------------------------------------
    def hypertree_decomposition(self, k: int) -> Decomposition | None:
        """Check(HD, k) with preprocessing; None when hw(H) > k."""
        return self._run("check-hd", {"k": k})

    def generalized_hypertree_decomposition(
        self, k: int, method: str = "fixpoint", **caps
    ) -> Decomposition | None:
        """Check(GHD, k) with preprocessing; None when ghw(H) > k."""
        return self._run("check-ghd", {"k": k, "method": method, **caps})

    def fractional_hypertree_decomposition_bounded_degree(
        self, k: float, d: int | None = None, **caps
    ) -> Decomposition | None:
        """Check(FHD, k) under bounded degree (Theorem 5.2), preprocessed.

        ``d`` defaults per block to the block's own degree, which never
        exceeds the input's — smaller supports, smaller searches.
        """
        return self._run("check-fhd-bd", {"k": k, "d": d, **caps})

    # ------------------------------------------------------------------
    # Width searches (iterate k per block)
    # ------------------------------------------------------------------
    def hypertree_width(self, kmax: int | None = None) -> tuple[int, Decomposition]:
        """``hw(H)`` with a validated witness HD."""
        return self._run("hw", {"kmax": kmax})

    def generalized_hypertree_width(
        self, kmax: int | None = None, method: str = "fixpoint", **caps
    ) -> tuple[int, Decomposition]:
        """``ghw(H)`` with a validated witness GHD."""
        return self._run("ghw", {"kmax": kmax, "method": method, **caps})

    # ------------------------------------------------------------------
    # Exact elimination oracles (per-block 2^n DP)
    # ------------------------------------------------------------------
    def generalized_hypertree_width_exact(
        self, vertex_limit: int | None = None
    ) -> tuple[int, Decomposition]:
        """Exact ``ghw(H)``; the 2^n limit applies *per block*.

        Blocks the bounds pre-pass *decided* (lower bound meets a
        validated portfolio witness) skip the 2^n DP entirely; the
        witness width caps the DP on the others.
        """
        return self._run("ghw-exact", {"vertex_limit": vertex_limit})

    def fractional_hypertree_width_exact(
        self, vertex_limit: int | None = None
    ) -> tuple[float, Decomposition]:
        """Exact ``fhw(H)``; the 2^n limit applies *per block*."""
        return self._run("fhw", {"vertex_limit": vertex_limit})

    # ------------------------------------------------------------------
    # Heuristic and approximation drivers
    # ------------------------------------------------------------------
    def heuristic_decomposition(
        self, cost: str = "fractional", ordering: str = "min-fill"
    ) -> tuple[float, Decomposition]:
        """Per-block heuristic elimination decomposition, stitched."""
        return self._run(
            "heuristic-decomposition", {"cost": cost, "ordering": ordering}
        )

    def width_bounds(
        self, cost: str = "fractional"
    ) -> tuple[float, float, Decomposition]:
        """``(lower, upper, witness)``: the heuristic sandwich, blockwise.

        The lower bound is the max of the block lower bounds (each block
        is width-preserving, so this stays sound); the stitched witness
        achieves the upper bound.
        """
        return self._run("bounds", {"cost": cost})

    def fhw_approximation(self, K: float, eps: float, find_fhd=None):
        """Algorithm 4 (the PTAAS of Theorem 6.20), run per block.

        Each block's binary search runs independently (in parallel with
        ``jobs``); the stitched FHD has width ``max(1, max block
        widths) < fhw(H) + ε`` whenever ``fhw(H) <= K``.  A custom
        ``find_fhd`` receives *block* hypergraphs.
        """
        return self._run(
            "fhw-approximation", {"K": K, "eps": eps, "find_fhd": find_fhd}
        )


#: The kinds :func:`solve_width` answers: the width queries.
_WIDTH_KINDS = ("hw", "ghw", "ghw-exact", "fhw", "bounds")


def solve_width(
    hypergraph: Hypergraph,
    kind: str = "ghw",
    preprocess: str = "full",
    jobs: int | None = None,
    executor: str = "thread",
    bounds: str = "portfolio",
    **params,
):
    """One-call pipeline width query.

    ``kind`` is one of ``"hw"``, ``"ghw"``, ``"ghw-exact"``, ``"fhw"``
    (the exact oracle), or ``"bounds"`` (heuristic sandwich); extra
    keyword arguments are the request params of that kind (see
    :func:`~.batch.request_params`).  ``bounds`` selects the pre-pass
    mode (one of :data:`repro.pipeline.bounds.BOUNDS_MODES`).
    """
    if kind not in _WIDTH_KINDS:
        raise ValueError(f"kind must be one of {_WIDTH_KINDS}; got {kind!r}")
    solver = WidthSolver(hypergraph, preprocess, jobs, executor, bounds)
    return solver._run(kind, params)

"""Preprocessing & parallel block-solve pipeline (reduce → split → solve → stitch).

Every width query in the library runs through this package by default:

* :mod:`repro.pipeline.reduce` — composable, inverse-recording
  simplification rules (subsumed/duplicate edges, isolated and degree-1
  vertices, twin-vertex contraction);
* :mod:`repro.pipeline.split` — articulation points and biconnected
  blocks of the cached primal graph;
* :mod:`repro.pipeline.bounds` — the bounds pre-pass: per-block
  ordering-portfolio upper bounds + clique/minor-width lower bounds
  (:data:`BOUNDS_MODES`) that seed every exact k-search and provide an
  anytime answer before the first exact check;
* :mod:`repro.pipeline.solve` — per-block solver registry (one exact
  engine per measure: CheckSearch branch-and-bound for the checks, the
  elimination DP for the exact oracles) and the worker pools (inline for ``jobs=1``, cross-block and cross-k
  parallelism for ``jobs=N``);
* :mod:`repro.pipeline.batch` — the one drive loop:
  :func:`solve_many` / :class:`BatchScheduler` interleave per-block
  tasks of a whole request workload on one shared pool with one warm
  engine-cache domain, with per-request :class:`BatchResult` handles
  and one :class:`BatchStats` per run;
* :mod:`repro.pipeline.solver` — the reduce/split and stitch halves
  around the drive loop.

Each width function of :mod:`repro.algorithms` is a one-request
:func:`solve_many` call; its stats are ``result.stats``.

The stitch stage lives in :mod:`repro.decomposition.stitch`, next to the
other decomposition transformations.
"""

from .bounds import (
    BOUNDS_MODES,
    BlockBounds,
    compute_block_bounds,
)
from .batch import (
    BATCH_KINDS,
    BatchRequest,
    BatchResult,
    BatchScheduler,
    BatchStats,
    solve_many,
)
from .reduce import (
    RULES,
    DroppedEdges,
    DroppedIsolated,
    FusedTwins,
    ReducedInstance,
    RemovedDegreeOne,
    reduce_instance,
    rules_for,
)
from .solve import (
    EXECUTORS,
    SOLVERS,
    BlockState,
    run_block_task,
)
from .solver import (
    PREPROCESS_MODES,
    prepare_instance,
    split_mode_for,
    stitch_instance,
)
from .split import SPLIT_MODES, Block, articulation_points, split_instance

__all__ = [
    "prepare_instance",
    "stitch_instance",
    "split_mode_for",
    "PREPROCESS_MODES",
    "solve_many",
    "BatchRequest",
    "BatchResult",
    "BatchScheduler",
    "BatchStats",
    "BATCH_KINDS",
    "reduce_instance",
    "ReducedInstance",
    "rules_for",
    "RULES",
    "DroppedEdges",
    "DroppedIsolated",
    "FusedTwins",
    "RemovedDegreeOne",
    "split_instance",
    "articulation_points",
    "Block",
    "SPLIT_MODES",
    "BlockState",
    "run_block_task",
    "SOLVERS",
    "EXECUTORS",
    "BOUNDS_MODES",
    "BlockBounds",
    "compute_block_bounds",
]

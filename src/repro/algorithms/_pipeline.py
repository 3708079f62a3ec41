"""Shared dispatch from the public width entry points into the pipeline.

Every public driver (``hypertree_width``, the GHD/FHD checks, the exact
oracles, the heuristic sandwich, the PTAAS) is one
:class:`repro.pipeline.WidthSolver` call of the same name, i.e. one
batch-scheduler run.  ``preprocess="none"`` is that run on one
unreduced block (the bounds pre-pass stays on unless ``bounds="none"``).
This helper keeps the import lazy: the pipeline package imports the
algorithm cores.
"""

from __future__ import annotations

from ..hypergraph import Hypergraph


def via_pipeline(
    hypergraph: Hypergraph,
    method: str,
    preprocess: str,
    jobs: int | None,
    /,  # positional-only: kwargs like method= belong to the solver call
    *args,
    bounds: str = "portfolio",
    **kwargs,
):
    """Run ``WidthSolver(...).<method>(*args, **kwargs)``."""
    from ..pipeline import WidthSolver

    solver = WidthSolver(
        hypergraph, preprocess=preprocess, jobs=jobs, bounds=bounds
    )
    return getattr(solver, method)(*args, **kwargs)

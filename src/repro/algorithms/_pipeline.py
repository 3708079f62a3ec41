"""Shared dispatch from the public width entry points into the pipeline.

Every public driver (``hypertree_width``, the GHD/FHD checks, the exact
oracles, the heuristic sandwich, the PTAAS) gates on the same rule:
``preprocess="none"`` — or an edgeless hypergraph, whose historical
error behaviour must be preserved — runs the raw algorithm; everything
else goes through a :class:`repro.pipeline.WidthSolver` method of the
same name.  This helper states the rule once.
"""

from __future__ import annotations

from ..hypergraph import Hypergraph


def via_pipeline(
    hypergraph: Hypergraph,
    method: str,
    direct,
    preprocess: str,
    jobs: int | None,
    /,  # positional-only: kwargs like method= belong to the solver call
    *args,
    bounds: str | None = None,
    **kwargs,
):
    """Run ``WidthSolver(...).<method>(*args, **kwargs)`` or ``direct``.

    An explicit non-``"none"`` ``bounds`` mode always routes through
    the pipeline, even for ``preprocess="none"`` — the bounds pre-pass
    lives in the per-block scheduler, and the pipeline's ``"none"``
    mode runs the instance as one unreduced block.
    ``preprocess="none"`` without that override runs the raw algorithm
    (no pre-pass), bit-for-bit the historical behaviour.  Edgeless
    hypergraphs keep the raw path so their historical error behaviour
    is preserved.
    """
    if hypergraph.num_edges == 0 or (
        preprocess == "none" and bounds in (None, "none")
    ):
        return direct(hypergraph, *args, **kwargs)
    from ..pipeline import WidthSolver

    solver = WidthSolver(
        hypergraph,
        preprocess=preprocess,
        jobs=jobs,
        bounds=bounds if bounds is not None else "portfolio",
    )
    return getattr(solver, method)(*args, **kwargs)

"""Bounds pre-pass: cheap per-block bounds that collapse the k-search.

The exact ``Check(X, k)`` solves are the expensive part of every width
query; the structural bounds around them are near-linear.  This layer
runs, per block, an **ordering portfolio** — min-degree, min-fill, and
seeded randomized-tiebreak restarts from
:func:`repro.algorithms.heuristics.portfolio_orderings`, each finished
with the measure-specific cover (integral for hw/ghw, fractional for
fhw) — together with a **lower bound**, and returns a
:class:`BlockBounds` record per block.  The lower bound starts as the
clique cover of Lemma 2.8; when the first validated witness shows it
does not meet the upper bound (and always in ``"clique"`` mode), it is
raised once to :func:`repro.algorithms.heuristics.width_lower_bound`,
which adds ``(minor-width + 1) / r``: some bag of every GHD/FHD holds
``tw + 1`` vertices and each edge covers at most ``r`` (the rank) of
them.  Bounds-decided blocks thus never pay for the minor-width pass.

Schedulers consume the record as ``(rung, verdict)`` facts
(:meth:`BlockBounds.facts`) on a block's
:class:`~repro.pipeline.solve.BlockState` ladder: every k below the
lower bound is rejected without a solve, the portfolio witness is
accepted at the first k it fits under (so no check above it is ever
submitted), and when the bounds meet the block settles at once,
skipping the exact engine entirely.  The witness doubles as an
**anytime answer**: a valid decomposition is in hand before the first
exact check runs.  The exact oracles (ghw-exact, fhw) take a witness
only when the bounds meet, and pass an open block's witness width to
the elimination DP as its ``upper`` cap
(:func:`repro.algorithms.elimination.width_by_elimination`).

Soundness: every portfolio witness is re-validated for the query's
kind before it is trusted (elimination orderings do not in general
satisfy the HD special condition, so hd candidates that fail
validation are discarded and only the lower bound applies), and the
integral clique cover number lower-bounds ghw and hence hw, while the
fractional one lower-bounds fhw; so does ``(tw + 1) / r`` (rounded up
for the integral widths), as every GHD/FHD is a tree decomposition of
the primal graph.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..decomposition import Decomposition, validate
from ..hypergraph import Hypergraph

__all__ = [
    "BOUNDS_MODES",
    "BlockBounds",
    "compute_block_bounds",
]

#: Valid ``bounds=`` arguments for every solver in the pipeline, in
#: decreasing order of work done: ``"portfolio"`` (ordering portfolio
#: upper bound + lower bound, the default), ``"clique"`` (lower bound
#: only), ``"none"`` (no pre-pass; the pre-bounds behaviour).
#: The CLI ``--bounds`` flag and the docs document exactly this tuple
#: (``tests/test_docs.py`` pins the agreement).
BOUNDS_MODES = ("portfolio", "clique", "none")

_EPS = 1e-9


@dataclass(frozen=True)
class BlockBounds:
    """Pre-pass verdict for one block: ``lower <= width <= upper``.

    Attributes
    ----------
    kind : str
        Decomposition kind the bounds (and witness) are valid for.
    lower : float
        Sound lower bound on the block's width (>= 1).
    upper : float
        Width of the best validated portfolio witness, or ``inf`` when
        no candidate validated (always the case in ``"clique"`` mode).
    witness : Decomposition or None
        The validated decomposition achieving ``upper``.
    orderings : int
        Portfolio orderings evaluated before stopping.
    seconds : float
        Wall-clock spent on this block's pre-pass.
    """

    kind: str
    lower: float = 1.0
    upper: float = math.inf
    witness: Decomposition | None = None
    orderings: int = 0
    seconds: float = 0.0

    @property
    def lower_k(self) -> int:
        """Smallest integer k the exact search still has to check."""
        return max(1, math.ceil(self.lower - _EPS))

    @property
    def upper_k(self) -> int | None:
        """Integer k at which the witness accepts, or None without one."""
        if self.witness is None:
            return None
        return max(1, math.ceil(self.upper - _EPS))

    @property
    def decided(self) -> bool:
        """Whether the bounds meet: the witness is already optimal."""
        return self.witness is not None and self.lower >= self.upper - _EPS

    def facts(self, ladder) -> list:
        """The bounds as ``(rung, verdict)`` facts on a block's ladder.

        On a ladder of k values, every k below the lower bound is a
        rejection (sound: the width is at least ``lower``) and the
        witness is accepted at the first k it fits under.  On the
        exact-value ladder ``(None,)`` the witness is the block's value
        ``(upper, witness)``, but only when the bounds meet.
        """
        facts = []
        for rung in ladder:
            if rung is None:
                if not self.decided:
                    return []
                return [(None, (self.upper, self.witness))]
            if rung < self.lower - _EPS:
                facts.append((rung, None))
            elif self.witness is None:
                break
            elif self.upper <= rung + _EPS:
                facts.append((rung, self.witness))
                break
        return facts


def compute_block_bounds(
    hypergraph: Hypergraph,
    kind: str,
    mode: str = "portfolio",
    restarts: int | None = None,
    seed: int = 0,
) -> BlockBounds:
    """Run the bounds pre-pass on one block.

    Parameters
    ----------
    hypergraph : Hypergraph
        The block to bound.
    kind : str
        Decomposition kind (``"hd"``, ``"ghd"`` or ``"fhd"``): selects
        the cover measure (fractional for fhd, integral otherwise) and
        the validation every witness candidate must pass.
    mode : str, optional
        One of :data:`BOUNDS_MODES` (default ``"portfolio"``).
    restarts : int, optional
        Randomized-tiebreak restarts on top of the two classics
        (default :data:`repro.algorithms.heuristics.DEFAULT_RESTARTS`).
    seed : int, optional
        Seed for the restart tiebreaks (deterministic per seed).

    Returns
    -------
    BlockBounds
        The bounds record; trivial (``lower=1, upper=inf``) in
        ``"none"`` mode or on an edgeless block.

    Raises
    ------
    ValueError
        If ``mode`` is not one of :data:`BOUNDS_MODES` or ``kind`` is
        not a known decomposition kind.
    """
    if mode not in BOUNDS_MODES:
        raise ValueError(f"bounds must be one of {BOUNDS_MODES}, got {mode!r}")
    if kind not in ("hd", "ghd", "fhd"):
        raise ValueError(f"kind must be 'hd', 'ghd' or 'fhd', got {kind!r}")
    if mode == "none" or hypergraph.num_edges == 0:
        return BlockBounds(kind=kind)
    # Lazy algorithm imports keep the pipeline package import-cycle
    # free, mirroring the solver registry in .solve.
    from ..algorithms.heuristics import (
        DEFAULT_RESTARTS,
        clique_lower_bound,
        evaluate_ordering,
        portfolio_orderings,
        width_lower_bound,
    )
    from ..engine import oracle_for

    t0 = time.perf_counter()
    cost = "fractional" if kind == "fhd" else "integral"
    oracle = oracle_for(hypergraph)
    lower = max(1.0, clique_lower_bound(hypergraph, cost=cost, oracle=oracle))
    upper = math.inf
    witness: Decomposition | None = None
    orderings = 0
    if mode == "portfolio":
        if restarts is None:
            restarts = DEFAULT_RESTARTS
        for _name, order in portfolio_orderings(
            hypergraph, restarts=restarts, seed=seed
        ):
            orderings += 1
            width, candidate = evaluate_ordering(
                hypergraph, order, cost=cost, oracle=oracle
            )
            if width >= upper:
                continue
            try:
                # Elimination orderings do not in general satisfy the
                # HD special condition — only validated candidates may
                # seed the search.
                validate(hypergraph, candidate, kind=kind, width=width + _EPS)
            except ValueError:
                continue
            if witness is None and lower < width - _EPS:
                # The first witness leaves the clique bound open: pay
                # for the combined bound, once.
                lower = max(lower, width_lower_bound(hypergraph, cost, oracle))
            upper, witness = width, candidate
            if lower >= upper - _EPS:
                break  # bounds met: the witness is optimal
    if witness is None:  # "clique" mode, or no candidate validated
        lower = max(lower, width_lower_bound(hypergraph, cost, oracle))
    return BlockBounds(
        kind=kind,
        lower=lower,
        upper=upper,
        witness=witness,
        orderings=orderings,
        seconds=time.perf_counter() - t0,
    )

"""FHW approximation algorithms (Section 6).

* :func:`frac_decomp` — Algorithm 3, ``(k, ε, c)-frac-decomp``: a
  deterministic version of the alternating algorithm that searches for an
  FHD of width <= k+ε with c-bounded fractional part and the weak special
  condition.  Under the BIP, Lemmas 6.4/6.5 guarantee such an FHD exists
  whenever fhw(H) <= k, with ``c = 2ik² + 4k³i/ε``.
* :func:`fhw_approximation` — Algorithm 4, the PTAAS for
  K-Bounded-FHW-Optimization (Theorem 6.20): binary search over widths
  with gap < ε, using frac-decomp (or any Check oracle) as ``find-fhd``.
* :func:`integralize` / :func:`oklogk_decomposition` — Theorem 6.23 /
  Corollary 6.25: replace each γ_u by a greedy integral cover; bounded VC
  dimension (hence the BMIP, Lemma 6.24) bounds the loss to O(log k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from ..covers import EPS, FractionalCover
from ..decomposition import Decomposition, validate
from ..engine import get_context, oracle_for
from ..hypergraph import Hypergraph, intersection_width
from ..pipeline.batch import solve_many

__all__ = [
    "fractional_part_bound",
    "frac_decomp",
    "FHWApproximationResult",
    "fhw_approximation",
    "integralize",
    "oklogk_decomposition",
]


def fractional_part_bound(k: float, i: int, eps: float) -> int:
    """The c of Lemma 6.4: ``c = 2ik² + 4k³i/ε``.

    Any width-k FHD of an iwidth-i hypergraph can be rewritten to width
    k+ε with at most this many fractionally-covered vertices per node.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    return int(math.ceil(2 * i * k * k + 4 * (k**3) * i / eps))


class _FracDecompSearch:
    """Deterministic state-space search for Algorithm 3.

    State = (C_r, W_r, R); guesses are pairs (S, W_s) with |S| <= ⌊k+ε⌋
    and |W_s| <= c.  Checks 2.a-2.c are exactly the paper's.  W_s must
    contain the uncovered frontier (forced by check 2.b), and optional
    extra vertices are drawn from the frontier region — a practical
    restriction documented in DESIGN.md; results are re-validated.

    Like :class:`~repro.engine.search.CheckSearch` it runs on the
    context's bitmasks: C_r, W_r and bags are vertex masks, S and R are
    edge-bit cover ints, decoded only for the oracle and the witness.
    """

    def __init__(
        self, hypergraph: Hypergraph, k: float, eps: float, c: int
    ) -> None:
        self.hg = hypergraph
        self.ctx = get_context(hypergraph)
        self.oracle = oracle_for(self.ctx)
        self.k = float(k)
        self.eps = float(eps)
        self.c = int(c)
        self.budget = self.k + self.eps
        self.max_integral = int(math.floor(self.budget + EPS))
        self._memo: dict = {}
        # Per-search memo (see StrictFHDSearch), keyed by the W_s mask:
        # one capped-cover LP per distinct W_s regardless of the shared
        # oracle's configuration.
        self._gamma_cache: dict[int, FractionalCover | None] = {}

    def run(self) -> Decomposition | None:
        root = (1 << len(self.ctx.vertex_order)) - 1
        if not self._solve(root, 0, 0):
            return None
        return self._rebuild(root)

    # -- helpers -------------------------------------------------------
    def _fractional_for(self, wanted: int, budget: float):
        """Check 2.a: γ with wanted ⊆ B(γ) and weight <= budget, or None.

        The purely fractional γ (per-edge weights capped strictly below 1,
        so the weak special condition of the witness tree stays intact)
        comes from the shared oracle's capped-cover service — see
        :meth:`repro.engine.oracle.CoverOracle.fractional_cover_capped` —
        which also shares the LP across the probes of a width search.
        """
        if wanted not in self._gamma_cache:
            self._gamma_cache[wanted] = self.oracle.fractional_cover_capped(
                self.ctx.vertices_in(wanted)
            )
        gamma = self._gamma_cache[wanted]
        if gamma is None or gamma.weight > budget + EPS:
            return None
        return gamma

    def _guesses(self, component: int, w_r: int, parent_cover: int):
        ctx = self.ctx
        frontier = (ctx.union(parent_cover) | w_r) & ctx.incident_union(component)
        target = component | frontier
        candidates = [(1 << j, ctx.edge_masks[j]) for j in ctx.candidates(target)]
        pool = [ctx.bit[v] for v in sorted(ctx.vertices_in(target), key=str)]
        # Larger integral parts first: the paper's S carries the integral
        # bulk of the cover and W_s only the fractional fringe.  Trying
        # S-heavy guesses first yields witness trees whose fractional
        # parts are genuinely small (c-bounded) and keeps the weak
        # special condition trivially intact at integral-only nodes.
        for size in range(self.max_integral, -1, -1):
            for combo in combinations(candidates, size):
                cover = covered = 0
                for bit, mask in combo:
                    cover |= bit
                    covered |= mask
                required = frontier & ~covered
                if required.bit_count() > self.c:
                    continue
                room = self.c - required.bit_count()
                extras_pool = [b for b in pool if not b & (required | covered)]
                for extra_size in range(0, min(room, len(extras_pool)) + 1):
                    for extra in combinations(extras_pool, extra_size):
                        w_s = required | sum(extra)
                        if not w_s and size == 0:
                            continue
                        # 2.c: (V(S) ∪ W_s) ∩ C_r != ∅
                        if not (covered | w_s) & component:
                            continue
                        gamma = self._fractional_for(
                            w_s, self.budget - size
                        ) if w_s else FractionalCover({})
                        if gamma is None:
                            continue
                        yield cover, w_s, gamma

    def _solve(self, component: int, w_r: int, parent_cover: int) -> bool:
        key = (component, w_r, parent_cover)
        if key in self._memo:
            return self._memo[key] is not None
        self._memo[key] = None
        for cover, w_s, _gamma in self._guesses(component, w_r, parent_cover):
            separator = self.ctx.union(cover) | w_s
            child_components = self.ctx.split(component & ~separator)
            if all(
                self._solve(child, w_s, cover) for child in child_components
            ):
                self._memo[key] = (cover, w_s, child_components)
                return True
        return False

    def _rebuild(self, root: int) -> Decomposition:
        ctx = self.ctx
        nodes = []
        parent: dict[str, str] = {}

        def build(component, w_r, parent_cover, parent_id, parent_bag):
            entry = self._memo[(component, w_r, parent_cover)]
            assert entry is not None
            cover, w_s, child_components = entry
            gamma_extra = (
                self._fractional_for(w_s, self.budget - cover.bit_count())
                if w_s
                else FractionalCover({})
            )
            assert gamma_extra is not None
            weights = dict(gamma_extra.weights)
            for e in ctx.edges_in(cover):
                weights[e] = 1.0
            gamma = FractionalCover(weights)
            region = ctx.union(cover) | w_s
            bag = region if parent_id is None else region & (
                parent_bag | component
            )
            node_id = f"n{len(nodes)}"
            nodes.append((node_id, ctx.vertices_in(bag), gamma))
            if parent_id is not None:
                parent[node_id] = parent_id
            for child in child_components:
                build(child, w_s, cover, node_id, bag)

        build(root, 0, 0, None, 0)
        return Decomposition(nodes, parent=parent, root="n0")


def frac_decomp(
    hypergraph: Hypergraph,
    k: float,
    eps: float = 0.5,
    c: int | None = None,
) -> Decomposition | None:
    """Algorithm 3: an FHD of width <= k+ε with c-bounded fractional part.

    ``c`` defaults to a small practical bound (min of the Lemma 6.4 value
    and 3) — the theoretical value is astronomically large and any
    returned decomposition is re-validated, so a larger c only widens the
    search.  Returns None when the search fails within these bounds.
    """
    if c is None:
        i = intersection_width(hypergraph)
        c = min(fractional_part_bound(k, max(i, 1), eps), 3)
    result = _FracDecompSearch(hypergraph, k, eps, c).run()
    if result is not None:
        validate(hypergraph, result, kind="fhd", width=k + eps + EPS)
    return result


@dataclass
class FHWApproximationResult:
    """Outcome of Algorithm 4 with its full binary-search trace."""

    decomposition: Decomposition | None
    width: float | None
    iterations: int = 0
    trace: list[tuple[float, float, bool]] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.decomposition is None


def _fhw_approximation_direct(
    hypergraph: Hypergraph,
    K: float,
    eps: float,
    find_fhd=None,
) -> FHWApproximationResult:
    """Algorithm 4 on one block (the pipeline's core)."""
    if find_fhd is None:
        find_fhd = lambda h, k, e: frac_decomp(h, k, e)

    result = FHWApproximationResult(None, None)
    best = find_fhd(hypergraph, K, eps)
    if best is None:
        return result  # fhw(H) > K
    low, high = 1.0, K + eps
    eps3 = eps / 3.0
    decomposition = best
    while high - low >= eps:
        mid = low + (high - low) / 2.0
        probe = find_fhd(hypergraph, mid, eps3)
        result.iterations += 1
        result.trace.append((low, high, probe is not None))
        if probe is not None:
            high = mid + eps3
            decomposition = probe
        else:
            low = mid
    result.decomposition = decomposition
    result.width = decomposition.width()
    return result


def fhw_approximation(
    hypergraph: Hypergraph,
    K: float,
    eps: float,
    find_fhd=None,
    preprocess: str = "full",
    jobs: int | None = None,
) -> FHWApproximationResult:
    """Algorithm 4 (FHW-Approximation): the PTAAS of Theorem 6.20.

    Returns an FHD of width < fhw(H) + ε if fhw(H) <= K, else a failed
    result.  ``find_fhd(H, k, eps)`` may be supplied (defaults to
    :func:`frac_decomp`); it must return an FHD of width <= k+eps or
    None.  Under the pipeline (default) the binary search runs per
    biconnected block of the reduced instance — ``find_fhd`` then
    receives block hypergraphs — and the stitched FHD keeps the ε
    guarantee because fhw decomposes as the max over blocks.  ``jobs=N``
    runs blocks in parallel; ``preprocess="none"`` searches one
    unreduced block.

    The trace records each probe ``(L, U, success)``; under the
    pipeline it is the trace of the block with the most iterations
    (among the failed blocks, when the result is a failure).  Theorem
    6.20 bounds the iteration count by ``⌈log((K+ε−1)/(ε/3))⌉``-ish,
    which experiment E12 verifies.
    """
    return solve_many(
        [(hypergraph, "fhw-approximation",
          {"K": K, "eps": eps, "find_fhd": find_fhd})],
        preprocess=preprocess, jobs=jobs,
    )[0].unwrap()


def integralize(
    hypergraph: Hypergraph, decomposition: Decomposition
) -> Decomposition:
    """Replace each γ_u by a greedy integral edge cover of B_u (Thm 6.23).

    The result is a GHD whose width exceeds the FHD's by at most the
    cover integrality gap of the bag hypergraphs — O(log k) under bounded
    VC dimension, hence under the BMIP (Lemma 6.24, Corollary 6.25).
    """
    oracle = oracle_for(hypergraph)
    nodes = []
    for nid in decomposition.node_ids:
        bag = decomposition.bag(nid)
        lam = oracle.greedy_cover(bag)
        assert lam is not None, "bag vertices must be coverable"
        nodes.append((nid, bag, lam))
    ghd = Decomposition(
        nodes,
        parent={
            nid: decomposition.parent(nid)
            for nid in decomposition.node_ids
            if decomposition.parent(nid) is not None
        },
        root=decomposition.root,
    )
    validate(hypergraph, ghd, kind="ghd")
    return ghd


def oklogk_decomposition(
    hypergraph: Hypergraph, fhd: Decomposition
) -> tuple[Decomposition, float]:
    """Corollary 6.25 pipeline: FHD → integralized GHD, with the ratio.

    Returns ``(ghd, width_ratio)`` where ratio = ghd width / fhd width;
    bounded VC dimension keeps it O(log fhw).
    """
    ghd = integralize(hypergraph, fhd)
    return ghd, ghd.width() / max(fhd.width(), EPS)

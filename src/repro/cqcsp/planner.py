"""Decompositions as cached query plans — the paper's point, end to end.

The motivation for computing (generalized) hypertree width is that a
low-width decomposition *is* a query plan: a CQ whose hypergraph has
ghw k evaluates in polynomial time via Yannakakis over the join tree
(Section 1).  This module closes that loop against the serving stack:

* **plan** — :meth:`QueryPlanner.plan` routes the query hypergraph
  through the full reduce → split → solve → stitch pipeline
  (one :func:`~repro.pipeline.batch.solve_many` request of kind
  ``"ghw"`` — integral covers, exactly what Yannakakis needs).  With a
  :class:`~repro.store.ResultStore` attached, the witness persists
  under the canonical hypergraph hash, so every later query of the
  same *shape* — same canonical hypergraph, any data — replays the
  stored plan with zero solver tasks and zero LP solves.
* **execute** — :meth:`QueryPlanner.execute` derives the join tree
  from the stitched witness (one relation per decomposition node: π_bag
  of the join of its λ-atoms and every atom inside the bag, built along
  shared variables with the projection pushed below the joins — see
  :func:`~repro.cqcsp.evaluate.node_relations_from_ghd`) and runs
  semijoin reduction + Yannakakis, projecting to the head.

The plan key has the same dimensions as the store's instance records
and the serve daemon's coalescing identity — canonical hash × kind ×
params fingerprint — so "two requests share one plan
computation" and "two requests share one store record" are the same
statement (see :func:`plan_key`).  The shape determines the join tree
only; the query's head, constants, argument order and repeated
variables live outside the hypergraph, so a shared plan is always
rebound to the asking query (:meth:`QueryPlan.rebound`) before it
executes — ``q(x) :- r(x, 3)`` and ``q(x) :- r(x, 5)`` share one
decomposition and keep their own answers.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import asdict, dataclass, replace

from ..decomposition import Decomposition
from ..hypergraph import Hypergraph
from ..pipeline.batch import BatchRequest, solve_many
from ..store import ResultStore, params_fingerprint
from .evaluate import node_relations_from_ghd
from .query import ConjunctiveQuery
from .relations import Relation
from .yannakakis import yannakakis

__all__ = [
    "PLAN_KIND",
    "plan_key",
    "QueryPlan",
    "PlanInfo",
    "QueryResult",
    "PlannerStats",
    "QueryPlanner",
    "answer_query",
]

#: The width kind every plan solve uses.  Yannakakis needs one relation
#: per node built from whole atoms, i.e. *integral* covers — a GHD.
#: (fhw witnesses are fractional and cannot host node relations.)
PLAN_KIND = "ghw"


def plan_key(
    query: ConjunctiveQuery, params: Mapping | None = None
) -> tuple:
    """The caching/coalescing identity of a query's plan.

    ``(canonical hypergraph hash, kind, params fingerprint)`` —
    the same dimensions :class:`~repro.store.ResultStore` keys instance
    records on and the serve daemon coalesces on, so queries that share
    a plan computation are exactly the ones that share a store record.
    Two queries with different relation names but isomorphic hypergraphs
    do NOT share a plan (the canonical hash covers edge names), which is
    what keeps the stored witness's λ edge names resolvable against the
    query's atoms.

    The key identifies a *plan*, not a query: distinct queries may
    share it (the hypergraph does not see the head, constants, atom
    argument order or repeated-variable patterns).  Sharing the
    decomposition across them is the whole point — but execution must
    then run each caller's own query, which is why every cache hit is
    rebound via :meth:`QueryPlan.rebound` before it leaves the planner.
    """
    return (
        query.hypergraph().canonical_hash(),
        PLAN_KIND,
        params_fingerprint(dict(params or {})),
    )


@dataclass(frozen=True)
class QueryPlan:
    """A solved, reusable plan for one query shape.

    Attributes
    ----------
    query : ConjunctiveQuery
        The query this plan instance is *bound* to — execution runs
        exactly this query's head, constants, argument order and
        repeated-variable patterns.  The decomposition is shared by
        every query of the shape; :meth:`rebound` attaches it to
        another same-shape query (the planner does this on every
        in-memory cache hit, so :meth:`QueryPlanner.plan` always
        returns a plan bound to the query you asked about).
    hypergraph : Hypergraph
        Its query hypergraph (variables as vertices, atom occurrences
        as edges).
    width : int
        The ghw of the hypergraph — the exponent of the evaluation
        guarantee ``O(|D|^width + output)``.
    decomposition : Decomposition
        The stitched witness GHD; its bags/covers *are* the join tree.
    key : tuple
        The :func:`plan_key` this plan is cached under.
    from_store : bool
        Whether the solve was answered by a persistent store record
        instead of running the exact engines.
    """

    query: ConjunctiveQuery
    hypergraph: Hypergraph
    width: int
    decomposition: Decomposition
    key: tuple
    from_store: bool

    def rebound(self, query: ConjunctiveQuery) -> "QueryPlan":
        """This plan carrying ``query`` in place of the one it holds.

        A plan depends on its query only through the query hypergraph:
        the witness's λ edge names (``relation#i``) and bag variables
        are fixed by the canonical hash, so any query with the same
        canonical hypergraph can reuse the decomposition.  Everything
        the hypergraph does *not* see — the head, constants, argument
        order, repeated-variable patterns — lives on the query object,
        which is exactly why execution must receive the caller's own
        query and never a cached exemplar's (distinct queries share a
        hypergraph: ``q(x) :- r(x, 3)`` and ``q(x) :- r(x, 5)`` have
        different answers but one plan).

        Raises ``ValueError`` when ``query`` has a different canonical
        hypergraph — such a query cannot ride this decomposition.
        """
        if query == self.query:
            return self
        if plan_key(query) != self.key:
            raise ValueError(
                "query does not share this plan's hypergraph shape"
            )
        return replace(self, query=query)


@dataclass(frozen=True)
class PlanInfo:
    """How one :meth:`QueryPlanner.plan_detailed` call was satisfied.

    ``cache_hit`` — served from the in-memory plan cache (no scheduler
    run at all).  ``from_store`` — a scheduler ran but the persistent
    store answered it (zero exact tasks).  ``tasks_run`` / ``lp_solves``
    — exact engine work of this call (0 on either kind of hit).
    ``store_write_errors`` — failed write-backs of the plan solve.
    """

    cache_hit: bool
    from_store: bool
    tasks_run: int = 0
    lp_solves: int = 0
    store_write_errors: int = 0
    seconds: float = 0.0


@dataclass(frozen=True)
class QueryResult:
    """Answers of one execution plus the plan that produced them."""

    answers: Relation
    cost: int
    plan: QueryPlan

    @property
    def satisfied(self) -> bool:
        """True iff there is at least one answer (Boolean semantics)."""
        return not self.answers.is_empty()


@dataclass
class PlannerStats:
    """Lifetime counters of one :class:`QueryPlanner`.

    ``plans`` counts scheduler runs (cold plans), ``plan_cache_hits``
    in-memory replays, ``plan_store_hits`` runs answered by the
    persistent store, ``executions`` Yannakakis runs, and ``tasks_run``
    / ``lp_solves`` the exact-engine work summed over all plan solves —
    both stay at 0 when every shape is plan-warm.
    """

    plans: int = 0
    plan_cache_hits: int = 0
    plan_store_hits: int = 0
    executions: int = 0
    tasks_run: int = 0
    lp_solves: int = 0

    def as_dict(self) -> dict:
        """The counters as a JSON-ready dictionary."""
        return asdict(self)


class QueryPlanner:
    """Plan-then-execute CQ answering over the width pipeline.

    Parameters
    ----------
    store : ResultStore or str or None
        Persistent plan cache.  A path opens a store at that directory
        for the planner's lifetime; a :class:`~repro.store.ResultStore`
        is shared (the serve daemon passes its own).  ``None`` still
        caches plans in memory, but restarts start cold.
    bounds, preprocess : str
        Scheduler configuration for plan solves (same meanings as the
        ``repro width`` flags).
    jobs : int, optional
        Worker count inside each plan solve.
    executor : str
        Pool type of plan solves — one of
        :data:`~repro.pipeline.solve.EXECUTORS`.
    max_plans : int
        In-memory plan LRU capacity (evicts least-recently-used; the
        persistent store is unaffected by eviction).
    """

    def __init__(
        self,
        store: ResultStore | str | None = None,
        *,
        bounds: str = "portfolio",
        preprocess: str = "full",
        jobs: int | None = None,
        executor: str = "thread",
        max_plans: int = 128,
    ) -> None:
        self._owns_store = store is not None and not isinstance(
            store, ResultStore
        )
        self.store = ResultStore(store) if self._owns_store else store
        self.bounds = bounds
        self.preprocess = preprocess
        self.jobs = jobs
        self.executor = executor
        self.max_plans = max(1, int(max_plans))
        self.stats = PlannerStats()
        self._plans: OrderedDict[tuple, QueryPlan] = OrderedDict()
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the store if this planner opened it from a path."""
        if self._owns_store and self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------
    def plan(self, query: ConjunctiveQuery) -> QueryPlan:
        """The (cached) plan for a query; solves its hypergraph if cold."""
        found, _info = self.plan_detailed(query)
        return found

    def plan_detailed(
        self, query: ConjunctiveQuery
    ) -> tuple[QueryPlan, PlanInfo]:
        """Like :meth:`plan`, also reporting how the plan was obtained.

        The serve daemon uses the :class:`PlanInfo` to account exact
        work per computation (its warm-restart guarantee asserts the
        counters stay at zero on repeated shapes).
        """
        cached = self.cached_plan(query)
        if cached is not None:
            return cached
        hypergraph = query.hypergraph()
        key = plan_key(query)
        started = time.perf_counter()
        (handle,) = solve_many(
            [BatchRequest(hypergraph, kind=PLAN_KIND, label=query.name)],
            jobs=self.jobs,
            preprocess=self.preprocess,
            executor=self.executor,
            bounds=self.bounds,
            store=self.store,
        )
        width, witness = handle.unwrap()
        run_stats = handle.stats
        if not witness.is_integral():
            raise ValueError(
                "plan solve returned a non-integral witness; "
                "Yannakakis needs a GHD"
            )
        plan = QueryPlan(
            query=query,
            hypergraph=hypergraph,
            width=int(width),
            decomposition=witness,
            key=key,
            from_store=run_stats.store_instance_hits > 0,
        )
        info = PlanInfo(
            cache_hit=False,
            from_store=plan.from_store,
            tasks_run=run_stats.tasks_run,
            lp_solves=run_stats.lp_solves,
            store_write_errors=run_stats.store_write_errors,
            seconds=time.perf_counter() - started,
        )
        with self._lock:
            self.stats.plans += 1
            self.stats.plan_store_hits += 1 if plan.from_store else 0
            self.stats.tasks_run += info.tasks_run
            self.stats.lp_solves += info.lp_solves
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
        return plan, info

    def cached_plan(
        self, query: ConjunctiveQuery
    ) -> tuple[QueryPlan, PlanInfo] | None:
        """:meth:`plan_detailed`'s answer from the in-memory plan cache
        alone, or None on a miss.

        The one plan-LRU lookup: :meth:`plan_detailed` and the serve
        daemon's event-loop hit both come here.  A hit counts in
        ``stats.plan_cache_hits`` and is rebound to ``query``: the
        cached plan may have been derived for a *different* query of
        the same shape (same canonical hypergraph, different
        head/constants/argument order), and returning that exemplar
        verbatim silently answered the wrong query.
        """
        key = plan_key(query)
        with self._lock:
            cached = self._plans.get(key)
            if cached is None:
                return None
            self._plans.move_to_end(key)
            self.stats.plan_cache_hits += 1
        return cached.rebound(query), PlanInfo(
            cache_hit=True, from_store=False
        )

    # ------------------------------------------------------------------
    def execute(
        self, plan: QueryPlan, database: Mapping[str, Relation]
    ) -> QueryResult:
        """Run semijoin reduction + Yannakakis along the plan's tree.

        Executes ``plan.query`` — the query the plan is *bound* to,
        which for plans obtained from :meth:`plan` / :meth:`plan_detailed`
        is always the query that was asked (cache hits are rebound).
        Holders of a shared plan answering a different same-shape query
        (the serve daemon's coalesced siblings) must rebind first via
        :meth:`QueryPlan.rebound`.

        ``database`` maps relation names to :class:`Relation` objects;
        every atom of the plan's query must resolve to a relation of
        matching arity (``ValueError`` otherwise).  The same plan may
        execute against any number of databases — that is the point.
        """
        node_rels, build_cost = node_relations_from_ghd(
            plan.query, database, plan.decomposition
        )
        answers, join_cost = yannakakis(
            plan.decomposition, node_rels, plan.query.head
        )
        with self._lock:
            self.stats.executions += 1
        return QueryResult(answers, build_cost + join_cost, plan)

    def answer(
        self, query: ConjunctiveQuery, database: Mapping[str, Relation]
    ) -> QueryResult:
        """Plan (or replay a cached plan) and execute in one call."""
        return self.execute(self.plan(query), database)


def answer_query(
    query: ConjunctiveQuery,
    database: Mapping[str, Relation],
    store: ResultStore | str | None = None,
    **options,
) -> QueryResult:
    """One-shot convenience: plan and execute with a throwaway planner.

    ``options`` are forwarded to :class:`QueryPlanner` (``bounds``,
    ``preprocess``, ``jobs``, ``executor``, ``max_plans``).
    Prefer holding a :class:`QueryPlanner` when answering many queries —
    it is what makes repeated shapes free.
    """
    planner = QueryPlanner(store, **options)
    try:
        return planner.answer(query, database)
    finally:
        planner.close()

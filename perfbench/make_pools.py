"""Regenerate ``pools.json``: the structure-fixed instance pools.

Run from the repository root::

    python3 perfbench/make_pools.py

Every workload draws its requests from these pools.  The benchmark
seed never changes a pool's structure; it only prefixes names and
orders requests (see ``workloads.py``).  This script picks the
instances once and solves each with the repository's own scheduler to
pin its expected width.  The benchmark reads only the JSON file, so a
later change to the generators cannot change what it measures.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.cqcsp import relation_to_payload  # noqa: E402
from repro.cqcsp.evaluate import evaluate_naive  # noqa: E402
from repro.cqcsp.workloads import (  # noqa: E402
    chain_query,
    cycle_query,
    random_graph_relation,
    snowflake_query,
    star_query,
)
from repro.hypergraph import Hypergraph  # noqa: E402
from repro.hypergraph.generators import (  # noqa: E402
    cycle,
    random_cq_hypergraph,
    random_csp_hypergraph,
)
from repro.pipeline.batch import BatchRequest, BatchScheduler  # noqa: E402

#: random_csp_hypergraph(9, 13, arity=2) seeds whose fhw solve costs one
#: exact task and 35-90 LP solves (about 60-165 ms each).
FHW_SEEDS = (6, 7, 11, 15, 20, 26, 29, 30, 31, 34, 35, 38, 49)

#: Two more seeds of the same shape that cost one task and about 290 LP
#: solves (about 390 ms), over twice the costliest above.  They are 2 of
#: 15 requests, so a pass's p90 falls low in their block of samples: it
#: moves with their cost, and a slow phase of the machine has to hold
#: most of their samples before it moves p90.
FHW_HEAVY_SEEDS = (37, 75)

#: Width-3 binary CSPs, (n_vars, n_constraints, seed): ghw needs exactly
#: one exact CheckSearch task and no LP solve.  Each costs 55-60 ms at
#: best over six renamings, some 30 times a CQ below.  They are 5 of 41
#: requests, so a pass's p90 falls low in their block of samples, as for
#: the heavy fhw seeds.
GHW_CSPS = (
    (10, 16, 5), (10, 16, 25), (11, 18, 50), (11, 18, 58), (11, 18, 73),
)

#: HyperBench-like CQs in the ghw pool (the bounds pre-pass decides
#: each one) and, with three kinds each, in the warm corpus.
GHW_CQS = 36
WARM_CQS = 16

#: Query pool: (shape, random_graph_relation seed, cold copy per pass).
QUERY_SHAPES = (
    ("star3", 1, False),
    ("star4", 2, True),
    ("chain3", 3, False),
    ("chain4", 4, True),
    ("chain5", 5, False),
    ("cycle3", 6, False),
    ("cycle4", 7, True),
    ("cycle5", 8, False),
    ("snowflake2x2", 9, False),
    ("snowflake2x3", 10, False),
)


def cq_hypergraphs(count: int) -> list[Hypergraph]:
    """HyperBench-like CQs, the same sequence on every call."""
    rng = random.Random(12345)
    out = []
    for s in range(count):
        params = dict(
            n_atoms=rng.randint(3, 9),
            max_arity=rng.randint(2, 5),
            cyclicity=rng.choice([0.0, 0.2, 0.4]),
        )
        out.append(random_cq_hypergraph(rng=random.Random(s), **params))
    return out


def width(hypergraph: Hypergraph, kind: str):
    """Solve one instance cold with the repository's scheduler."""
    scheduler = BatchScheduler()
    handle = scheduler.submit(BatchRequest(hypergraph, kind=kind))
    scheduler.run()
    return handle.unwrap()[0]


def instance(ident: str, hypergraph: Hypergraph, kind: str) -> dict:
    return {
        "id": ident,
        "kind": kind,
        "edges": {
            name: sorted(map(str, vs))
            for name, vs in sorted(hypergraph.edges.items())
        },
        "width": width(hypergraph, kind),
    }


def query_entry(shape: str, seed: int, cold: bool) -> dict:
    builders = {
        "star": lambda a: star_query(a[0]),
        "chain": lambda a: chain_query(a[0]),
        "cycle": lambda a: cycle_query(a[0]),
        "snowflake": lambda a: snowflake_query(a[0], a[1]),
    }
    family = shape.rstrip("0123456789x")
    args = [int(x) for x in shape[len(family):].split("x")]
    query = builders[family](args)
    relation = random_graph_relation(40, 0.1, seed=seed)
    expected = evaluate_naive(query, {"r": relation}).answers
    return {
        "id": f"q-{shape}",
        "head": list(query.head),
        "atoms": [[a.relation, list(a.variable_names)] for a in query.atoms],
        "relation": relation_to_payload(relation),
        "answers": len(expected),
        "cold": cold,
    }


def main() -> int:
    pools: dict = {"fhw": [], "ghw": [], "warm": [], "query": []}
    for s in FHW_SEEDS + FHW_HEAVY_SEEDS:
        h = random_csp_hypergraph(9, 13, 2, rng=random.Random(s))
        pools["fhw"].append(instance(f"csp9x13-s{s}", h, "fhw"))
    for i, h in enumerate(cq_hypergraphs(GHW_CQS)):
        pools["ghw"].append(instance(f"cq{i}", h, "ghw"))
    for n, m, s in GHW_CSPS:
        h = random_csp_hypergraph(n, m, 2, rng=random.Random(s))
        pools["ghw"].append(instance(f"csp{n}x{m}-s{s}", h, "ghw"))
    for i, h in enumerate(cq_hypergraphs(WARM_CQS)):
        for kind in ("hw", "ghw", "fhw"):
            pools["warm"].append(instance(f"cq{i}-{kind}", h, kind))
    for ident, kind, h in (
        ("cycle6-hw", "hw", cycle(6)),
        ("csp10x16-s32-ghw", "ghw",
         random_csp_hypergraph(10, 16, 2, rng=random.Random(32))),
        ("csp9x13-s11-fhw", "fhw",
         random_csp_hypergraph(9, 13, 2, rng=random.Random(11))),
        ("csp9x13-s26-fhw", "fhw",
         random_csp_hypergraph(9, 13, 2, rng=random.Random(26))),
    ):
        pools["warm"].append(instance(ident, h, kind))
    for shape, seed, cold in QUERY_SHAPES:
        pools["query"].append(query_entry(shape, seed, cold))
    out = HERE / "pools.json"
    out.write_text(json.dumps(pools, indent=1, sort_keys=True) + "\n")
    for name, pool in pools.items():
        print(f"{name}: {len(pool)} entries")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

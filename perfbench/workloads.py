"""The three traffic mixes, built from the structure-fixed pools.

``pools.json`` (written by ``make_pools.py``) fixes every instance's
structure and pins its expected answer.  The seed changes only names
and order: it prefixes every vertex, edge and relation name, and it
shuffles each pass.  A prefix is the same length for every seed and is
shared by all names of one instance, so the sorted order of names,
and with it the work each instance costs, is the same under every seed.
Fresh names also make a cold request miss the result store, the plan
LRU, request coalescing and the engine's context registry.

A *pass* is one shuffled round over a workload's pool.  The timed phase
runs whole passes only, so every run does the same work per pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

POOLS_FILE = Path(__file__).resolve().parent / "pools.json"

#: Decomposition kind each width kind is validated as.
DKIND = {"hw": "hd", "ghw": "ghd", "fhw": "fhd"}

EPS = 1e-6


@dataclass(frozen=True)
class Workload:
    """One traffic mix: the pools it draws on and a pass shape."""

    name: str
    pools: tuple[str, ...]
    #: Cold mixes rename every request of every pass, so each one
    #: misses every cache; warm mixes reuse one set of names per run.
    cold: bool
    #: Pool entries sent once, under throw-away names, before timing
    #: starts (lazy imports, first LP); None sends one whole pass.
    warmup: tuple | None = None
    #: Times the pool appears in one pass (cheap requests need more).
    repeat: int = 1
    #: Whether the store is filled with ``repro warm`` before the
    #: daemon starts.
    prefill: bool = False


#: Why each mix exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # fhw CSPs (LP-bound: covers, engine oracle) and ghw CQs and CSPs
        # (pipeline, bounds, CheckSearch; no LP); store appends.  Warms
        # up on two fhw CSPs, two ghw CQs and one ghw CSP.
        Workload("solve-cold", ("fhw", "ghw"), cold=True, warmup=(0, 1, 15, 16, -1)),
        # Transport, store lookup and witness re-validation.
        Workload("solve-warm", ("warm",), cold=False, repeat=4, prefill=True),
        # Request decoding, planning and Yannakakis execution.
        Workload("query-mixed", ("query",), cold=False),
    )
}


def load_pool(workload: Workload) -> list:
    """The workload's pools, one after the other."""
    pools = json.loads(POOLS_FILE.read_text())
    return [entry for name in workload.pools for entry in pools[name]]


def prefix(seed: int, tag: str = "") -> str:
    """The name prefix of one seed (and optional pass tag), fixed width."""
    return f"s{seed % 10**6:06d}{tag}_"


def pass_tag(phase: str, index: int) -> str:
    return f"{phase}{index:04d}"


@dataclass
class Job:
    """One request: what to send and what a correct answer is."""

    entry: dict
    prefix: str
    #: Whether the names are new to this pass (a cold request).
    fresh: bool = False

    @property
    def is_query(self) -> bool:
        return "atoms" in self.entry

    def edges(self) -> dict:
        p = self.prefix
        return {
            p + name: [p + v for v in vs]
            for name, vs in self.entry["edges"].items()
        }

    def query_text(self) -> str:
        p, e = self.prefix, self.entry
        atoms = ", ".join(
            f"{p}{rel}({', '.join(p + v for v in args)})"
            for rel, args in e["atoms"]
        )
        head = ", ".join(p + v for v in e["head"])
        return f"q({head}) :- {atoms}."

    def relations(self) -> dict:
        rels = {rel for rel, _args in self.entry["atoms"]}
        return {self.prefix + rel: self.entry["relation"] for rel in rels}


def pass_jobs(workload: Workload, pool: list, seed: int, phase: str,
              index: int) -> list[Job]:
    """The shuffled requests of pass ``index`` of one phase.

    Cold solve mixes give every request of the pass fresh names.  The
    warm mix reuses the run's names (the ones the store was filled
    with).  The query mix reuses the run's names for every entry and
    adds one freshly named copy of each entry marked ``cold``, which
    costs a cold plan solve and a store append.
    """
    base = prefix(seed)
    tagged = prefix(seed, pass_tag(phase, index))
    jobs: list[Job] = []
    for entry in pool * workload.repeat:
        jobs.append(Job(entry, tagged, True) if workload.cold else Job(entry, base))
        if entry.get("cold"):
            jobs.append(Job(entry, tagged, True))
    random.Random(f"{seed}/{phase}/{index}").shuffle(jobs)
    return jobs


def warmup_jobs(workload: Workload, pool: list, seed: int) -> list[Job]:
    """Requests sent before the timed phase, untimed."""
    if workload.warmup is None:
        return pass_jobs(workload, pool, seed, "w", 0)
    tag = prefix(seed, pass_tag("w", 0))
    return [Job(pool[i], tag, True) for i in workload.warmup]


def manifest(pool: list, seed: int, directory: Path) -> Path:
    """Write a ``repro warm`` manifest of the run's names for ``pool``."""
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, entry in enumerate(pool):
        job = Job(entry, prefix(seed))
        path = directory / f"{i:03d}.hg"
        path.write_text(
            "".join(
                f"{name}({','.join(vs)}),\n"
                for name, vs in sorted(job.edges().items())
            ).rstrip(",\n")
            + ".\n"
        )
        entries.append({"file": path.name, "kind": entry["kind"]})
    out = directory / "manifest.json"
    out.write_text(json.dumps(entries))
    return out

"""Scheduler identity: what every request kind answers and costs, pinned.

Every kind of the batch scheduler runs on a small corpus under each
bounds mode, at ``jobs=1``, in four store phases: no store, a cold
store, a warm re-run on the reopened store, and a store that holds only
the cold run's per-block records (its instance records stripped, so the
per-block seeding path answers).  Each phase pins:

* the digest of the answer in the store's answer schema, or the error;
* ``tasks_run`` and ``tasks_cancelled``;
* the ``bounds_*`` counters and ``anytime_answers``;
* ``store_blocks_seeded`` and ``store_records_appended``.

Besides the ``test_entry_points.py`` corpus, the cases include three
failures (a ``kmax``-capped hw search over two components, and a
rejecting ``check-ghd`` and ``check-fhd-bd`` over three blocks), a
``check-ghd`` with an enumeration cap, whose bounds witness must not
answer it, a width search and an exact oracle whose tasks raise, and
two requests with a param no spec takes.

Some witnesses follow the iteration order of string sets, so the
observations run in one child process under ``PYTHONHASHSEED=0``.  The
pins live in ``scheduler_identity.json`` next to this file; to
re-record them at a commit whose behaviour is the reference, run::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/test_scheduler_identity.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import clique, cycle, grid, triangle_cascade
from repro.pipeline import BOUNDS_MODES, BatchRequest, BatchScheduler
from repro.pipeline.batch import _KIND_TABLE
from repro.store import ResultStore, answer_payload

PINS = Path(__file__).with_name("scheduler_identity.json")

#: The ``test_entry_points.py`` corpus: its golden single-block
#: instances and its instance with an isolated vertex.
CORPUS = {
    h.name: h
    for h in (cycle(5), clique(4), grid(2, 3), triangle_cascade(2))
}
CORPUS["isolated"] = Hypergraph({"e": ["a"], "f": ["a", "b"]}, vertices=["z"])

#: Request params per kind (the check kinds ask k = 2).
KIND_PARAMS = {
    "hw": {},
    "ghw": {},
    "ghw-exact": {},
    "fhw": {},
    "bounds": {},
    "check-hd": {"k": 2},
    "check-ghd": {"k": 2},
    "check-fhd-bd": {"k": 2},
    "heuristic-decomposition": {},
    "fhw-approximation": {"K": 2.0, "eps": 0.5},
}

#: A triangle and a square, disjoint: two blocks even for hw.
TWO_COMPONENTS = Hypergraph(
    {
        "t1": ["a", "b"], "t2": ["b", "c"], "t3": ["c", "a"],
        "s1": ["w", "x"], "s2": ["x", "y"], "s3": ["y", "z"],
        "s4": ["z", "w"],
    },
    name="two-components",
)

#: case id -> (hypergraph, kind, params).
CASES = {
    f"{name}/{kind}": (h, kind, params)
    for name, h in CORPUS.items()
    for kind, params in KIND_PARAMS.items()
}
CASES.update(
    {
        # k = 1 rejected on a block: the cap error.
        "two-components/hw-kmax1": (TWO_COMPONENTS, "hw", {"kmax": 1}),
        # The first block rejects; its siblings are never submitted.
        "triangles(3)/check-ghd-k1": (
            triangle_cascade(3), "check-ghd", {"k": 1},
        ),
        "triangles(3)/check-fhd-bd-k1": (
            triangle_cascade(3), "check-fhd-bd", {"k": 1},
        ),
        # An enumeration cap: the bounds witness must not answer.
        "triangles(3)/check-ghd-capped": (
            triangle_cascade(3), "check-ghd", {"k": 2, "max_sets": 10**6},
        ),
        # Params no spec takes: one ValueError before anything runs.
        "triangles(3)/ghw-bad-cap": (
            triangle_cascade(3), "ghw", {"bogus": 1},
        ),
        "triangles(3)/fhw-bad-param": (
            triangle_cascade(3), "fhw", {"bogus": 1},
        ),
        # Valid params whose task raises: the DP's vertex limit, and
        # the subedge generator's enumeration cap (k = 1 takes the GYO
        # path, which ignores caps; k = 2 does not).  The request fails
        # where a task runs.
        "triangles(3)/fhw-dp-limit": (
            triangle_cascade(3), "fhw", {"vertex_limit": 2},
        ),
        "triangles(3)/ghw-cap-hit": (
            triangle_cascade(3), "ghw", {"max_sets": 1},
        ),
    }
)

COUNTERS = (
    "tasks_run",
    "tasks_cancelled",
    "bounds_ks_pruned",
    "bounds_checks_avoided",
    "bounds_blocks_decided",
    "anytime_answers",
    "store_instance_hits",
    "store_blocks_seeded",
    "store_records_appended",
)


def _digest(kind: str, result) -> str:
    if result.error is not None:
        return f"{type(result.error).__name__}: {result.error}"
    payload = json.dumps(answer_payload(kind, result.value), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _run(case, bounds, store=None) -> dict:
    h, kind, params = case
    scheduler = BatchScheduler(jobs=1, bounds=bounds, store=store)
    result = scheduler.submit(BatchRequest(h, kind, dict(params)))
    stats = scheduler.run()
    return {
        "answer": _digest(kind, result),
        **{name: getattr(stats, name) for name in COUNTERS},
    }


def _blocks_only(source: Path, target: Path) -> None:
    """Copy every record but the instance answers into a new store."""
    with ResultStore(source) as full, ResultStore(target) as blocks:
        for key in list(full._index):
            if key[0] != "instance":
                blocks.append(key, full.get(key))


def observe(case, bounds: str, workdir: Path) -> dict:
    """The four store phases of one case under one bounds mode."""
    cold, blocks = workdir / "cold", workdir / "blocks"
    observed = {"none": _run(case, bounds)}
    with ResultStore(cold) as store:
        observed["cold"] = _run(case, bounds, store)
    with ResultStore(cold) as store:  # a fresh handle: a restart
        observed["warm"] = _run(case, bounds, store)
    _blocks_only(cold, blocks)
    with ResultStore(blocks) as store:
        observed["blocks"] = _run(case, bounds, store)
    return observed


def observe_all() -> dict:
    """Every case under every bounds mode: ``"case|bounds"`` -> phases."""
    observed = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n, case_id in enumerate(sorted(CASES)):
            for bounds in BOUNDS_MODES:
                workdir = Path(tmp) / f"{n}-{bounds}"
                workdir.mkdir()
                observed[f"{case_id}|{bounds}"] = observe(
                    CASES[case_id], bounds, workdir
                )
    return observed


@pytest.fixture(scope="module")
def observed():
    """``observe_all()`` in a child process with a pinned hash seed."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {
        **os.environ,
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        ),
    }
    out = subprocess.run(
        [sys.executable, __file__, "--observe"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def test_every_kind_is_covered():
    assert set(KIND_PARAMS) == set(_KIND_TABLE)


@pytest.mark.parametrize("bounds", BOUNDS_MODES)
@pytest.mark.parametrize("case_id", sorted(CASES))
def test_identity(case_id, bounds, observed, pins):
    key = f"{case_id}|{bounds}"
    assert observed[key] == pins[key]


class TestPinnedBehaviours:
    """Scheduler behaviours the pins hold, spelled out."""

    def test_capped_check_ignores_the_bounds_witness(self, pins):
        capped = pins["triangles(3)/check-ghd-capped|portfolio"]["none"]
        complete = pins["triangles(2)/check-ghd|portfolio"]["none"]
        assert capped["tasks_run"] == 3
        assert capped["bounds_checks_avoided"] == 0
        # Without a cap the bounds witnesses answer both blocks.
        assert complete["tasks_run"] == 0
        assert complete["bounds_checks_avoided"] == 2

    def test_check_persists_every_verdict(self, pins):
        # No bounds: the first block's task rejects, and that rejection
        # is written back (the bounds' rejections are not: the pre-pass
        # recomputes them).
        unbounded = pins["triangles(3)/check-ghd-k1|none"]
        bounded = pins["triangles(3)/check-ghd-k1|portfolio"]
        appended = "store_records_appended"
        assert unbounded["cold"][appended] == bounded["cold"][appended] + 1
        blocks = unbounded["blocks"]
        assert (blocks["store_blocks_seeded"], blocks["tasks_run"]) == (1, 0)

    def test_unsubmitted_check_blocks_count_as_cancelled(self, pins):
        for kind in ("check-ghd", "check-fhd-bd"):
            run = pins[f"triangles(3)/{kind}-k1|none"]["none"]
            assert (run["tasks_run"], run["tasks_cancelled"]) == (1, 2)

    def test_failing_task_cancels_unsubmitted_blocks_of_one_rung(self, pins):
        # The oracle's two other blocks were never submitted: cancelled.
        # A search's unstarted blocks count nothing (their cost is
        # unknown), and its first block ran k = 1 before k = 2 raised.
        oracle = pins["triangles(3)/fhw-dp-limit|none"]["none"]
        search = pins["triangles(3)/ghw-cap-hit|none"]["none"]
        assert oracle["answer"].startswith("ValueError: 3 vertices")
        assert (oracle["tasks_run"], oracle["tasks_cancelled"]) == (1, 2)
        assert search["answer"].startswith("RuntimeError: subedge fixpoint")
        assert (search["tasks_run"], search["tasks_cancelled"]) == (2, 0)

    @pytest.mark.parametrize("case", ["ghw-bad-cap", "fhw-bad-param"])
    def test_bad_params_are_one_error_in_every_mode(self, pins, case):
        runs = [
            run
            for bounds in BOUNDS_MODES
            for run in pins[f"triangles(3)/{case}|{bounds}"].values()
        ]
        assert all(run == runs[0] for run in runs)
        assert runs[0]["answer"].startswith("ValueError: unknown params")
        assert not any(runs[0][name] for name in COUNTERS)

    def test_capped_search_stops_at_its_first_exhausted_block(self, pins):
        # Like a rejected check: the first block to run out of its cap
        # decides the error, and the other block never runs.
        run = pins["two-components/hw-kmax1|none"]["none"]
        assert run["answer"].startswith("ValueError: no HD of width <= 1")
        assert run["tasks_run"] == 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--observe"]:
        print(json.dumps(observe_all()))
    elif sys.argv[1:] == ["--record"]:
        lines = [
            f"{json.dumps(key)}: {json.dumps(phases, sort_keys=True)}"
            for key, phases in sorted(observe_all().items())
        ]
        PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    else:
        raise SystemExit(__doc__)

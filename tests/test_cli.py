"""CLI integration tests (direct main() invocation, no subprocesses)."""

import json

import pytest

from repro.cli import main
from repro.hardness import CNF, paper_example_formula
from repro.hypergraph import to_hyperbench
from repro.hypergraph.generators import cycle, triangle_cascade


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.hg"
    path.write_text(to_hyperbench(cycle(6)))
    return str(path)


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "phi.cnf"
    path.write_text(paper_example_formula().to_dimacs())
    return str(path)


class TestStats:
    def test_text_output(self, c6_file, capsys):
        assert main(["stats", c6_file]) == 0
        out = capsys.readouterr().out
        assert "vertices: 6" in out
        assert "alpha_acyclic: False" in out

    def test_json_output(self, c6_file, capsys):
        assert main(["stats", c6_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["edges"] == 6
        assert data["iwidth"] == 1
        assert data["vc_dimension"] == 2


class TestWidth:
    @pytest.mark.parametrize(
        "kind,expected", [("hw", "2"), ("ghw", "2"), ("fhw", "2.0")]
    )
    def test_widths_of_c6(self, c6_file, capsys, kind, expected):
        assert main(["width", c6_file, "--kind", kind]) == 0
        assert f"= {expected}" in capsys.readouterr().out

    def test_show_witness(self, c6_file, capsys):
        assert main(["width", c6_file, "--kind", "ghw", "--show"]) == 0
        out = capsys.readouterr().out
        assert "{" in out  # bags printed


class TestDecompose:
    def test_success(self, c6_file, capsys):
        assert main(["decompose", c6_file, "-k", "2"]) == 0
        assert "width 2" in capsys.readouterr().out

    def test_failure_exit_code(self, c6_file, capsys):
        assert main(["decompose", c6_file, "-k", "1"]) == 1
        assert "no GHD" in capsys.readouterr().err

    def test_json_payload(self, c6_file, capsys):
        assert main(["decompose", c6_file, "-k", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "nodes" in data and "root" in data


class TestBounds:
    def test_fractional_bounds(self, c6_file, capsys):
        assert main(["bounds", c6_file]) == 0
        out = capsys.readouterr().out
        assert "<= fhw(" in out


class TestReduce:
    def test_report(self, cnf_file, capsys):
        assert main(["reduce", cnf_file]) == 0
        out = capsys.readouterr().out
        assert "satisfiable: True" in out
        assert "validated, 25 nodes" in out

    def test_certify(self, cnf_file, capsys):
        assert main(["reduce", cnf_file, "--certify"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 3.5 certificate: True" in out
        assert "LP equivalence: True" in out

    def test_unsat_report(self, tmp_path, capsys):
        path = tmp_path / "unsat.cnf"
        path.write_text(CNF(((1, 1, 1), (-1, -1, -1))).to_dimacs())
        assert main(["reduce", str(path)]) == 0
        out = capsys.readouterr().out
        assert "satisfiable: False" in out
        assert "none (unsat)" in out


class TestGenerate:
    def test_roundtrip_through_stats(self, tmp_path, capsys):
        assert main(["generate", "grid", "3"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "g.hg"
        path.write_text(text)
        assert main(["stats", str(path)]) == 0
        assert "vertices: 9" in capsys.readouterr().out

    def test_unknown_family(self, capsys):
        assert main(["generate", "zzz", "3"]) == 1
        assert "unknown family" in capsys.readouterr().err


class TestEngineOptions:
    def test_cache_stats_printed_without_resetting_globals(self, c6_file, capsys):
        from repro import engine

        before = engine.stats()
        assert main(["width", c6_file, "--kind", "fhw", "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "engine cache stats:" in out
        assert "lp_solves" in out
        assert "hit_rate" in out
        # The printed numbers are a per-invocation delta; the process
        # globals keep accumulating for in-process callers.
        after = engine.stats()
        assert after["lp_solves"] >= before["lp_solves"]
        assert after["cache_misses"] >= before["cache_misses"]

    def test_backend_selection_does_not_leak_config(self, c6_file, capsys):
        from repro import engine

        before = engine.engine_config().backend
        assert main(
            ["width", c6_file, "--kind", "fhw", "--backend", "purepython"]
        ) == 0
        assert "= 2.0" in capsys.readouterr().out
        assert engine.engine_config().backend == before

    def test_cache_disabled_still_correct(self, c6_file, capsys):
        from repro import engine

        previous = engine.engine_config().cache_size
        assert main(
            ["width", c6_file, "--kind", "fhw", "--cache-size", "0",
             "--cache-stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "= 2.0" in out
        assert "cache_hits: 0" in out
        assert engine.engine_config().cache_size == previous


class TestReport:
    def test_text_report(self, c6_file, capsys):
        assert main(["report", c6_file]) == 0
        out = capsys.readouterr().out
        assert "(exact)" in out and "hw=2" in out

    def test_json_report(self, c6_file, capsys):
        assert main(["report", c6_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ghw_lower"] == data["ghw_upper"] == 2.0

    def test_integral_bounds(self, c6_file, capsys):
        assert main(["bounds", c6_file, "--cost", "integral"]) == 0
        assert "<= ghw(" in capsys.readouterr().out


class TestBatch:
    @pytest.fixture
    def manifest_file(self, tmp_path):
        from repro.hypergraph.generators import clique, triangle_cascade

        (tmp_path / "c6.hg").write_text(to_hyperbench(cycle(6)))
        (tmp_path / "t3.hg").write_text(to_hyperbench(triangle_cascade(3)))
        (tmp_path / "k5.hg").write_text(to_hyperbench(clique(5)))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "requests": [
                {"file": "c6.hg", "kind": "ghw"},
                {"file": "t3.hg", "kind": "hw"},
                {"file": "k5.hg", "kind": "fhw"},
                {"file": "c6.hg", "kind": "check-ghd", "params": {"k": 1},
                 "label": "c6@1"},
                {"file": "t3.hg", "kind": "bounds"},
            ]
        }))
        return str(manifest)

    def test_text_output(self, manifest_file, capsys):
        assert main(["batch", manifest_file, "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "ghw(c6) = 2" in out
        assert "hw(t3) = 2" in out
        assert "fhw(k5) = 2.5" in out
        assert "check-ghd(c6@1, k=1) = no" in out
        assert "<= fhw(t3) <=" in out
        assert "5 requests, 5 ok, 0 failed" in out

    def test_json_output(self, manifest_file, capsys):
        assert main(["batch", manifest_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["results"]) == 5
        assert data["results"][0] == {
            "label": "c6", "kind": "ghw", "ok": True, "width": 2,
        }
        assert data["results"][3]["accepted"] is False
        assert data["stats"]["requests"] == 5
        assert data["stats"]["failures"] == 0

    def test_bare_list_manifest_and_stats(self, tmp_path, capsys):
        (tmp_path / "c4.hg").write_text(to_hyperbench(cycle(4)))
        manifest = tmp_path / "list.json"
        manifest.write_text(json.dumps(["c4.hg", {"file": "c4.hg", "kind": "fhw"}]))
        assert main(["batch", str(manifest), "--pipeline-stats"]) == 0
        out = capsys.readouterr().out
        assert "ghw(c4) = 2" in out  # bare string entry defaults to ghw
        assert "batch stats:" in out
        assert "tasks_run" in out

    def test_failing_request_reported_and_exit_1(self, tmp_path, capsys):
        (tmp_path / "c4.hg").write_text(to_hyperbench(cycle(4)))
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"file": "c4.hg", "kind": "ghw", "params": {"method": "zzz"}},
            {"file": "c4.hg", "kind": "ghw"},
        ]))
        assert main(["batch", str(manifest)]) == 1
        out = capsys.readouterr().out
        assert "ERROR" in out
        assert "ghw(c4) = 2" in out  # sibling still answered
        assert "1 failed" in out
        # An unknown kind fails to decode: a manifest error, exit 2.
        badkind = tmp_path / "badkind.json"
        badkind.write_text(json.dumps([{"file": "c4.hg", "kind": "zzz"}]))
        assert main(["batch", str(badkind)]) == 2
        err = capsys.readouterr().err
        assert "manifest entry 0: kind must be one of" in err
        assert "'zzz'" in err

    def test_bad_manifest_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["batch", str(missing)]) == 2
        assert "cannot read manifest" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["batch", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        noreq = tmp_path / "noreq.json"
        noreq.write_text(json.dumps({"files": []}))
        assert main(["batch", str(noreq)]) == 2
        assert "requests" in capsys.readouterr().err
        nofile = tmp_path / "nofile.json"
        nofile.write_text(json.dumps([{"kind": "ghw"}]))
        assert main(["batch", str(nofile)]) == 2
        assert "entry 0" in capsys.readouterr().err
        gone = tmp_path / "gone.json"
        gone.write_text(json.dumps([{"file": "missing.hg"}]))
        assert main(["batch", str(gone)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_structurally_bad_entry_values_exit_2(self, tmp_path, capsys):
        (tmp_path / "c4.hg").write_text(to_hyperbench(cycle(4)))
        intfile = tmp_path / "intfile.json"
        intfile.write_text(json.dumps([{"file": 123}]))
        assert main(["batch", str(intfile)]) == 2
        assert '"file" string' in capsys.readouterr().err
        badparams = tmp_path / "badparams.json"
        badparams.write_text(json.dumps([{"file": "c4.hg", "params": "zz"}]))
        assert main(["batch", str(badparams)]) == 2
        assert "entry 0: 'params' must be an object" in capsys.readouterr().err
        # params: null is tolerated (treated as no params)
        nullparams = tmp_path / "nullparams.json"
        nullparams.write_text(json.dumps([{"file": "c4.hg", "params": None}]))
        assert main(["batch", str(nullparams)]) == 0
        assert "ghw(c4) = 2" in capsys.readouterr().out

    def test_unknown_solver_exits_2(self, tmp_path, capsys):
        """There is one exact engine and no engine mode: a "solver"
        entry field — even "bb" — is an unknown request field, exit 2
        with a clean message, nothing solved."""
        (tmp_path / "c4.hg").write_text(to_hyperbench(cycle(4)))
        badsolver = tmp_path / "badsolver.json"
        badsolver.write_text(json.dumps([{"file": "c4.hg", "solver": "bb"}]))
        assert main(["batch", str(badsolver)]) == 2
        err = capsys.readouterr().err
        assert "entry 0: unknown request fields: ['solver']" in err
        # There is no --solver flag either: argparse exits 2.
        good = tmp_path / "good.json"
        good.write_text(json.dumps([{"file": "c4.hg"}]))
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", str(good), "--solver", "bb"])
        assert excinfo.value.code == 2

    def test_unknown_executor_key_exits_2(self, tmp_path, capsys):
        """A per-entry "executor" is an unknown request field (the pool
        is batch-wide): exit 2 with a clean message, nothing solved."""
        (tmp_path / "c4.hg").write_text(to_hyperbench(cycle(4)))
        badexec = tmp_path / "badexec.json"
        badexec.write_text(
            json.dumps([{"file": "c4.hg", "executor": "mpi"}])
        )
        assert main(["batch", str(badexec)]) == 2
        err = capsys.readouterr().err
        assert "entry 0: unknown request fields: ['executor']" in err
        assert "valid fields: hypergraph, kind, label, params" in err
        # The batch-wide flag is argparse-validated: same exit code.
        good = tmp_path / "good.json"
        good.write_text(json.dumps([{"file": "c4.hg"}]))
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", str(good), "--executor", "mpi"])
        assert excinfo.value.code == 2

    def test_entries_are_solve_payloads(self, tmp_path, capsys):
        """An entry may inline the /solve "hypergraph" instead of a
        "file" path, but not give both."""
        (tmp_path / "c4.hg").write_text(to_hyperbench(cycle(4)))
        inline = {"edges": {"ab": ["a", "b"], "bc": ["b", "c"], "ca": ["c", "a"]}}
        manifest = tmp_path / "inline.json"
        manifest.write_text(json.dumps([
            {"hypergraph": inline, "kind": "fhw", "label": "tri"},
        ]))
        assert main(["batch", str(manifest)]) == 0
        assert "fhw(tri) = 1.5" in capsys.readouterr().out
        both = tmp_path / "both.json"
        both.write_text(json.dumps([{"file": "c4.hg", "hypergraph": inline}]))
        assert main(["batch", str(both)]) == 2
        assert 'exactly one of "hypergraph" or "file"' in capsys.readouterr().err

    def test_worker_bad_endpoint_exits_2(self, capsys):
        assert main(["worker", "--connect", "no-port-here"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_width_command_solver_flag(self, tmp_path, capsys):
        """`width` runs the one exact engine with no mode flag; the
        removed --solver flag, any value, is an argparse error: exit 2."""
        (tmp_path / "t3.hg").write_text(to_hyperbench(triangle_cascade(3)))
        assert main(["width", str(tmp_path / "t3.hg"), "--kind", "hw"]) == 0
        assert "hw(t3) = 2" in capsys.readouterr().out
        for mode in ("bb", "sat", "portfolio"):
            with pytest.raises(SystemExit) as excinfo:
                main(
                    ["width", str(tmp_path / "t3.hg"), "--kind", "hw",
                     "--solver", mode]
                )
            assert excinfo.value.code == 2


class TestQueryCommand:
    _DB = {
        "relations": {
            "r": {
                "attributes": ["a", "b"],
                "rows": [[1, 2], [2, 3], [3, 4]],
            }
        }
    }
    _CHAIN = "q(x, z) :- r(x, y), r(y, z)."

    @pytest.fixture
    def db_file(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps(self._DB))
        return str(path)

    def test_single_query_text_output(self, db_file, capsys):
        assert main(["query", self._CHAIN, "--data", db_file]) == 0
        out = capsys.readouterr().out
        assert "query(q): 2 answers (width 1, plan computed)" in out
        assert "1, 3" in out and "2, 4" in out

    def test_single_query_json_output(self, db_file, capsys):
        assert main(["query", self._CHAIN, "--data", db_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        (result,) = data["results"]
        assert result["ok"] and result["width"] == 1
        assert result["answers"]["rows"] == [[1, 3], [2, 4]]
        assert result["plan_from_store"] is False

    def test_query_from_file(self, db_file, tmp_path, capsys):
        qfile = tmp_path / "q.cq"
        qfile.write_text(self._CHAIN)
        assert main(["query", str(qfile), "--data", db_file]) == 0
        assert "2 answers" in capsys.readouterr().out

    def test_boolean_query(self, db_file, capsys):
        assert main(["query", ":- r(x, y).", "--data", db_file]) == 0
        assert "= true (boolean" in capsys.readouterr().out

    def test_store_makes_repeat_plan_warm(self, db_file, tmp_path, capsys):
        store = str(tmp_path / "cache")
        assert main(
            ["query", self._CHAIN, "--data", db_file, "--store", store]
        ) == 0
        assert "plan computed" in capsys.readouterr().out
        assert main(
            ["query", self._CHAIN, "--data", db_file, "--store", store]
        ) == 0
        assert "plan from store" in capsys.readouterr().out

    def test_malformed_query_exits_2_without_traceback(self, db_file, capsys):
        assert main(["query", "q(x) :- r(x", "--data", db_file]) == 2
        err = capsys.readouterr().err
        assert "cannot parse" in err
        assert "Traceback" not in err

    def test_missing_data_flag_exits_2(self, capsys):
        assert main(["query", self._CHAIN]) == 2
        assert "required" in capsys.readouterr().err

    def test_both_modes_exits_2(self, db_file, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([]))
        assert main(
            ["query", self._CHAIN, "--data", db_file,
             "--manifest", str(manifest)]
        ) == 2
        assert "not both" in capsys.readouterr().err

    def test_bad_data_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"relations": {"r": {"attributes": 3}}}))
        assert main(["query", self._CHAIN, "--data", str(bad)]) == 2
        assert "attributes" in capsys.readouterr().err

    def test_failing_query_exits_1(self, db_file, capsys):
        assert main(["query", "q(x) :- miss(x).", "--data", db_file]) == 1
        out = capsys.readouterr().out
        assert "ERROR" in out and "unknown relation" in out

    def test_manifest_workload(self, db_file, tmp_path, capsys):
        manifest = tmp_path / "workload.json"
        manifest.write_text(json.dumps({
            "queries": [
                {"query": self._CHAIN, "data": "db.json", "label": "hop2"},
                {"query": ":- r(x, y).", "data": "db.json", "label": "any"},
            ]
        }))
        assert main(["query", "--manifest", str(manifest), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["label"] for r in data["results"]] == ["hop2", "any"]
        assert all(r["ok"] for r in data["results"])

    def test_manifest_entries_are_query_payloads(self, db_file, capsys, tmp_path):
        """Inline "relations" stand in for a "data" file."""
        manifest = tmp_path / "inline.json"
        manifest.write_text(json.dumps([
            {"query": self._CHAIN, "relations": self._DB["relations"]},
        ]))
        assert main(["query", "--manifest", str(manifest), "--json"]) == 0
        (result,) = json.loads(capsys.readouterr().out)["results"]
        assert result["answers"]["rows"] == [[1, 3], [2, 4]]

    def test_manifest_unknown_key_exits_2_naming_fields(
        self, db_file, tmp_path, capsys
    ):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"query": self._CHAIN, "data": "db.json", "qery": "typo"}
        ]))
        assert main(["query", "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "entry 0: unknown request fields: ['qery']" in err
        assert "valid fields: label, query, relations" in err

    def test_manifest_needs_exactly_one_of_query_or_file(
        self, db_file, tmp_path, capsys
    ):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"data": "db.json"}]))
        assert main(["query", "--manifest", str(manifest)]) == 2
        assert 'exactly one of "query"' in capsys.readouterr().err
        both = tmp_path / "both.json"
        both.write_text(json.dumps([
            {"query": self._CHAIN, "file": "q.cq", "data": "db.json"}
        ]))
        assert main(["query", "--manifest", str(both)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_manifest_unknown_solver_exits_2(self, db_file, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"query": self._CHAIN, "data": "db.json", "solver": "bb"}
        ]))
        assert main(["query", "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "unknown request fields: ['solver']" in err



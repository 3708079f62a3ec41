"""Documentation health: docstrings, doc-sync, and markdown links.

Three guarantees, all tier-1:

* every public function/class in ``repro.pipeline`` and
  ``repro.engine`` (and the top-level ``repro`` surface) has a
  nonempty docstring, including public methods and properties;
* the README and docs quote the CLI truthfully — the ``--preprocess``,
  ``--bounds`` and ``--executor`` choices documented in markdown are
  exactly the parser's (which in turn are exactly ``PREPROCESS_MODES``,
  ``BOUNDS_MODES`` and ``EXECUTORS``), and every ``repro <cmd>``
  snippet names a real subcommand;
* relative markdown links in README + docs/ resolve to files that
  exist (CI additionally runs ``tools/check_md_links.py``).
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser
from repro.pipeline import (
    BOUNDS_MODES,
    EXECUTORS,
    PREPROCESS_MODES,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The modules whose entire public surface must be documented.
DOCUMENTED_MODULES = (
    "repro.pipeline",
    "repro.pipeline.batch",
    "repro.pipeline.reduce",
    "repro.pipeline.solve",
    "repro.pipeline.solver",
    "repro.pipeline.split",
    "repro.engine",
    "repro.engine.backends",
    "repro.engine.context",
    "repro.engine.oracle",
    "repro.engine.search",
    "repro.store",
    "repro.store.log",
    "repro.serve",
    "repro.serve.protocol",
    "repro.serve.server",
    "repro.serve.client",
    "repro.dist",
    "repro.dist.protocol",
    "repro.dist.registry",
    "repro.dist.executor",
    "repro.dist.worker",
    "repro.cqcsp",
    "repro.cqcsp.query",
    "repro.cqcsp.relations",
    "repro.cqcsp.evaluate",
    "repro.cqcsp.yannakakis",
    "repro.cqcsp.planner",
    "repro.cqcsp.csp",
    "repro.cqcsp.workloads",
)

MARKDOWN_FILES = ("README.md", "docs/api.md", "docs/architecture.md", "docs/benchmarks.md")


def _public_members(module):
    """(qualified name, object) pairs that must carry docstrings."""
    exported = getattr(module, "__all__", None)
    if exported is None:  # pragma: no cover - all our modules set __all__
        exported = [n for n in vars(module) if not n.startswith("_")]
    for name in exported:
        obj = getattr(module, name)
        if not callable(obj) and not inspect.isclass(obj):
            continue  # constants (tuples, dicts) documented via comments
        yield f"{module.__name__}.{name}", obj
        if inspect.isclass(obj):
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if isinstance(attr, property) or callable(attr):
                    yield f"{module.__name__}.{name}.{attr_name}", attr


@pytest.mark.parametrize("module_name", DOCUMENTED_MODULES)
def test_public_api_has_docstrings(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip()
    missing = [
        qualified
        for qualified, obj in _public_members(module)
        if not (getattr(obj, "__doc__", None) or "").strip()
    ]
    assert not missing, f"undocumented public API: {missing}"


def test_top_level_exports_have_docstrings():
    missing = []
    for name in repro.__all__:
        if name == "__version__":
            continue
        obj = getattr(repro, name)
        if not (getattr(obj, "__doc__", None) or "").strip():
            missing.append(name)
    assert not missing, f"undocumented top-level exports: {missing}"


def _cli_preprocess_choices() -> tuple:
    """The --preprocess choices straight from the argument parser."""
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, type(parser._subparsers._group_actions[0]))
    )
    width = subparsers.choices["width"]
    action = next(a for a in width._actions if a.dest == "preprocess")
    return tuple(action.choices)


def test_cli_preprocess_choices_single_sourced():
    assert _cli_preprocess_choices() == PREPROCESS_MODES


@pytest.mark.parametrize("markdown", ["README.md", "docs/api.md"])
def test_markdown_preprocess_choices_match_cli_help(markdown):
    """The docs quote the CLI's --preprocess choices verbatim."""
    text = (REPO_ROOT / markdown).read_text()
    quoted = re.findall(r"--preprocess\s*\{([a-z,]+)\}", text)
    assert quoted, f"{markdown} must document the --preprocess choices"
    for group in quoted:
        assert tuple(group.split(",")) == _cli_preprocess_choices(), (
            f"{markdown} documents --preprocess {{{group}}} but the CLI "
            f"help says {{{','.join(_cli_preprocess_choices())}}}"
        )


def _cli_bounds_choices() -> tuple:
    """The --bounds choices straight from the argument parser."""
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, type(parser._subparsers._group_actions[0]))
    )
    width = subparsers.choices["width"]
    action = next(a for a in width._actions if a.dest == "bounds")
    return tuple(action.choices)


def test_cli_bounds_choices_single_sourced():
    assert _cli_bounds_choices() == BOUNDS_MODES


@pytest.mark.parametrize("markdown", ["docs/api.md", "docs/architecture.md"])
def test_markdown_bounds_choices_match_cli_help(markdown):
    """The docs quote the CLI's --bounds choices verbatim."""
    text = (REPO_ROOT / markdown).read_text()
    quoted = re.findall(r"--bounds\s*\{([a-z,]+)\}", text)
    assert quoted, f"{markdown} must document the --bounds choices"
    for group in quoted:
        assert tuple(group.split(",")) == _cli_bounds_choices(), (
            f"{markdown} documents --bounds {{{group}}} but the CLI "
            f"help says {{{','.join(_cli_bounds_choices())}}}"
        )


def _cli_executor_choices() -> tuple:
    """The --executor choices straight from the batch subparser."""
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, type(parser._subparsers._group_actions[0]))
    )
    batch = subparsers.choices["batch"]
    action = next(a for a in batch._actions if a.dest == "executor")
    return tuple(action.choices)


def test_cli_executor_choices_single_sourced():
    """``--executor`` on batch *and* serve come from EXECUTORS."""
    assert _cli_executor_choices() == EXECUTORS
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, type(parser._subparsers._group_actions[0]))
    )
    serve = subparsers.choices["serve"]
    action = next(a for a in serve._actions if a.dest == "executor")
    assert tuple(action.choices) == EXECUTORS


@pytest.mark.parametrize("markdown", ["docs/api.md"])
def test_markdown_executor_choices_match_cli_help(markdown):
    """The docs quote the CLI's --executor choices verbatim."""
    text = (REPO_ROOT / markdown).read_text()
    quoted = re.findall(r"--executor\s*\{([a-z,]+)\}", text)
    assert quoted, f"{markdown} must document the --executor choices"
    for group in quoted:
        assert tuple(group.split(",")) == _cli_executor_choices(), (
            f"{markdown} documents --executor {{{group}}} but the CLI "
            f"help says {{{','.join(_cli_executor_choices())}}}"
        )


def test_worker_flags_documented():
    """The worker subcommand's knobs exist and are documented."""
    worker = _subcommands()["worker"]
    flags = {s for action in worker._actions for s in action.option_strings}
    for flag in ("--connect", "--jobs", "--idle-timeout", "--backend"):
        assert flag in flags, f"repro worker lost its {flag} flag"
    api = (REPO_ROOT / "docs/api.md").read_text()
    assert "--connect" in api and "--idle-timeout" in api
    assert "--wait-workers" in api and "--listen" in api


def test_markdown_cli_snippets_name_real_subcommands():
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, type(parser._subparsers._group_actions[0]))
    )
    known = set(subparsers.choices)
    for markdown in MARKDOWN_FILES:
        text = (REPO_ROOT / markdown).read_text()
        # Shell snippets only: 'repro <cmd>' at line start, possibly
        # behind PYTHONPATH=... / python -m (not 'from repro import').
        snippet = re.compile(
            r"(?m)^\s*(?:PYTHONPATH=\S+\s+)?(?:python -m\s+)?repro\s+"
            r"([a-z][a-z-]*)"
        )
        for command in snippet.findall(text):
            assert command in known, (
                f"{markdown} mentions 'repro {command}' but the CLI has "
                f"no such subcommand (has: {sorted(known)})"
            )


def test_relative_markdown_links_resolve():
    """Run the CI link checker (tools/check_md_links.py) as a test."""
    spec = importlib.util.spec_from_file_location(
        "check_md_links", REPO_ROOT / "tools" / "check_md_links.py"
    )
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    files = checker.checked_files()
    assert len(files) >= len(MARKDOWN_FILES)
    broken = [p for f in files for p in checker.check_file(f)]
    assert not broken, f"broken links: {broken}"


def test_batch_kinds_documented_in_api_reference():
    from repro.pipeline import BATCH_KINDS

    text = (REPO_ROOT / "docs/api.md").read_text()
    missing = [kind for kind in BATCH_KINDS if f'"{kind}"' not in text]
    assert not missing, f"docs/api.md does not document kinds: {missing}"


def _subcommands():
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, type(parser._subparsers._group_actions[0]))
    )
    return subparsers.choices


def test_every_subcommand_documented_in_api_reference():
    """`docs/api.md` shows a `repro <cmd>` snippet for every command."""
    text = (REPO_ROOT / "docs/api.md").read_text()
    missing = [
        command
        for command in _subcommands()
        if not re.search(rf"\brepro {re.escape(command)}\b", text)
    ]
    assert not missing, f"docs/api.md does not mention: {missing}"


def test_query_flags_documented():
    """The query subcommand's knobs exist and are documented."""
    query = _subcommands()["query"]
    flags = {s for action in query._actions for s in action.option_strings}
    for flag in ("--data", "--manifest", "--store", "--json"):
        assert flag in flags, f"repro query lost its {flag} flag"
    api = (REPO_ROOT / "docs/api.md").read_text()
    assert "repro query" in api
    assert "--data" in api and "--manifest" in api
    # The /query endpoint is part of the serve contract.
    assert "/query" in api


def test_serve_admission_flags_documented():
    """The serve subcommand's admission knobs exist and are documented."""
    serve = _subcommands()["serve"]
    flags = {s for action in serve._actions for s in action.option_strings}
    for flag in ("--host", "--port", "--store", "--fsync",
                 "--max-in-flight", "--max-queue"):
        assert flag in flags, f"repro serve lost its {flag} flag"
    api = (REPO_ROOT / "docs/api.md").read_text()
    assert "--max-in-flight" in api and "--max-queue" in api


def test_version_single_sourced():
    """pyproject.toml builds its version from ``repro.__version__``."""
    import tomllib

    data = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    assert "version" not in data["project"], (
        "pyproject.toml hardcodes a version; it must stay dynamic"
    )
    assert "version" in data["project"]["dynamic"]
    wiring = data["tool"]["setuptools"]["dynamic"]["version"]
    assert wiring == {"attr": "repro.__version__"}
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

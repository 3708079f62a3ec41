"""Reading and writing hypergraphs in the HyperBench text format.

HyperBench (the benchmark companion [23] of the paper) stores hypergraphs
as a list of atoms::

    e1(a, b, c),
    e2(b, d),
    e3(c, d, e).

One atom per edge; the final atom may end with ``.`` or nothing.  Comments
start with ``%`` or ``#``.  This module parses and serializes that format
so suites can be shipped as plain text files, and holds
:func:`short_repr`, with which the request decoders quote a bad value.
"""

from __future__ import annotations

import re
import reprlib
from pathlib import Path

from .hypergraph import Hypergraph

__all__ = [
    "parse_hyperbench",
    "to_hyperbench",
    "load_file",
    "dump_file",
    "short_repr",
]

_ATOM = re.compile(r"([A-Za-z0-9_:\-\.']+)\s*\(([^)]*)\)")

_SHORT = reprlib.Repr()
_SHORT.maxlevel = 1
_SHORT.maxstring = _SHORT.maxother = _SHORT.maxlong = 40
_SHORT.maxlist = _SHORT.maxtuple = _SHORT.maxdict = 4


def short_repr(value) -> str:
    """``repr(value)`` cut to a few hundred characters at most.

    Error messages quote the offending input through this, so a
    message stays short whatever a request sends; short scalars and
    small flat containers print exactly as ``repr`` does.
    """
    return _SHORT.repr(value)


def parse_hyperbench(text: str, name: str | None = None) -> Hypergraph:
    """Parse HyperBench-format text into a :class:`Hypergraph`.

    Raises ``ValueError`` on duplicate edge names, empty scopes, or if no
    atoms are found at all.
    """
    edges: dict[str, tuple] = {}
    for raw_line in text.splitlines():
        line = raw_line.split("%")[0].split("#")[0].strip()
        if not line:
            continue
        for match in _ATOM.finditer(line):
            edge_name, scope = match.group(1), match.group(2)
            vertices = tuple(v.strip() for v in scope.split(",") if v.strip())
            if not vertices:
                raise ValueError(f"edge {edge_name!r} has an empty scope")
            if edge_name in edges:
                raise ValueError(f"duplicate edge name {edge_name!r}")
            edges[edge_name] = vertices
    if not edges:
        raise ValueError("no atoms found in input")
    return Hypergraph(edges, name=name)


def to_hyperbench(hypergraph: Hypergraph) -> str:
    """Serialize to HyperBench format (edges sorted by name for stability)."""
    lines = []
    names = sorted(hypergraph.edge_names)
    for i, edge_name in enumerate(names):
        vs = ",".join(sorted(map(str, hypergraph.edge(edge_name))))
        sep = "." if i == len(names) - 1 else ","
        lines.append(f"{edge_name}({vs}){sep}")
    return "\n".join(lines) + "\n"


def load_file(path: str | Path) -> Hypergraph:
    """Load a hypergraph from a HyperBench-format file."""
    path = Path(path)
    return parse_hyperbench(path.read_text(), name=path.stem)


def dump_file(hypergraph: Hypergraph, path: str | Path) -> None:
    """Write a hypergraph to a HyperBench-format file."""
    Path(path).write_text(to_hyperbench(hypergraph))

"""Decomposition serialization: JSON round trips and Graphviz export.

Downstream systems want to persist and display decompositions; this
module provides a stable JSON schema (mirroring
:meth:`repro.decomposition.Decomposition.as_dict`) and a DOT rendering
whose nodes show bags and covers.
"""

from __future__ import annotations

import json
from collections.abc import Mapping

from .base import Decomposition

__all__ = [
    "decomposition_to_json",
    "decomposition_from_json",
    "decomposition_from_dict",
    "decomposition_to_dot",
]


def decomposition_to_json(decomposition: Decomposition, indent: int = 2) -> str:
    """Serialize a decomposition to JSON (stable key order)."""
    return json.dumps(decomposition.as_dict(), indent=indent, sort_keys=True)


def decomposition_from_json(text: str) -> Decomposition:
    """Parse a decomposition serialized by :func:`decomposition_to_json`.

    Raises ``ValueError`` on malformed payloads (see
    :func:`decomposition_from_dict`).
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    return decomposition_from_dict(payload)


def decomposition_from_dict(
    payload, vertices: Mapping | None = None
) -> Decomposition:
    """Decode the :meth:`Decomposition.as_dict` shape.

    ``vertices`` (a ``{str(v): v}`` table) maps bag names back to the
    vertex objects of their hypergraph.  Raises ``ValueError`` on every
    malformed shape: a missing key, ``nodes`` or ``parent`` that is not
    an object, a bag that is not a list of (known) vertex names, a
    weight that is not a number, or a broken tree structure.
    """
    if not isinstance(payload, dict):
        raise ValueError("decomposition must be a JSON object")
    for key in ("root", "nodes", "parent"):
        if key not in payload:
            raise ValueError(f"missing key {key!r} in decomposition JSON")
    entries, parent = payload["nodes"], payload["parent"]
    if not isinstance(entries, dict) or not isinstance(parent, dict):
        raise ValueError("'nodes' and 'parent' must be objects")
    nodes = []
    for node_id, entry in entries.items():
        if not isinstance(entry, dict) or not {"bag", "cover"} <= set(entry):
            raise ValueError(f"node {node_id!r} lacks bag/cover")
        bag, cover = entry["bag"], entry["cover"]
        if not isinstance(bag, list) or not all(isinstance(v, str) for v in bag):
            raise ValueError(f"node {node_id!r}: bag must be a list of strings")
        if not isinstance(cover, dict) or not all(
            type(w) in (int, float) for w in cover.values()
        ):
            raise ValueError(f"node {node_id!r}: cover weights must be numbers")
        try:
            bag = bag if vertices is None else [vertices[v] for v in bag]
            weights = {str(e): float(w) for e, w in cover.items()}
        except (KeyError, OverflowError) as exc:
            raise ValueError(
                f"node {node_id!r}: bad vertex or weight {exc}"
            ) from None
        nodes.append((node_id, bag, weights))
    return Decomposition(nodes, parent=parent, root=payload["root"])


def decomposition_to_dot(
    decomposition: Decomposition, title: str = "decomposition"
) -> str:
    """Render as Graphviz DOT: one box per node with bag and cover."""
    lines = [f'digraph "{title}" {{', "  node [shape=box, fontsize=10];"]
    for nid in decomposition.preorder():
        bag = ",".join(sorted(map(str, decomposition.bag(nid))))
        cover = ", ".join(
            f"{e}:{w:g}"
            for e, w in sorted(decomposition.cover(nid).weights.items())
        )
        label = f"{nid}\\n{{{bag}}}\\n[{cover}]"
        lines.append(f'  "{nid}" [label="{label}"];')
    for nid in decomposition.node_ids:
        parent = decomposition.parent(nid)
        if parent is not None:
            lines.append(f'  "{parent}" -> "{nid}";')
    lines.append("}")
    return "\n".join(lines)

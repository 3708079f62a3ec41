"""Hypothesis strategies for hypergraphs and CNF formulas."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.hardness import CNF
from repro.hypergraph import Hypergraph


@st.composite
def hypergraphs(
    draw,
    max_vertices: int = 8,
    max_edges: int = 8,
    max_edge_size: int = 4,
    min_edge_size: int = 1,
) -> Hypergraph:
    """Small connected-or-not hypergraphs without isolated vertices."""
    n = draw(st.integers(min_value=min_edge_size, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(n)]
    m = draw(st.integers(min_value=1, max_value=max_edges))
    edges = {}
    for i in range(m):
        size = draw(
            st.integers(
                min_value=min_edge_size, max_value=min(max_edge_size, n)
            )
        )
        edge = draw(
            st.sets(
                st.sampled_from(vertices), min_size=size, max_size=size
            )
        )
        edges[f"e{i}"] = frozenset(edge)
    # Ensure no isolated vertices: drop vertices not in any edge by
    # simply constructing from edges alone.
    return Hypergraph(edges)


@st.composite
def cnf_formulas(draw, max_vars: int = 5, max_clauses: int = 8) -> CNF:
    """Small 3SAT formulas (exactly 3 literals, possibly repeated vars)."""
    n = draw(st.integers(min_value=1, max_value=max_vars))
    m = draw(st.integers(min_value=1, max_value=max_clauses))
    clauses = []
    for _ in range(m):
        clause = tuple(
            draw(st.integers(min_value=1, max_value=n))
            * draw(st.sampled_from([1, -1]))
            for _ in range(3)
        )
        clauses.append(clause)
    return CNF(tuple(clauses))

"""Decomposition-guided CQ evaluation vs naive join evaluation.

This is the paper's motivating application spelled out in code: a CQ of
ghw k evaluates in time polynomial in ``|D|^k + output`` by (1) finding a
width-k GHD of the query hypergraph, (2) joining the <= k atoms of each
node's λ (and the atoms inside its bag) into a bag relation, projecting
before joining, and (3) running Yannakakis over the tree.
The naive baseline joins atoms left-deep and can materialize intermediate
results exponentially larger than both input and output.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

from ..algorithms import generalized_hypertree_decomposition
from ..decomposition import Decomposition
from .query import Atom, Const, ConjunctiveQuery
from .relations import Relation, join_all
from .yannakakis import yannakakis

__all__ = [
    "atom_relation",
    "node_relations_from_ghd",
    "EvaluationResult",
    "evaluate_with_decomposition",
    "evaluate",
    "evaluate_naive",
]


def atom_relation(database: Mapping[str, Relation], atom: Atom) -> Relation:
    """The relation for one atom, with attributes renamed to variables.

    Handles repeated variables (``r(x, x)``) by filtering rows whose
    corresponding positions agree, then deduplicating columns, and
    constants (``r(x, 3)``) by selecting rows whose position carries the
    constant's value before dropping the column.
    """
    base = database.get(atom.relation)
    if base is None:
        raise ValueError(
            f"atom {atom} references unknown relation {atom.relation!r}"
        )
    if len(base.attributes) != len(atom.variables):
        raise ValueError(
            f"atom {atom} has arity {len(atom.variables)}, relation "
            f"{atom.relation} has arity {len(base.attributes)}"
        )
    first_position: dict[str, int] = {}
    keep_positions: list[int] = []
    constants: list[tuple[int, object]] = []
    for i, term in enumerate(atom.variables):
        if isinstance(term, Const):
            constants.append((i, term.value))
        elif term not in first_position:
            first_position[term] = i
            keep_positions.append(i)
    attrs = tuple(atom.variables[i] for i in keep_positions)
    if not constants and len(keep_positions) == len(atom.variables):
        # Distinct variables only: the base rows, renamed.
        return base.rename(dict(zip(base.attributes, attrs)), str(atom))
    variable_positions = [
        (i, first_position[term])
        for i, term in enumerate(atom.variables)
        if not isinstance(term, Const)
    ]
    rows = []
    for row in base.tuples:
        if any(row[i] != value for i, value in constants):
            continue
        if all(row[i] == row[first] for i, first in variable_positions):
            rows.append(tuple(row[i] for i in keep_positions))
    return Relation.from_rows(str(atom), attrs, rows)


def node_relations_from_ghd(
    query: ConjunctiveQuery,
    database: Mapping[str, Relation],
    decomp: Decomposition,
) -> tuple[dict[str, Relation], int]:
    """One relation per decomposition node — π_bag of the join of its
    λ-atoms and every atom inside the bag — and the sizes of its joins.

    Requires integral covers (a GHD); each node then joins at most
    ``width`` atoms beyond those inside its bag, so the per-node cost
    is ``O(|D|^width)``.
    """
    if not decomp.is_integral():
        raise ValueError("CQ evaluation needs an integral (GHD) cover")
    scopes = {atom: frozenset(atom.variable_names) for atom in query.atoms}
    relations = {atom: atom_relation(database, atom) for atom in scopes}
    hosted: set[Atom] = set()
    out: dict[str, Relation] = {}
    cost = 0
    for nid in decomp.node_ids:
        bag = decomp.bag(nid)
        lam = [
            query.atom_for_edge(edge_name)
            for edge_name in sorted(decomp.cover(nid).support)
        ]
        uncovered = bag.difference(*(scopes[atom] for atom in lam))
        if uncovered:
            # Condition (3) of a GHD guarantees bag ⊆ B(λ); tripping
            # this means the witness is invalid and silent projection
            # would produce wrong answers rather than a loud failure.
            raise ValueError(
                f"node {nid}: bag variables {sorted(uncovered)} are not "
                "covered by the node's λ-atoms (invalid GHD)"
            )
        inside = [atom for atom, scope in scopes.items() if scope <= bag]
        hosted.update(inside)
        parts = [relations[atom] for atom in dict.fromkeys(lam + inside)]
        out[nid], built = _join_into_bag(nid, parts, bag)
        cost += built
    # Condition (1) of a GHD: every atom is enforced by some bag.
    for atom in scopes:
        if atom not in hosted:
            raise ValueError(f"no bag covers atom {atom} (invalid GHD)")
    return out, cost


def _join_into_bag(
    nid: str, parts: list[Relation], bag: frozenset
) -> tuple[Relation, int]:
    """π_bag(⋈ parts) and the sizes of the joins on the way.

    Each part first drops the variables neither in the bag nor shared
    with another part.  The parts then join smallest-first, each step
    taking a part that shares a variable with the result (a cross
    product only when none does); every join is fused with dropping
    what no later part needs (:meth:`Relation.join_project`).
    """
    if not parts:
        # An empty λ forces an empty bag: the 0-ary identity relation.
        return Relation.from_rows(nid, (), [()]), 0
    seen = Counter(a for part in parts for a in part.attributes)
    keep = bag | {a for a, count in seen.items() if count > 1}
    parts = sorted(
        (p.project([a for a in p.attributes if a in keep]) for p in parts),
        key=len,
    )
    joined = parts.pop(0)
    cost = len(joined)
    while parts:
        attrs = set(joined.attributes)
        pick = next(
            (i for i, p in enumerate(parts)
             if not attrs.isdisjoint(p.attributes)),
            0,
        )
        part = parts.pop(pick)
        joined, size = joined.join_project(
            part, bag.union(*(p.attributes for p in parts))
        )
        cost += size
    return joined, cost


@dataclass(frozen=True)
class EvaluationResult:
    """Answers plus the intermediate-tuple cost of producing them."""

    answers: Relation
    intermediate_tuples: int


def evaluate_with_decomposition(
    query: ConjunctiveQuery,
    database: Mapping[str, Relation],
    decomp: Decomposition,
) -> EvaluationResult:
    """Evaluate a CQ along a given GHD of its hypergraph."""
    node_rels, build_cost = node_relations_from_ghd(query, database, decomp)
    answers, join_cost = yannakakis(decomp, node_rels, query.head)
    return EvaluationResult(answers, build_cost + join_cost)


def evaluate(
    query: ConjunctiveQuery,
    database: Mapping[str, Relation],
    k: int | None = None,
) -> EvaluationResult:
    """Find a GHD of the query (width <= k, default: smallest that the
    fixpoint method certifies) and evaluate along it."""
    hypergraph = query.hypergraph()
    if k is None:
        k = 1
        decomp = None
        while decomp is None and k <= hypergraph.num_edges:
            decomp = generalized_hypertree_decomposition(hypergraph, k)
            if decomp is None:
                k += 1
    else:
        decomp = generalized_hypertree_decomposition(hypergraph, k)
    if decomp is None:
        raise ValueError(f"query has no GHD of width <= {k}")
    return evaluate_with_decomposition(query, database, decomp)


def evaluate_naive(
    query: ConjunctiveQuery, database: Mapping[str, Relation]
) -> EvaluationResult:
    """Left-deep join of all atoms, then project the head (the baseline)."""
    parts = [atom_relation(database, atom) for atom in query.atoms]
    joined, cost = join_all(parts)
    return EvaluationResult(
        joined.project(list(query.head)).rename({}, name="answers"), cost
    )

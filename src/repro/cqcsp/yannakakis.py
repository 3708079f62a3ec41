"""Yannakakis' algorithm over a decomposition tree [50].

Given relations attached to the nodes of a tree decomposition (each
node's relation has the node's bag variables as attributes), evaluation
proceeds in three passes:

1. bottom-up semijoin reduction (removes tuples with no partner below);
2. top-down semijoin reduction (removes tuples with no partner above);
3. bottom-up joins towards a root chosen per execution: the first node
   in preorder whose bag holds the most head variables (so the stored
   root wins ties).  After the full reducer every node relation is
   globally consistent, so any node may root the join pass; only the
   orientation changes, never the plan.  Each join is fused with its
   projection (:meth:`Relation.join_project`): it keeps only the head
   variables, the connector to the parent and the connectors of the
   node's later children — by connectedness no other variable occurs
   in a later join — and never builds the full join.

For acyclic queries (and for CQs evaluated along a width-k GHD, where
each node relation is the join of <= k atoms) every intermediate result
after the reduction passes is polynomially bounded — the tractability
payoff the paper's Check(·, k) problems exist to unlock.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from ..decomposition import Decomposition
from .relations import Relation

__all__ = ["yannakakis", "semijoin_reduce"]


def semijoin_reduce(
    decomp: Decomposition, node_relations: Mapping[str, Relation]
) -> dict[str, Relation]:
    """The two semijoin passes; returns fully reduced node relations.

    If any relation becomes empty the query has no answers; callers can
    short-circuit on that.
    """
    reduced = dict(node_relations)
    order = decomp.preorder()
    # Bottom-up: parent ⋉ child.
    for nid in reversed(order):
        par = decomp.parent(nid)
        if par is not None:
            reduced[par] = reduced[par].semijoin(reduced[nid])
    # Top-down: child ⋉ parent.
    for nid in order:
        par = decomp.parent(nid)
        if par is not None:
            reduced[nid] = reduced[nid].semijoin(reduced[par])
    return reduced


def yannakakis(
    decomp: Decomposition,
    node_relations: Mapping[str, Relation],
    head: Sequence[str],
) -> tuple[Relation, int]:
    """Evaluate the tree of node relations, returning ``(answers, cost)``.

    ``cost`` sums the sizes of the join pass's joins, each counted as if
    built in full (the pass builds only their projections; the semijoin
    passes never grow relations).  ``head`` lists the
    output attributes; an empty head yields a Boolean result: a 0-ary
    relation containing the empty tuple iff the query is satisfied.
    """
    for nid in decomp.node_ids:
        rel = node_relations[nid]
        extra = set(rel.attributes) - decomp.bag(nid)
        if extra:
            raise ValueError(
                f"node {nid}: relation attributes {sorted(extra)} "
                "are outside the bag"
            )
    reduced = semijoin_reduce(decomp, node_relations)
    if any(rel.is_empty() for rel in reduced.values()):
        return Relation.from_rows("answers", tuple(head), []), 0

    return _join_pass(decomp, reduced, head, _join_root(decomp, head))


def _join_root(decomp: Decomposition, head: Sequence[str]) -> str:
    """The first node in preorder whose bag has the most head variables."""
    head_set = set(head)
    return max(
        decomp.preorder(), key=lambda nid: len(decomp.bag(nid) & head_set)
    )


def _join_pass(
    decomp: Decomposition,
    reduced: Mapping[str, Relation],
    head: Sequence[str],
    root: str,
) -> tuple[Relation, int]:
    """The join pass over fully reduced node relations, rooted at ``root``.

    Returns ``(answers, cost)`` as :func:`yannakakis` does.
    """
    head_set = frozenset(head)
    cost = 0

    def ascend(nid: str, up: str | None) -> Relation:
        nonlocal cost
        bag = decomp.bag(nid)
        par = decomp.parent(nid)
        # The neighbours other than ``up`` are this node's children in
        # the tree rooted at ``root``.
        below = [c for c in decomp.children(nid) if c != up]
        if par is not None and par != up:
            below.append(par)
        keep = head_set if up is None else head_set | (bag & decomp.bag(up))
        # The i-th join keeps ``keep`` and what later joins read of the bag.
        needs = [keep]
        for nbr in reversed(below[1:]):
            needs.insert(0, needs[0] | (bag & decomp.bag(nbr)))
        rel = reduced[nid]
        if not below:
            return rel.project([a for a in rel.attributes if a in keep])
        for nbr, need in zip(below, needs):
            rel, size = rel.join_project(ascend(nbr, nid), need)
            cost += size
        return rel

    result = ascend(root, None)
    ordered = [a for a in head if a in result.attributes]
    missing = [a for a in head if a not in result.attributes]
    if missing:
        raise ValueError(f"head variables {missing} not produced by the tree")
    return result.project(ordered).rename({}, name="answers"), cost

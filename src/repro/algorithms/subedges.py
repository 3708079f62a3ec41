"""Subedge functions: the engine behind the tractable Check algorithms.

Section 4 reduces Check(GHD,k) to Check(HD,k) by adding to H a set
``f(H,k)`` of subedges such that ``ghw(H) = k  iff  hw(H ∪ f(H,k)) = k``.
The requirement (via Lemma 4.9) is that f contains every set

    e ∩ B_u  =  e ∩ ⋂_{i=1..ℓ} B(λ_{u_i})

arising along a critical path of a bag-maximal GHD of width <= k.  Three
generators are provided:

* :func:`ghd_subedges` — an exact fixpoint generator: starting from each
  edge e, repeatedly intersect with unions of <= k edges until no new set
  appears.  This captures *all* values ``e ∩ ⋂ B(λ_{u_i})`` regardless of
  path length, so it is complete whenever it terminates within its cap;
  under the BIP/BMIP the reachable sets are provably few.
* :func:`bip_subedges` — the closed-form set of Theorem 4.15,
  ``⋃_e ⋃_{e_1..e_j, j<=k} 2^(e ∩ (e_1 ∪ ... ∪ e_j))``, used to measure
  ``|f(H,k)| <= m^{k+1} · 2^{k·i}`` (experiment E08).
* :func:`limit_subedges` — the limit function f⁺ of [3, 28] (all
  non-empty subsets of edges), exact for any hypergraph but exponential.

Section 5's ``h_{d,k}`` (Lemma 5.17) is the fractional analogue: unions of
intersections of <= d edges; :func:`fhd_subedges` generates it with the
same fixpoint strategy (B(γ) is a union of *classes*, Lemma 5.10).

The faithful paper artifacts — Algorithm 1's ⋃⋂-tree and Algorithm 2's
intersection forest — are implemented verbatim for the experiments that
regenerate Figure 7 and the Lemma 5.15 facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from ..decomposition import Decomposition
from ..hypergraph import Hypergraph

__all__ = [
    "subedge_name",
    "ghd_subedges",
    "fhd_subedges",
    "bip_subedges",
    "bmip_subedges",
    "limit_subedges",
    "UnionIntersectionNode",
    "union_intersection_tree",
    "critical_path",
    "IntersectionForestNode",
    "intersection_forest",
    "forest_fringe",
]

#: Default cap on how many distinct subedges a generator may produce.
DEFAULT_MAX_SETS = 200_000


def subedge_name(content: frozenset) -> str:
    """Canonical name for a generated subedge."""
    return "sub:" + "|".join(sorted(map(str, content)))


def _named(sets: set[frozenset], hypergraph: Hypergraph) -> dict[str, frozenset]:
    """Name the sets, dropping ones that duplicate an existing edge."""
    existing = set(hypergraph.edges.values())
    return {
        subedge_name(s): s
        for s in sets
        if s and s not in existing
    }


def ghd_subedges(
    hypergraph: Hypergraph, k: int, max_sets: int = DEFAULT_MAX_SETS
) -> dict[str, frozenset]:
    """Exact fixpoint subedge set for Check(GHD,k) (Theorem 4.11 engine).

    For every edge e, computes all sets reachable from e by repeatedly
    intersecting with a union of at most k edges of H, i.e. every possible
    ``e ∩ ⋂_i B(λ_{u_i})``.  Each step is realized as "union of at most k
    pieces ``t ∩ e_j``", which avoids enumerating the m^k unions directly.

    Raises ``RuntimeError`` when more than ``max_sets`` sets appear —
    the signal that the instance lacks the intersection boundedness the
    theorem assumes (for BIP/BMIP classes the count is polynomial).
    """
    edge_sets = list(dict.fromkeys(hypergraph.edges.values()))
    reached: set[frozenset] = set()
    for e in edge_sets:
        frontier = {e}
        local: set[frozenset] = {e}
        while frontier:
            next_frontier: set[frozenset] = set()
            for t in frontier:
                pieces = sorted(
                    {t & f for f in edge_sets if t & f},
                    key=lambda s: (-len(s), sorted(map(str, s))),
                )
                if t in pieces:
                    # Some edge fully contains t: intersecting with a union
                    # including that edge is a no-op, and every union
                    # result is a union of pieces anyway.
                    pieces.remove(t)
                for size in range(1, min(k, len(pieces)) + 1):
                    for combo in combinations(pieces, size):
                        union = frozenset().union(*combo)
                        if union and union not in local:
                            local.add(union)
                            next_frontier.add(union)
                            if len(local) + len(reached) > max_sets:
                                raise RuntimeError(
                                    "subedge fixpoint exceeded "
                                    f"{max_sets} sets; the hypergraph "
                                    "lacks bounded (multi-)intersections"
                                )
            frontier = next_frontier
        reached |= local
    return _named(reached, hypergraph)


def fhd_subedges(
    hypergraph: Hypergraph,
    k: int,
    d: int | None = None,
    piece_cap: int = 14,
    max_sets: int = DEFAULT_MAX_SETS,
) -> dict[str, frozenset]:
    """Fixpoint generator for ``h_{d,k}(H)`` of Lemma 5.17.

    Along an FHD critical path, ``B(γ_{u_i})`` is a union of *classes*
    (Lemma 5.10), and under degree d every class is an intersection of at
    most d edges (deeper intersections are empty).  So each fixpoint step
    intersects the current set t with a union of class pieces
    ``t ∩ class``; since any union of pieces may occur (the paper's cap is
    the astronomically large 2^(d²k)), we take unions over *all* subsets
    of the distinct pieces, guarded by ``piece_cap``.

    ``d`` defaults to the hypergraph's degree.  Raises ``RuntimeError``
    when the caps are hit (instance too entangled for the BDP machinery).
    """
    from ..hypergraph import degree as degree_of  # local import, no cycle

    if d is None:
        d = degree_of(hypergraph)
    edge_sets = list(dict.fromkeys(hypergraph.edges.values()))

    # All classes: non-empty intersections of <= d edges.  Under the BDP,
    # intersections of more than d edges are empty, so this is complete.
    classes: set[frozenset] = set()
    def collect(current: frozenset, start: int, chosen: int) -> None:
        if chosen:
            classes.add(current)
        if chosen == d:
            return
        for idx in range(start, len(edge_sets)):
            nxt = (current & edge_sets[idx]) if chosen else edge_sets[idx]
            if nxt:
                collect(nxt, idx + 1, chosen + 1)
        if len(classes) > max_sets:
            raise RuntimeError("class enumeration exceeded max_sets")
    collect(frozenset(), 0, 0)

    reached: set[frozenset] = set()
    for e in edge_sets:
        frontier = {e}
        local: set[frozenset] = {e}
        while frontier:
            next_frontier: set[frozenset] = set()
            for t in frontier:
                pieces = sorted(
                    {t & c for c in classes if t & c},
                    key=lambda s: (-len(s), sorted(map(str, s))),
                )
                if t in pieces:
                    pieces.remove(t)
                if len(pieces) > piece_cap:
                    raise RuntimeError(
                        f"{len(pieces)} distinct pieces exceed piece_cap="
                        f"{piece_cap}; raise the cap for this instance"
                    )
                for size in range(1, len(pieces) + 1):
                    for combo in combinations(pieces, size):
                        union = frozenset().union(*combo)
                        if union and union not in local:
                            local.add(union)
                            next_frontier.add(union)
                            if len(local) + len(reached) > max_sets:
                                raise RuntimeError(
                                    "subedge fixpoint exceeded max_sets"
                                )
            frontier = next_frontier
        reached |= local
    return _named(reached, hypergraph)


def bmip_subedges(
    hypergraph: Hypergraph,
    k: int,
    c: int,
    max_subset_size: int = 18,
    max_sets: int = DEFAULT_MAX_SETS,
) -> dict[str, frozenset]:
    """The depth-truncated Theorem 4.11 set for BMIP classes.

    Follows the reduced ⋃⋂-tree argument: intersect each edge e with up
    to ``c - 1`` unions of <= k edges (realized as unions of pieces, like
    the fixpoint generator but depth-limited), then take *all* subsets of
    every reachable set — the truncation step that replaces the cut-off
    subtrees.  Under the i_c-BMIP each reachable set decomposes into at
    most k^{c-1} intersections of c edges, so its size is <= i·k^{c-1}
    and the powerset is polynomial for constant parameters.
    """
    if c < 2:
        raise ValueError("c must be >= 2 (c = 2 is the BIP case)")
    edge_sets = list(dict.fromkeys(hypergraph.edges.values()))
    reached: set[frozenset] = set()
    for e in edge_sets:
        level = {e}
        local: set[frozenset] = set()
        for _depth in range(c - 1):
            next_level: set[frozenset] = set()
            for t in level:
                pieces = sorted(
                    {t & f for f in edge_sets if t & f},
                    key=lambda s: (-len(s), sorted(map(str, s))),
                )
                if t in pieces:
                    pieces.remove(t)
                for size in range(1, min(k, len(pieces)) + 1):
                    for combo in combinations(pieces, size):
                        union = frozenset().union(*combo)
                        if union and union not in local:
                            local.add(union)
                            next_level.add(union)
            level = next_level
            if len(local) + len(reached) > max_sets:
                raise RuntimeError("bmip subedge enumeration exceeded max_sets")
            if not level:
                break  # no new set at this depth, so none at any deeper
        # Truncation powerset.
        for t in local:
            if len(t) > max_subset_size:
                raise RuntimeError(
                    f"reachable set of size {len(t)} exceeds "
                    f"max_subset_size={max_subset_size}; instance is not "
                    "BMIP-like enough for the truncated construction"
                )
            members = sorted(t, key=str)
            for size in range(1, len(members) + 1):
                for sub in combinations(members, size):
                    reached.add(frozenset(sub))
                    if len(reached) > max_sets:
                        raise RuntimeError(
                            "bmip subedge enumeration exceeded max_sets"
                        )
    return _named(reached, hypergraph)


def bip_subedges(
    hypergraph: Hypergraph,
    k: int,
    max_intersection: int = 20,
) -> dict[str, frozenset]:
    """The explicit Theorem 4.15 set: all subsets of ``e ∩ (e_1 ∪ .. ∪ e_j)``.

    Exactly the paper's closed form for BIP classes; its size obeys
    ``|f(H,k)| <= m^{k+1} · 2^{k·i}``.  ``max_intersection`` guards the
    powerset step (the theorem's premise gives ``|e ∩ union| <= i·k``).
    """
    names = list(hypergraph.edge_names)
    out: set[frozenset] = set()
    for e_name in names:
        e = hypergraph.edge(e_name)
        others = [n for n in names if n != e_name]
        bases: set[frozenset] = set()
        for j in range(1, k + 1):
            for combo in combinations(others, j):
                union = frozenset().union(
                    *(hypergraph.edge(n) for n in combo)
                )
                t = e & union
                if t:
                    bases.add(t)
        for t in bases:
            if len(t) > max_intersection:
                raise RuntimeError(
                    f"intersection of size {len(t)} exceeds "
                    f"max_intersection={max_intersection}; instance is "
                    "not BIP-like enough for the closed form"
                )
            members = sorted(t, key=str)
            for size in range(1, len(members) + 1):
                for sub in combinations(members, size):
                    out.add(frozenset(sub))
    return _named(out, hypergraph)


def limit_subedges(
    hypergraph: Hypergraph, max_edge_size: int = 16
) -> dict[str, frozenset]:
    """The limit function f⁺: all non-empty proper subsets of all edges.

    ``hw(H ∪ f⁺(H)) = ghw(H)`` [3, 28] — exact but exponential; only for
    small edges (guarded by ``max_edge_size``).
    """
    out: set[frozenset] = set()
    for e in hypergraph.edges.values():
        if len(e) > max_edge_size:
            raise RuntimeError(
                f"edge of size {len(e)} exceeds max_edge_size="
                f"{max_edge_size} for the limit subedge function"
            )
        members = sorted(e, key=str)
        for size in range(1, len(members)):
            for sub in combinations(members, size):
                out.add(frozenset(sub))
    return _named(out, hypergraph)


# ----------------------------------------------------------------------
# Algorithm 1: the ⋃⋂-tree (Union-of-Intersections-Tree)
# ----------------------------------------------------------------------

@dataclass
class UnionIntersectionNode:
    """A node of the ⋃⋂-tree: a label (set of edge names) and children."""

    label: frozenset
    children: list["UnionIntersectionNode"] = field(default_factory=list)

    def intersection(self, hypergraph: Hypergraph) -> frozenset:
        """``int(p)``: the intersection of the labelled edges."""
        sets = [hypergraph.edge(name) for name in self.label]
        out = sets[0]
        for s in sets[1:]:
            out &= s
        return out

    def leaves(self) -> list["UnionIntersectionNode"]:
        if not self.children:
            return [self]
        out: list[UnionIntersectionNode] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(child.depth() for child in self.children)

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)


def critical_path(
    hypergraph: Hypergraph, decomp: Decomposition, node_id: str, edge_name: str
) -> list[str]:
    """``critp(u, e)`` (Definition 4.8): path from u to the closest node
    covering e.  Raises when no node covers e (invalid decomposition)."""
    e = hypergraph.edge(edge_name)
    covering = [nid for nid in decomp.node_ids if e <= decomp.bag(nid)]
    if not covering:
        raise ValueError(f"no node covers edge {edge_name!r}")
    paths = [decomp.path_between(node_id, target) for target in covering]
    return min(paths, key=len)


def union_intersection_tree(
    hypergraph: Hypergraph,
    edge_name: str,
    path_covers: list[frozenset],
) -> UnionIntersectionNode:
    """Algorithm 1 verbatim: build T_ℓ for edge e and λ-sets along critp.

    ``path_covers`` lists ``λ_{u_1}, ..., λ_{u_ℓ}`` (edge-name sets of the
    critical path, excluding u_0 = u itself).  The union of ``int(p)``
    over the leaves of the result equals ``e ∩ ⋂_i B(λ_{u_i})`` — which by
    Lemma 4.9 is ``e ∩ B_u`` for bag-maximal GHDs.
    """
    root = UnionIntersectionNode(label=frozenset([edge_name]))
    for lam in path_covers:
        for leaf in root.leaves():
            if leaf.label & lam:
                continue  # e (or a chosen edge) is in λ_{u_i}: I stays put
            for extra in sorted(lam):
                leaf.children.append(
                    UnionIntersectionNode(label=leaf.label | {extra})
                )
    return root


# ----------------------------------------------------------------------
# Algorithm 2: the intersection forest IF(ξ)
# ----------------------------------------------------------------------

@dataclass
class IntersectionForestNode:
    """A node of IF(ξ): vertex set, levels, maximal type, mark, children."""

    set_: frozenset
    levels: set[int]
    edges: frozenset
    mark: str = "ok"
    children: list["IntersectionForestNode"] = field(default_factory=list)

    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(child.depth() for child in self.children)

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def all_nodes(self) -> list["IntersectionForestNode"]:
        out = [self]
        for child in self.children:
            out.extend(child.all_nodes())
        return out


def _classes(hypergraph: Hypergraph, group: frozenset) -> list[frozenset]:
    """``C(ξ_i)``: all non-empty classes of the subhypergraph on ``group``."""
    sets = [hypergraph.edge(name) for name in sorted(group)]
    out: set[frozenset] = set()

    def expand(current: frozenset, start: int, chosen: bool) -> None:
        if chosen and current:
            out.add(current)
        for idx in range(start, len(sets)):
            nxt = (current & sets[idx]) if chosen else sets[idx]
            if nxt:
                expand(nxt, idx + 1, True)

    expand(frozenset(), 0, False)
    return sorted(out, key=lambda s: (-len(s), sorted(map(str, s))))


def intersection_forest(
    hypergraph: Hypergraph, xi: list[frozenset]
) -> list[IntersectionForestNode]:
    """Algorithm 2 verbatim: the intersection forest IF(ξ).

    ``xi`` is a sequence of groups of edge names (each a potential
    ``supp(γ_u)`` along a critical path).  Returns the list of root nodes.
    """
    if not xi:
        return []
    maximal_type = lambda s: frozenset(
        name for name in hypergraph.edge_names if s <= hypergraph.edge(name)
    )
    roots = [
        IntersectionForestNode(set_=c, levels={1}, edges=maximal_type(c))
        for c in _classes(hypergraph, xi[0])
    ]
    for i in range(2, len(xi) + 1):
        classes = _classes(hypergraph, xi[i - 1])
        stack = list(roots)
        leaves: list[IntersectionForestNode] = []
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(node.children)
            elif node.mark == "ok" and max(node.levels) == i - 1:
                leaves.append(node)
        for node in leaves:
            dead_end = True
            for c in classes:
                meet = node.set_ & c
                if not meet:
                    continue
                dead_end = False
                if meet == node.set_:
                    node.levels.add(i)  # Passing
                else:
                    node.children.append(  # Expand
                        IntersectionForestNode(
                            set_=meet, levels={i}, edges=maximal_type(meet)
                        )
                    )
            if dead_end and not node.children and i not in node.levels:
                node.mark = "fail"
    return roots


def forest_fringe(
    roots: list[IntersectionForestNode], max_level: int
) -> list[frozenset]:
    """``F(ξ)``: the set labels at level max(ξ) with mark ok (Def. 5.14)."""
    out: list[frozenset] = []
    for root in roots:
        for node in root.all_nodes():
            if node.mark == "ok" and max_level in node.levels:
                out.append(node.set_)
    return out

"""Tests for the subedge generators, the ⋃⋂-tree and the intersection
forest (Algorithms 1 and 2)."""

import time

import pytest

from repro.algorithms import (
    bip_subedges,
    critical_path,
    fhd_subedges,
    forest_fringe,
    ghd_subedges,
    intersection_forest,
    limit_subedges,
    union_intersection_tree,
)
from repro.hypergraph import Hypergraph, degree
from repro.hypergraph.generators import clique, cycle
from repro.paper_artifacts import example_4_3_hypergraph, figure_6b_ghd


class TestFixpointGenerator:
    def test_contains_pairwise_intersections(self):
        h0 = example_4_3_hypergraph()
        subs = ghd_subedges(h0, 2)
        contents = set(subs.values())
        # Example 4.12's subedge e2' = {v3, v9} = (e2∩e3) ∪ (e2∩e7).
        assert frozenset({"v3", "v9"}) in contents

    def test_no_full_edges_duplicated(self):
        h = cycle(5)
        subs = ghd_subedges(h, 2)
        assert not set(subs.values()) & set(h.edges.values())

    def test_cap_raises(self):
        # A hypergraph engineered to have many reachable sets: one big
        # edge intersected with many overlapping ones.
        big = [f"v{i}" for i in range(10)]
        edges = {"big": big}
        for i in range(8):
            edges[f"o{i}"] = big[i : i + 3]
        h = Hypergraph(edges)
        with pytest.raises(RuntimeError, match="exceeded"):
            ghd_subedges(h, 3, max_sets=10)

    def test_bip_closed_form_superset_check(self):
        """f(H,k) of Thm 4.15 contains every pairwise-derived subedge the
        fixpoint finds in one step (depth-1 agreement)."""
        h0 = example_4_3_hypergraph()
        bip = set(bip_subedges(h0, 2).values())
        for e in h0.edges.values():
            for f in h0.edges.values():
                if e != f and e & f:
                    assert (e & f) in bip or (e & f) in set(
                        h0.edges.values()
                    )

    def test_bip_size_bound(self):
        """|f(H,k)| <= m^{k+1} · 2^{k·i} (Theorem 4.15)."""
        h0 = example_4_3_hypergraph()
        m, k, i = h0.num_edges, 2, 1
        assert len(bip_subedges(h0, k)) <= m ** (k + 1) * 2 ** (k * i)

    def test_limit_subedges_powerset(self):
        h = Hypergraph({"e": ["a", "b", "c"]})
        subs = limit_subedges(h)
        assert len(subs) == 2**3 - 2  # all non-empty proper subsets

    def test_limit_guard(self):
        h = Hypergraph({"e": [f"v{i}" for i in range(20)]})
        with pytest.raises(RuntimeError, match="max_edge_size"):
            limit_subedges(h)

    def test_fhd_subedges_under_bdp(self):
        c6 = cycle(6)
        subs = fhd_subedges(c6, 2, d=degree(c6))
        # Degree 2: classes are edges and their pairwise intersections
        # (single vertices); subedges include the singletons.
        assert frozenset({"v1"}) in set(subs.values())


class TestUnionIntersectionTree:
    def test_figure_7_verbatim(self):
        """Example 4.12 / Figure 7: critp(u, e2) = (u, u1, u*) with
        λ_{u1} = {e3, e7}, λ_{u*} = {e2, e8}; the leaves read
        (e2∩e3) ∪ (e2∩e7) = {v3, v9}."""
        h0 = example_4_3_hypergraph()
        tree = union_intersection_tree(
            h0, "e2", [frozenset({"e3", "e7"}), frozenset({"e2", "e8"})]
        )
        # Level 1 splits into e2∩e3 and e2∩e7; level 2 passes (e2 ∈ λ).
        leaves = tree.leaves()
        assert sorted(sorted(leaf.label) for leaf in leaves) == [
            ["e2", "e3"],
            ["e2", "e7"],
        ]
        union = frozenset().union(
            *(leaf.intersection(h0) for leaf in leaves)
        )
        assert union == frozenset({"v3", "v9"})
        assert tree.depth() == 1
        assert tree.size() == 3  # Figure 7 has exactly 3 nodes

    def test_matches_lemma_4_9_on_figure_6b(self):
        """e2 ∩ B_u = e2 ∩ B(λ_{u1}) ∩ B(λ_{u2}) on the real GHD."""
        h0 = example_4_3_hypergraph()
        d = figure_6b_ghd()
        path = critical_path(h0, d, "u0", "e2")
        assert path == ["u0", "u1", "u2"]
        covers = [frozenset(d.cover(nid).support) for nid in path[1:]]
        tree = union_intersection_tree(h0, "e2", covers)
        union = frozenset().union(
            *(leaf.intersection(h0) for leaf in tree.leaves())
        )
        assert union == h0.edge("e2") & d.bag("u0")

    def test_critical_path_unknown_edge_coverage(self):
        h = Hypergraph({"e": ["a", "b"]})
        from repro.decomposition import Decomposition

        d = Decomposition.single_node(["a"], {"e": 1.0})
        with pytest.raises(ValueError, match="covers"):
            critical_path(h, d, "root", "e")


class TestIntersectionForest:
    def test_lemma_5_15_facts(self):
        """Fact 1 (children add an edge), Fact 2 (depth <= d-1)."""
        c6 = cycle(6)
        d = degree(c6)
        xi = [
            frozenset({"e1", "e2"}),
            frozenset({"e2", "e3"}),
            frozenset({"e3", "e4"}),
        ]
        roots = intersection_forest(c6, xi)
        assert roots
        for root in roots:
            assert root.depth() <= d - 1
            stack = [root]
            while stack:
                node = stack.pop()
                for child in node.children:
                    assert node.edges < child.edges  # Fact 1
                    stack.append(child)

    def test_fringe_nonempty_for_consistent_sequence(self):
        c6 = cycle(6)
        xi = [frozenset({"e1", "e2"})] * 2
        roots = intersection_forest(c6, xi)
        fringe = forest_fringe(roots, max_level=2)
        # Every class of level 1 passes level 2 unchanged.
        assert set(fringe) >= {frozenset({"v2"})}

    def test_empty_sequence(self):
        assert intersection_forest(cycle(4), []) == []

    def test_fail_marks_dead_ends(self):
        # Disjoint groups: every level-1 class dies at level 2.
        h = Hypergraph({"a": ["x", "y"], "b": ["z", "w"]})
        roots = intersection_forest(h, [frozenset({"a"}), frozenset({"b"})])
        assert all(
            node.mark == "fail"
            for root in roots
            for node in root.all_nodes()
            if not node.children
        )
        assert forest_fringe(roots, 2) == []


def test_k4_subedge_augmented_hw_equals_ghw():
    """hw(H ∪ f⁺(H)) = ghw(H) [3, 28] on small instances."""
    from repro.algorithms import hypertree_width

    for h in (clique(4), cycle(5), example_4_3_hypergraph()):
        augmented = h.with_edges(limit_subedges(h))
        from repro.algorithms import generalized_hypertree_width_exact

        ghw, _d = generalized_hypertree_width_exact(h)
        hw_aug, _d2 = hypertree_width(augmented, kmax=ghw + 1)
        assert hw_aug == ghw


class TestBMIPGenerator:
    def test_contains_figure_7_subedge(self):
        from repro.algorithms import bmip_subedges
        from repro.paper_artifacts import example_4_3_hypergraph

        subs = bmip_subedges(example_4_3_hypergraph(), 2, c=3)
        assert frozenset({"v3", "v9"}) in set(subs.values())

    def test_invalid_c(self):
        from repro.algorithms import bmip_subedges

        with pytest.raises(ValueError):
            bmip_subedges(cycle(4), 2, c=1)

    def test_superset_of_depth_limited_fixpoint(self):
        """Through the truncation powerset, the BMIP set covers every
        subedge the fixpoint finds within depth c - 1 on 1-BIP inputs."""
        from repro.algorithms import bmip_subedges
        from repro.paper_artifacts import example_4_3_hypergraph

        h0 = example_4_3_hypergraph()
        fixpoint = set(ghd_subedges(h0, 2).values())
        bmip = set(bmip_subedges(h0, 2, c=3).values())
        assert fixpoint <= bmip

    def test_check_ghd_with_bmip_method(self):
        from repro.algorithms import check_ghd
        from repro.paper_artifacts import example_4_3_hypergraph

        assert check_ghd(example_4_3_hypergraph(), 2, method="bmip", c=3)

    def test_depth_past_saturation_is_free_and_c_is_bounded(self):
        """The enumeration stops at the first depth that adds no set, so
        a huge ``c`` answers like ``c = 3`` at once; a ``c`` beyond the
        params bound is refused (HTTP 400) before anything runs."""
        from repro.pipeline import BatchRequest, solve_many
        from repro.serve.protocol import ProtocolError, request_from_payload
        from repro.store import answer_payload

        def check(c):
            params = {"k": 2, "method": "bmip", "c": c}
            request = BatchRequest(cycle(4), "check-ghd", params)
            (result,) = solve_many([request])
            return result

        expected = answer_payload("check-ghd", check(3).unwrap())
        began = time.perf_counter()
        result = check(10**6)
        assert time.perf_counter() - began < 0.1
        assert answer_payload("check-ghd", result.unwrap()) == expected
        assert type(check(10**400).error) is ValueError
        with pytest.raises(ProtocolError, match="c must be <= "):
            request_from_payload({
                "hypergraph": {"edges": {"ab": ["a", "b"]}},
                "kind": "check-ghd",
                "params": {"k": 2, "method": "bmip", "c": 10**400},
            })

"""JSON round trips and DOT export for decompositions."""

import pytest

from repro.decomposition import (
    Decomposition,
    decomposition_from_dict,
    decomposition_from_json,
    decomposition_to_dot,
    decomposition_to_json,
    is_ghd,
)
from repro.paper_artifacts import example_4_3_hypergraph, figure_6b_ghd


class TestJSON:
    def test_roundtrip_preserves_everything(self):
        original = figure_6b_ghd()
        back = decomposition_from_json(decomposition_to_json(original))
        assert back.root == original.root
        assert set(back.node_ids) == set(original.node_ids)
        for nid in original.node_ids:
            assert back.bag(nid) == original.bag(nid)
            assert back.cover(nid).weights == pytest.approx(
                original.cover(nid).weights
            )
            assert back.parent(nid) == original.parent(nid)

    def test_roundtrip_still_validates(self):
        h0 = example_4_3_hypergraph()
        back = decomposition_from_json(
            decomposition_to_json(figure_6b_ghd())
        )
        assert is_ghd(h0, back, width=2)

    def test_fractional_weights_survive(self):
        d = Decomposition.single_node(["x", "y"], {"e": 0.5, "f": 0.75})
        back = decomposition_from_json(decomposition_to_json(d))
        assert back.cover("root")["f"] == pytest.approx(0.75)

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            decomposition_from_json("{nope")

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing key"):
            decomposition_from_json('{"root": "a"}')

    def test_missing_bag_rejected(self):
        with pytest.raises(ValueError, match="lacks bag"):
            decomposition_from_json(
                '{"root": "a", "parent": {}, "nodes": {"a": {}}}'
            )

    def test_non_object_nodes_rejected(self):
        with pytest.raises(ValueError, match="must be objects"):
            decomposition_from_json('{"root": "n0", "nodes": [], "parent": {}}')

    def test_non_string_bag_vertices_rejected(self):
        with pytest.raises(ValueError, match="list of strings"):
            decomposition_from_json(
                '{"root": "a", "parent": {},'
                ' "nodes": {"a": {"bag": [[1]], "cover": {}}}}'
            )

    def test_string_bag_not_split_into_characters(self):
        with pytest.raises(ValueError, match="list of strings"):
            decomposition_from_json(
                '{"root": "a", "parent": {},'
                ' "nodes": {"a": {"bag": "ab", "cover": {"e": 1}}}}'
            )

    def test_non_numeric_weight_rejected(self):
        with pytest.raises(ValueError, match="must be numbers"):
            decomposition_from_dict(
                {"root": "a", "parent": {},
                 "nodes": {"a": {"bag": ["x"], "cover": {"e": "1"}}}}
            )

    def test_bags_map_back_to_vertex_objects(self):
        d = Decomposition.single_node([1, 2], {"e": 1.0})
        back = decomposition_from_dict(d.as_dict(), {"1": 1, "2": 2})
        assert back.bag("root") == frozenset({1, 2})
        with pytest.raises(ValueError, match="bad vertex"):
            decomposition_from_dict(d.as_dict(), {"1": 1})


class TestDOT:
    def test_dot_structure(self):
        dot = decomposition_to_dot(figure_6b_ghd(), title="fig6b")
        assert dot.startswith('digraph "fig6b"')
        assert '"u0" -> "u1"' in dot
        assert dot.rstrip().endswith("}")

    def test_dot_mentions_bags_and_covers(self):
        dot = decomposition_to_dot(figure_6b_ghd())
        assert "v3" in dot
        assert "e2:1" in dot

    def test_single_node_dot(self):
        d = Decomposition.single_node(["x"], {"e": 1.0})
        dot = decomposition_to_dot(d)
        assert "->" not in dot

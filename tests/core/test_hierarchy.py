"""Tests for service-area hierarchies (Section 4 invariants)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ChildRef,
    Hierarchy,
    ServerConfig,
    build_fig6_hierarchy,
    build_grid_hierarchy,
    build_quad_hierarchy,
    build_table2_hierarchy,
)
from repro.core.hierarchy import child_for_point
from repro.errors import ConfigurationError, OutOfServiceAreaError
from repro.geo import Point, Rect

ROOT = Rect(0, 0, 1000, 1000)


class TestBuilders:
    def test_single_server(self):
        h = build_grid_hierarchy(ROOT, [])
        assert len(h) == 1
        assert h.leaf_ids() == ["root"]
        assert h.height() == 1

    def test_table2_shape(self):
        h = build_table2_hierarchy()
        assert len(h) == 5
        assert len(h.leaf_ids()) == 4
        assert h.height() == 2
        assert h.root_area() == Rect(0, 0, 1500, 1500)

    def test_quad_depth2(self):
        h = build_quad_hierarchy(ROOT, depth=2)
        assert len(h.leaf_ids()) == 16
        assert len(h) == 1 + 4 + 16
        assert h.height() == 3

    def test_negative_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            build_quad_hierarchy(ROOT, depth=-1)

    def test_fig6_shape(self):
        h = build_fig6_hierarchy()
        assert sorted(h.server_ids()) == ["s1", "s2", "s3", "s4", "s5", "s6", "s7"]
        assert h.leaf_ids() == ["s4", "s5", "s6", "s7"]
        assert h.parent_of("s4") == "s2"
        assert h.parent_of("s2") == "s1"
        assert h.root_id == "s1"

    def test_asymmetric_grid(self):
        h = build_grid_hierarchy(ROOT, [(4, 1), (1, 2)])
        assert len(h.leaf_ids()) == 8
        assert h.height() == 3


class TestRouting:
    def test_leaf_for_point(self):
        h = build_table2_hierarchy()
        assert h.leaf_for_point(Point(10, 10)) == "root.0"
        assert h.leaf_for_point(Point(1400, 10)) == "root.1"
        assert h.leaf_for_point(Point(10, 1400)) == "root.2"
        assert h.leaf_for_point(Point(1400, 1400)) == "root.3"

    def test_boundary_point_routed_uniquely(self):
        h = build_table2_hierarchy()
        # The exact center belongs to exactly one quadrant (half-open).
        assert h.leaf_for_point(Point(750, 750)) == "root.3"

    def test_root_max_edge_still_routed(self):
        h = build_table2_hierarchy()
        assert h.leaf_for_point(Point(1500, 1500)) == "root.3"

    def test_child_for_resolves_shared_edges_half_open(self):
        root = build_table2_hierarchy().config("root")
        assert root.child_for(Point(750, 10)).server_id == "root.1"
        assert root.child_for(Point(10, 750)).server_id == "root.2"
        assert root.child_for(Point(750, 750)).server_id == "root.3"
        assert root.child_for(Point(749.999, 749.999)).server_id == "root.0"
        assert root.child_for(Point(-1, 10)) is None

    def test_child_for_point_falls_back_to_closed_outer_edges(self):
        h = build_table2_hierarchy()
        children = h.config("root").children
        assert child_for_point(children, Point(1500, 10)).server_id == "root.1"
        assert child_for_point(children, Point(10, 1500)).server_id == "root.2"
        assert child_for_point(children, Point(1500, 1500)).server_id == "root.3"
        # A leaf has nobody to hand a point to.
        assert h.config("root.0").child_for(Point(10, 10)) is None

    def test_outside_root_raises(self):
        with pytest.raises(OutOfServiceAreaError):
            build_table2_hierarchy().leaf_for_point(Point(-1, 0))

    def test_path_to_root(self):
        h = build_quad_hierarchy(ROOT, depth=2)
        leaf = h.leaf_for_point(Point(10, 10))
        path = h.path_to_root(leaf)
        assert path[0] == leaf
        assert path[-1] == "root"
        assert len(path) == 3

    @settings(max_examples=100)
    @given(
        st.floats(min_value=0, max_value=999.999),
        st.floats(min_value=0, max_value=999.999),
    )
    def test_every_point_routes_to_containing_leaf(self, x, y):
        h = build_quad_hierarchy(ROOT, depth=2)
        leaf = h.leaf_for_point(Point(x, y))
        assert h.config(leaf).area.contains_point(Point(x, y))


class TestValidation:
    def test_two_roots_rejected(self):
        configs = {
            "a": ServerConfig("a", ROOT, None, (), ROOT),
            "b": ServerConfig("b", ROOT, None, (), ROOT),
        }
        with pytest.raises(ConfigurationError):
            Hierarchy(configs)

    def test_unknown_parent_rejected(self):
        configs = {"a": ServerConfig("a", ROOT, "ghost", (), ROOT)}
        with pytest.raises(ConfigurationError):
            Hierarchy(configs)

    def test_overlapping_siblings_rejected(self):
        west = Rect(0, 0, 600, 1000)
        east = Rect(400, 0, 1000, 1000)  # overlaps west
        configs = {
            "root": ServerConfig(
                "root", ROOT, None, (ChildRef("w", west), ChildRef("e", east)), ROOT
            ),
            "w": ServerConfig("w", west, "root", (), ROOT),
            "e": ServerConfig("e", east, "root", (), ROOT),
        }
        with pytest.raises(ConfigurationError):
            Hierarchy(configs)

    def test_gap_in_children_rejected(self):
        west = Rect(0, 0, 400, 1000)
        east = Rect(600, 0, 1000, 1000)  # 200 m gap
        configs = {
            "root": ServerConfig(
                "root", ROOT, None, (ChildRef("w", west), ChildRef("e", east)), ROOT
            ),
            "w": ServerConfig("w", west, "root", (), ROOT),
            "e": ServerConfig("e", east, "root", (), ROOT),
        }
        with pytest.raises(ConfigurationError):
            Hierarchy(configs)

    def test_child_escaping_parent_rejected(self):
        inside = Rect(0, 0, 500, 1000)
        escaping = Rect(500, 0, 1100, 1000)
        configs = {
            "root": ServerConfig(
                "root", ROOT, None, (ChildRef("a", inside), ChildRef("b", escaping)), ROOT
            ),
            "a": ServerConfig("a", inside, "root", (), ROOT),
            "b": ServerConfig("b", escaping, "root", (), ROOT),
        }
        with pytest.raises(ConfigurationError):
            Hierarchy(configs)

    def test_child_not_pointing_back_rejected(self):
        west = Rect(0, 0, 500, 1000)
        east = Rect(500, 0, 1000, 1000)
        configs = {
            "root": ServerConfig(
                "root", ROOT, None, (ChildRef("w", west), ChildRef("e", east)), ROOT
            ),
            "w": ServerConfig("w", west, "root", (), ROOT),
            "e": ServerConfig("e", east, None, (), ROOT),  # thinks it is a root
        }
        with pytest.raises(ConfigurationError):
            Hierarchy(configs)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4))
    def test_builders_always_validate(self, depth, fanout):
        h = build_grid_hierarchy(ROOT, [(fanout, fanout)] * depth)
        assert len(h.leaf_ids()) == (fanout * fanout) ** depth


class TestElasticDerivations:
    def halves(self, area: Rect) -> list[tuple[str, Rect]]:
        cx = area.center.x
        return [
            ("new-w", Rect(area.min_x, area.min_y, cx, area.max_y)),
            ("new-e", Rect(cx, area.min_y, area.max_x, area.max_y)),
        ]

    def test_with_split_adds_children_and_revalidates(self):
        h = build_table2_hierarchy()
        h2 = h.with_split("root.0", self.halves(h.config("root.0").area))
        assert len(h2) == len(h) + 2
        assert not h2.config("root.0").is_leaf
        assert h2.parent_of("new-w") == "root.0"
        assert h2.leaf_for_point(Point(10, 10)) == "new-w"
        assert h2.leaf_for_point(Point(700, 10)) == "new-e"
        # The original hierarchy is untouched.
        assert h.config("root.0").is_leaf

    def test_with_split_rejects_bad_inputs(self):
        h = build_table2_hierarchy()
        area = h.config("root.0").area
        with pytest.raises(ConfigurationError):
            h.with_split("root", self.halves(h.root_area()))  # not a leaf
        with pytest.raises(ConfigurationError):
            h.with_split("root.0", self.halves(area)[:1])  # one child
        with pytest.raises(ConfigurationError):
            h.with_split("root.0", [("root.1", area), ("x", area)])  # id taken
        with pytest.raises(ConfigurationError):
            # Children do not tile the leaf (half missing).
            h.with_split("root.0", [("a", area), ("b", Rect(0, 0, 10, 10))])

    def test_with_merge_folds_children_back(self):
        h = build_table2_hierarchy()
        h2 = h.with_split("root.0", self.halves(h.config("root.0").area))
        h3 = h2.with_merge("root.0")
        assert sorted(h3.server_ids()) == sorted(h.server_ids())
        assert h3.config("root.0").is_leaf

    def test_with_merge_rejects_non_mergeable(self):
        h = build_table2_hierarchy()
        with pytest.raises(ConfigurationError):
            h.with_merge("root.0")  # a leaf
        h2 = h.with_split("root.0", self.halves(h.config("root.0").area))
        # root's children are no longer all leaves.
        with pytest.raises(ConfigurationError):
            h2.with_merge("root")

    def test_siblings_of(self):
        h = build_table2_hierarchy()
        assert h.siblings_of("root.0") == ["root.1", "root.2", "root.3"]
        assert h.siblings_of("root") == []

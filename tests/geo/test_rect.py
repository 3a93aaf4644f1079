"""Unit and property tests for axis-aligned rectangles."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geo import Point, Rect, subtract_rects

coord = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


class TestConstruction:
    def test_degenerate_raises(self):
        with pytest.raises(GeometryError):
            Rect(1, 0, 0, 1)

    def test_point_rect_allowed(self):
        r = Rect(1, 1, 1, 1)
        assert r.area == 0.0

    def test_from_center(self):
        r = Rect.from_center(Point(10, 10), 4, 6)
        assert (r.min_x, r.min_y, r.max_x, r.max_y) == (8, 7, 12, 13)

    def test_bounding(self):
        r = Rect.bounding([Point(0, 5), Point(3, -1), Point(2, 2)])
        assert (r.min_x, r.min_y, r.max_x, r.max_y) == (0, -1, 3, 5)

    def test_bounding_empty_raises(self):
        with pytest.raises(GeometryError):
            Rect.bounding([])


class TestPredicates:
    def test_contains_point_boundary(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains_point(Point(0, 0))
        assert r.contains_point(Point(10, 10))
        assert not r.contains_point(Point(10.001, 5))

    def test_halfopen_excludes_max_edge(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains_point_halfopen(Point(0, 0))
        assert not r.contains_point_halfopen(Point(10, 5))
        assert not r.contains_point_halfopen(Point(5, 10))

    def test_halfopen_partitions_siblings(self):
        parent = Rect(0, 0, 100, 100)
        quads = parent.grid(2, 2)
        boundary_point = Point(50, 50)
        owners = [q for q in quads if q.contains_point_halfopen(boundary_point)]
        assert len(owners) == 1

    def test_intersects_touching_edges(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))

    def test_disjoint(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(2, 2, 3, 3))

    def test_contains_rect(self):
        assert Rect(0, 0, 10, 10).contains_rect(Rect(2, 2, 8, 8))
        assert not Rect(0, 0, 10, 10).contains_rect(Rect(2, 2, 11, 8))


class TestOperations:
    def test_intersection(self):
        overlap = Rect(0, 0, 10, 10).intersection(Rect(5, 5, 15, 15))
        assert overlap == Rect(5, 5, 10, 10)

    def test_intersection_disjoint_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(5, 5, 6, 6)) is None

    def test_intersection_area(self):
        assert Rect(0, 0, 10, 10).intersection_area(Rect(5, 5, 15, 15)) == 25.0

    def test_enlarged(self):
        e = Rect(0, 0, 10, 10).enlarged(5)
        assert e == Rect(-5, -5, 15, 15)

    def test_enlarged_negative_shrinks(self):
        assert Rect(0, 0, 10, 10).enlarged(-2) == Rect(2, 2, 8, 8)

    def test_grid_tiles_parent(self):
        parent = Rect(0, 0, 9, 6)
        cells = parent.grid(3, 2)
        assert len(cells) == 6
        assert sum(c.area for c in cells) == pytest.approx(parent.area)

    def test_grid_invalid_raises(self):
        with pytest.raises(GeometryError):
            Rect(0, 0, 1, 1).grid(0, 2)

    def test_distance_to_point_inside_zero(self):
        assert Rect(0, 0, 10, 10).distance_to_point(Point(5, 5)) == 0.0

    def test_distance_to_point_outside(self):
        assert Rect(0, 0, 10, 10).distance_to_point(Point(13, 14)) == pytest.approx(5.0)

    def test_max_distance_to_point(self):
        assert Rect(0, 0, 3, 4).max_distance_to_point(Point(0, 0)) == pytest.approx(5.0)


class TestRectProperties:
    @given(rects(), rects())
    def test_intersection_commutative(self, a, b):
        assert a.intersection_area(b) == pytest.approx(b.intersection_area(a))

    @given(rects(), rects())
    def test_intersection_bounded_by_operands(self, a, b):
        area = a.intersection_area(b)
        assert area <= min(a.area, b.area) + 1e-6

    @given(rects(), st.floats(min_value=0, max_value=100))
    def test_enlarge_superset(self, r, margin):
        e = r.enlarged(margin)
        assert e.contains_rect(r)

    @given(rects(), rects())
    def test_bounding_of_corners_contains_both(self, a, b):
        u = Rect.bounding(a.corners + b.corners)
        assert u.contains_rect(a) and u.contains_rect(b)
        # Minimal: every side of the union is a side of one operand.
        assert u.min_x in (a.min_x, b.min_x) and u.max_x in (a.max_x, b.max_x)
        assert u.min_y in (a.min_y, b.min_y) and u.max_y in (a.max_y, b.max_y)


# Small integer coordinates: every area below is exact in floating point.
grid = st.integers(min_value=0, max_value=12)


@st.composite
def grid_rects(draw):
    x1, x2 = sorted((draw(grid), draw(grid)))
    y1, y2 = sorted((draw(grid), draw(grid)))
    return Rect(float(x1), float(y1), float(x2), float(y2))


def covered_area(base, covers) -> float:
    """SIZE(base ∩ ∪covers) by coordinate compression — no subtraction."""
    xs = sorted({base.min_x, base.max_x, *(v for c in covers for v in (c.min_x, c.max_x))})
    ys = sorted({base.min_y, base.max_y, *(v for c in covers for v in (c.min_y, c.max_y))})
    total = 0.0
    for x1, x2 in zip(xs, xs[1:]):
        for y1, y2 in zip(ys, ys[1:]):
            cell = Rect(x1, y1, x2, y2)
            if base.contains_rect(cell) and any(c.contains_rect(cell) for c in covers):
                total += cell.area
    return total


#: A rect still in doubt has positive area (a degenerate base that no
#: cover touches comes back as it went in).
bases = grid_rects().filter(lambda r: r.area > 0.0)


class TestSubtractProperties:
    """The geometry under the fan-out's coverage-aware retry rule."""

    @given(bases, st.lists(grid_rects(), max_size=5))
    def test_remainder_is_base_minus_the_covers(self, base, covers):
        pieces = subtract_rects(base, covers, cap=10_000)
        for i, piece in enumerate(pieces):
            assert piece.area > 0.0
            assert base.contains_rect(piece)
            assert all(piece.intersection_area(cover) == 0.0 for cover in covers)
            assert all(piece.intersection_area(other) == 0.0 for other in pieces[i + 1 :])
        assert sum(piece.area for piece in pieces) == base.area - covered_area(base, covers)

    @given(bases, grid_rects())
    def test_single_subtract_is_the_one_cover_case(self, base, cover):
        assert base.subtract(cover) == subtract_rects(base, [cover], cap=4)

    @given(bases, st.lists(grid_rects(), min_size=1, max_size=5), st.integers(0, 8))
    def test_cap_overflow_returns_none_never_a_partial_answer(self, base, covers, cap):
        uncapped = subtract_rects(base, covers, cap=10_000)
        capped = subtract_rects(base, covers, cap=cap)
        if len(uncapped) > cap:
            assert capped is None
        else:
            assert capped is None or capped == uncapped

    def test_cap_overflow_example(self):
        base = Rect(0, 0, 10, 10)
        holes = [Rect(1, 1, 2, 2), Rect(4, 4, 5, 5), Rect(7, 7, 8, 8)]
        assert subtract_rects(base, holes, cap=4) is None
        assert len(subtract_rects(base, holes, cap=32)) > 4
        assert subtract_rects(base, [base], cap=0) == []  # fully covered: nothing to re-query


class TestGridProperties:
    """``grid`` is how a leaf's area is split among its new children."""

    @given(grid_rects(), st.integers(1, 4), st.integers(1, 4))
    def test_grid_cells_tile_the_parent(self, parent, cols, rows):
        cells = parent.grid(cols, rows)
        assert len(cells) == cols * rows
        assert all(parent.contains_rect(cell) for cell in cells)
        for i, a in enumerate(cells):
            for b in cells[i + 1 :]:
                assert a.intersection_area(b) == pytest.approx(0.0, abs=1e-9)
        assert sum(cell.area for cell in cells) == pytest.approx(parent.area)

    @given(
        bases,
        st.integers(1, 4),
        st.integers(1, 4),
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_halfopen_grid_has_one_owner_per_point(self, parent, cols, rows, fx, fy):
        p = Point(parent.min_x + fx * parent.width, parent.min_y + fy * parent.height)
        if not parent.contains_point_halfopen(p):
            return  # rounded onto the max edge: no half-open owner exists
        owners = [c for c in parent.grid(cols, rows) if c.contains_point_halfopen(p)]
        assert len(owners) == 1

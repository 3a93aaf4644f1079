"""Tests for the Region dispatch helpers in repro.geo, and for the
region-vs-rect predicates every Region shape answers itself."""

import pytest

from repro.geo import (
    Circle,
    Point,
    Polygon,
    Rect,
    region_area,
    region_bounds,
    region_contains_point,
)

RECT = Rect(0, 0, 100, 100)
POLY = Polygon([Point(0, 0), Point(100, 0), Point(0, 100)])  # right triangle
DISC = Circle(Point(50, 50), 10.0)


class TestRegionHelpers:
    def test_area(self):
        assert region_area(RECT) == 10_000.0
        assert region_area(POLY) == pytest.approx(5_000.0)

    def test_bounds(self):
        assert region_bounds(RECT) == RECT
        assert region_bounds(POLY) == Rect(0, 0, 100, 100)

    def test_contains_point(self):
        assert region_contains_point(RECT, Point(50, 50))
        assert region_contains_point(POLY, Point(10, 10))
        assert not region_contains_point(POLY, Point(90, 90))

    def test_intersects_rect(self):
        probe = Rect(80, 80, 120, 120)
        assert RECT.intersects(probe)
        assert not POLY.intersects_rect(probe)
        assert POLY.intersects_rect(Rect(0, 0, 10, 10))
        assert DISC.intersects_rect(Rect(59, 50, 70, 60))
        assert not DISC.intersects_rect(probe)

    def test_contains_rect(self):
        assert RECT.contains_rect(Rect(10, 10, 90, 90))
        assert POLY.contains_rect(Rect(5, 5, 20, 20))
        assert not POLY.contains_rect(Rect(60, 60, 90, 90))
        # A circle fits inside a rect exactly when its bounds do.
        assert DISC.inside_rect(Rect(40, 40, 60, 60))
        assert not DISC.inside_rect(Rect(41, 40, 60, 60))

    def test_intersection_area_with_rect(self):
        probe = Rect(0, 0, 50, 50)
        assert RECT.intersection_area(probe) == 2_500.0
        # The triangle fully contains the 50x50 corner square.
        assert POLY.intersection_area_with_rect(probe) == pytest.approx(2_500.0)
        # Half-covered square on the hypotenuse.
        mid = Rect(25, 25, 75, 75)
        assert POLY.intersection_area_with_rect(mid) == pytest.approx(1_250.0)
        # The probe's corner at the centre takes one quarter of the disc.
        assert DISC.intersection_area_with_rect(probe) == pytest.approx(DISC.area / 4, rel=1e-3)

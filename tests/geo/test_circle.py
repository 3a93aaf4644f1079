"""Unit and property tests for circles and exact intersection areas."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geo import Circle, Point, Polygon, Rect
from repro.geo.circle import circle_polygon_areas
from tests.geo.shapes import regular_polygon


class TestBasics:
    def test_negative_radius_rejected(self):
        with pytest.raises(GeometryError):
            Circle(Point(0, 0), -1.0)

    def test_area(self):
        assert Circle(Point(0, 0), 2.0).area == pytest.approx(4.0 * math.pi)

    def test_bounds(self):
        b = Circle(Point(5, 5), 2.0).bounds
        assert b == Rect(3, 3, 7, 7)

    def test_contains_point(self):
        c = Circle(Point(0, 0), 5.0)
        assert c.contains_point(Point(3, 4))
        assert not c.contains_point(Point(3.1, 4.1))

    def test_intersects_rect(self):
        c = Circle(Point(0, 0), 5.0)
        assert c.intersects_rect(Rect(4, 0, 10, 10))
        assert not c.intersects_rect(Rect(4, 4, 10, 10))

    def test_inside_rect(self):
        assert Circle(Point(5, 5), 2.0).inside_rect(Rect(0, 0, 10, 10))
        assert not Circle(Point(1, 5), 2.0).inside_rect(Rect(0, 0, 10, 10))


class TestCircleRectArea:
    def test_disjoint_zero(self):
        assert Circle(Point(0, 0), 1.0).intersection_area_with_rect(Rect(5, 5, 6, 6)) == 0.0

    def test_circle_inside_rect_full(self):
        c = Circle(Point(5, 5), 1.0)
        assert c.intersection_area_with_rect(Rect(0, 0, 10, 10)) == pytest.approx(c.area)

    def test_rect_inside_circle_full(self):
        c = Circle(Point(0, 0), 100.0)
        r = Rect(-1, -1, 1, 1)
        assert c.intersection_area_with_rect(r) == pytest.approx(r.area)

    def test_half_disk(self):
        # Circle centered on a rect edge: exactly half the disk overlaps.
        c = Circle(Point(0, 5), 2.0)
        r = Rect(0, 0, 10, 10)
        assert c.intersection_area_with_rect(r) == pytest.approx(c.area / 2.0)

    def test_quarter_disk(self):
        c = Circle(Point(0, 0), 2.0)
        r = Rect(0, 0, 10, 10)
        assert c.intersection_area_with_rect(r) == pytest.approx(c.area / 4.0)

    def test_zero_radius(self):
        assert Circle(Point(5, 5), 0.0).intersection_area_with_rect(Rect(0, 0, 10, 10)) == 0.0

    def test_circular_segment(self):
        # Rect covers the half-plane x <= d through the circle; the overlap
        # is circle area minus a circular segment.
        r_circ = 5.0
        d = 3.0
        c = Circle(Point(0, 0), r_circ)
        rect = Rect(-100, -100, d, 100)
        theta = 2.0 * math.acos(d / r_circ)
        segment = 0.5 * r_circ * r_circ * (theta - math.sin(theta))
        assert c.intersection_area_with_rect(rect) == pytest.approx(c.area - segment)


class TestCirclePolygonArea:
    def test_polygon_matches_rect_path(self):
        c = Circle(Point(3, 3), 4.0)
        rect = Rect(0, 0, 10, 10)
        poly = Polygon.from_rect(rect)
        assert c.intersection_area_with_polygon(poly) == pytest.approx(
            c.intersection_area_with_rect(rect)
        )

    def test_triangle_fully_inside_circle(self):
        tri = Polygon([Point(-1, -1), Point(1, -1), Point(0, 1)])
        c = Circle(Point(0, 0), 50.0)
        assert c.intersection_area_with_polygon(tri) == pytest.approx(tri.area)

    def test_concave_polygon(self):
        l_shape = Polygon(
            [Point(0, 0), Point(4, 0), Point(4, 2), Point(2, 2), Point(2, 4), Point(0, 4)]
        )
        big = Circle(Point(2, 2), 100.0)
        assert big.intersection_area_with_polygon(l_shape) == pytest.approx(l_shape.area)

    def test_dispatch(self):
        c = Circle(Point(0, 0), 1.0)
        assert c.intersection_area(Rect(-1, -1, 1, 1)) == pytest.approx(
            c.intersection_area(Polygon.from_rect(Rect(-1, -1, 1, 1)))
        )


class TestArrayForm:
    """`circle_polygon_areas` is `intersection_area` for many disks at
    once; the scalar form is the reference."""

    L_SHAPE = Polygon(
        [Point(0, 0), Point(60, 0), Point(60, 20), Point(20, 20), Point(20, 60), Point(0, 60)]
    )

    @staticmethod
    def both(region, disks):
        cx, cy, r = (np.array(column, dtype=float) for column in zip(*disks))
        vertices = region.corners if isinstance(region, Rect) else region.points
        array = circle_polygon_areas(np, cx, cy, r, vertices)
        scalar = [Circle(Point(x, y), radius).intersection_area(region) for x, y, radius in disks]
        return array.tolist(), scalar

    @pytest.mark.parametrize("region", [Rect(0, 0, 100, 50), L_SHAPE])
    def test_matches_scalar_on_a_grid_of_disks(self, region):
        disks = [
            (x, y, radius)
            for x in range(-30, 131, 10)
            for y in range(-30, 91, 10)
            for radius in (3.0, 25.0, 80.0, 400.0)
        ]
        array, scalar = self.both(region, disks)
        for got, want, (_, _, radius) in zip(array, scalar, disks):
            assert got == pytest.approx(want, abs=1e-9 * radius * radius)

    def test_centre_on_a_vertex_an_edge_and_a_hair_beside_them(self):
        # Vectors from the centre to a vertex are (near) zero here; a sector
        # angle taken between two of them would be noise.
        square = Rect(0, 0, 1, 1)
        disks = [
            (0.0, 0.0, 2.0),
            (7.661573393067506e-209, -1.7606284972114472e-74, 2.0),
            (1.0, 1.0, 0.5),
            (0.5, 0.0, 0.25),
            (0.5, 1e-300, 0.25),
            (1.0 + 1e-17, 0.5, 3.0),
        ]
        array, scalar = self.both(square, disks)
        assert array == pytest.approx(scalar, abs=1e-12)
        assert array[0] == pytest.approx(1.0) and array[2] == pytest.approx(math.pi / 16)

    def test_degenerate_regions_have_no_area(self):
        disks = [(0.0, 0.0, 1.0), (5.0, 0.5, 2.0)]
        for region in (Rect(0, 0, 10, 0), Rect(3, 3, 3, 3)):
            array, scalar = self.both(region, disks)
            assert array == scalar == [0.0, 0.0]


class TestMonteCarloAgreement:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_circle_rect_matches_monte_carlo(self, seed):
        rng = random.Random(seed)
        c = Circle(Point(rng.uniform(-10, 10), rng.uniform(-10, 10)), rng.uniform(0.5, 15))
        rect = Rect.from_center(
            Point(rng.uniform(-10, 10), rng.uniform(-10, 10)),
            rng.uniform(1, 30),
            rng.uniform(1, 30),
        )
        exact = c.intersection_area_with_rect(rect)
        hits = 0
        samples = 5000
        for _ in range(samples):
            p = Point(rng.uniform(rect.min_x, rect.max_x), rng.uniform(rect.min_y, rect.max_y))
            if c.contains_point(p):
                hits += 1
        estimate = rect.area * hits / samples
        tolerance = 4.0 * rect.area / math.sqrt(samples) + 1e-6
        assert abs(exact - estimate) <= tolerance

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_circle_polygon_bounded(self, seed):
        rng = random.Random(seed)
        c = Circle(Point(rng.uniform(-5, 5), rng.uniform(-5, 5)), rng.uniform(0.5, 10))
        poly = regular_polygon(
            Point(rng.uniform(-5, 5), rng.uniform(-5, 5)),
            rng.uniform(1, 10),
            rng.randint(3, 9),
        )
        area = c.intersection_area_with_polygon(poly)
        assert -1e-9 <= area <= min(c.area, poly.area) + 1e-6

"""Unit and property tests for points and vectors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geo import Point, Vector, distance

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
points = st.builds(Point, finite, finite)


class TestPoint:
    def test_distance_pythagoras(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_zero_to_self(self):
        p = Point(12.5, -7.25)
        assert p.distance_to(p) == 0.0

    def test_squared_distance_matches_distance(self):
        a, b = Point(1, 2), Point(4, 6)
        assert a.squared_distance_to(b) == pytest.approx(a.distance_to(b) ** 2)

    def test_subtraction_yields_vector(self):
        v = Point(5, 7) - Point(2, 3)
        assert isinstance(v, Vector)
        assert (v.dx, v.dy) == (3, 4)

    def test_point_plus_vector(self):
        assert Point(1, 1) + Vector(2, 3) == Point(3, 4)

    def test_iteration_unpacks(self):
        x, y = Point(8, 9)
        assert (x, y) == (8, 9)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Point(0, 0).x = 5  # type: ignore[misc]

    def test_module_level_distance(self):
        assert distance(Point(0, 0), Point(0, 9)) == 9.0


class TestVector:
    def test_length(self):
        assert Vector(3, 4).length == pytest.approx(5.0)

    def test_scaled(self):
        v = Vector(1, -2).scaled(3)
        assert (v.dx, v.dy) == (3, -6)

    def test_normalized(self):
        n = Vector(0, 5).normalized()
        assert (n.dx, n.dy) == pytest.approx((0.0, 1.0))

    def test_normalized_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Vector(0, 0).normalized()

    def test_dot_orthogonal(self):
        assert Vector(1, 0).dot(Vector(0, 7)) == 0.0

    def test_cross_sign(self):
        assert Vector(1, 0).cross(Vector(0, 1)) == 1.0
        assert Vector(0, 1).cross(Vector(1, 0)) == -1.0

    def test_addition_and_negation(self):
        v = Vector(1, 2) + (-Vector(3, 4))
        assert (v.dx, v.dy) == (-2, -2)


class TestPointProperties:
    @given(points, points)
    def test_distance_symmetric(self, a, b):
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6

    @given(points, points)
    def test_distance_non_negative(self, a, b):
        assert a.distance_to(b) >= 0.0

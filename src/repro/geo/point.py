"""Planar points in a local metric coordinate frame.

The paper stores positions as WGS84 geographic coordinates but all of its
experiments operate on city-scale areas (1.5 km to 10 km across) where a
flat-earth approximation is exact to well under sensor accuracy.  The
library therefore computes in a local planar frame whose unit is one
meter; :mod:`repro.geo.coords` converts WGS84 latitude/longitude into this
frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, slots=True)
class Point:
    """An immutable 2-D point, coordinates in meters."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in meters (the paper's DISTANCE)."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def squared_distance_to(self, other: "Point") -> float:
        """Squared distance; cheaper than :meth:`distance_to` for comparisons."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def __sub__(self, other: "Point") -> "Vector":
        return Vector(self.x - other.x, self.y - other.y)

    def __add__(self, vec: "Vector") -> "Point":
        return Point(self.x + vec.dx, self.y + vec.dy)


@dataclass(frozen=True, slots=True)
class Vector:
    """A displacement between two points, in meters."""

    dx: float
    dy: float

    @property
    def length(self) -> float:
        return math.hypot(self.dx, self.dy)

    def scaled(self, factor: float) -> "Vector":
        return Vector(self.dx * factor, self.dy * factor)

    def normalized(self) -> "Vector":
        """A unit vector in the same direction.

        Raises:
            ZeroDivisionError: if the vector has zero length.
        """
        length = self.length
        return Vector(self.dx / length, self.dy / length)

    def dot(self, other: "Vector") -> float:
        return self.dx * other.dx + self.dy * other.dy

    def cross(self, other: "Vector") -> float:
        """The z-component of the 3-D cross product (signed parallelogram area)."""
        return self.dx * other.dy - self.dy * other.dx

    def __add__(self, other: "Vector") -> "Vector":
        return Vector(self.dx + other.dx, self.dy + other.dy)

    def __neg__(self) -> "Vector":
        return Vector(-self.dx, -self.dy)


ORIGIN = Point(0.0, 0.0)


def distance(a: Point, b: Point) -> float:
    """Module-level alias for :meth:`Point.distance_to` (paper's DISTANCE)."""
    return a.distance_to(b)

"""Circles and exact circle/region intersection areas.

A tracked object's recorded position is a **circular location area**
(Fig. 2): the disk of radius ``ld(o).acc`` around ``ld(o).pos``.  Range
query semantics (Section 3.2) need

    Overlap(a, o) = SIZE(a ∩ ld(o)) / SIZE(ld(o))

i.e. the exact area of intersection between a disk and the queried
region.  This module implements that intersection exactly for rectangles
and simple polygons using the classic signed triangle/arc decomposition:
each directed polygon edge ``(A, B)`` contributes the signed area of the
intersection of triangle ``(center, A, B)`` with the disk; summing over
the boundary yields the intersection area for any simple polygon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import GeometryError
from repro.geo.point import Point
from repro.geo.polygon import Polygon
from repro.geo.rect import Rect

_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class Circle:
    """A disk given by center and radius (meters)."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise GeometryError(f"circle radius must be non-negative, got {self.radius}")

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius

    @property
    def bounds(self) -> Rect:
        return Rect(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )

    def contains_point(self, p: Point) -> bool:
        return self.center.squared_distance_to(p) <= self.radius * self.radius + _EPS

    def intersects_rect(self, rect: Rect) -> bool:
        return rect.distance_to_point(self.center) <= self.radius

    def inside_rect(self, rect: Rect) -> bool:
        """Whether the whole disk lies within the rectangle."""
        return rect.contains_rect(self.bounds)

    # -- intersection areas ------------------------------------------------

    def intersection_area_with_rect(self, rect: Rect) -> float:
        """Exact area of ``disk ∩ rect``."""
        if self.radius == 0.0 or not self.intersects_rect(rect):
            return 0.0
        if self.inside_rect(rect):
            return self.area
        return _circle_polygon_area(self.center, self.radius, rect.corners)

    def intersection_area_with_polygon(self, polygon: Polygon) -> float:
        """Exact area of ``disk ∩ polygon`` for any simple polygon."""
        if self.radius == 0.0 or not self.bounds.intersects(polygon.bounds):
            return 0.0
        return _circle_polygon_area(self.center, self.radius, polygon.points)

    def intersection_area(self, region: "Rect | Polygon") -> float:
        """Dispatch on the region type; used by the overlap semantics."""
        if isinstance(region, Rect):
            return self.intersection_area_with_rect(region)
        return self.intersection_area_with_polygon(region)


def _circle_polygon_area(center: Point, radius: float, vertices: tuple[Point, ...]) -> float:
    """Signed triangle/arc decomposition of ``disk ∩ polygon``.

    For each directed edge the contribution is the signed area of the
    intersection of the triangle (origin, A, B) with the disk, where the
    frame is translated so the circle center is the origin.  Summing over
    a closed boundary telescopes to the exact intersection area; the
    absolute value at the end makes the result independent of winding.
    """
    total = 0.0
    n = len(vertices)
    for i in range(n):
        a = vertices[i] - center
        b = vertices[(i + 1) % n] - center
        total += _edge_contribution(a.dx, a.dy, b.dx, b.dy, radius)
    return abs(total)


def circle_polygon_areas(np, cx, cy, radius, vertices: tuple[Point, ...]):
    """Array form of :func:`_circle_polygon_area`: the areas of ``n`` disks
    (arrays ``cx``, ``cy``, ``radius``) intersected with one polygon.

    Same decomposition, one row per directed edge (a ``k × n`` array): the
    two circle-crossing parameters clipped to ``[0, 1]`` cut the edge into
    an outer, an inner and an outer piece; the outer pieces contribute
    their sector angle, the inner piece its triangle.  Agrees with the
    scalar form up to rounding, not bit for bit — callers that compare
    against a threshold keep a guard band.  ``np`` is the numpy module.
    """
    vx = [v.x for v in vertices]
    vy = [v.y for v in vertices]
    ax = np.array(vx)[:, None] - cx
    ay = np.array(vy)[:, None] - cy
    bx = np.array(vx[1:] + vx[:1])[:, None] - cx
    by = np.array(vy[1:] + vy[:1])[:, None] - cy
    dx = bx - ax
    dy = by - ay
    a_coef = dx * dx + dy * dy
    b_coef = 2.0 * (ax * dx + ay * dy)
    r_sq = radius * radius
    disc = b_coef * b_coef - 4.0 * a_coef * (ax * ax + ay * ay - r_sq)
    crossing = (disc > 0.0) & (a_coef >= _EPS)
    sqrt_disc = np.sqrt(np.where(crossing, disc, 0.0))
    two_a = np.where(crossing, 2.0 * a_coef, 1.0)
    # An edge the circle does not cross is one piece, classified like the
    # scalar form's by its midpoint: inner (t1, t2 = 0, 1) or outer (0, 0).
    mid_sq = 0.25 * ((ax + bx) ** 2 + (ay + by) ** 2)
    t1 = np.where(crossing, np.clip((-b_coef - sqrt_disc) / two_a, 0.0, 1.0), 0.0)
    t2 = np.where(
        crossing,
        np.clip((-b_coef + sqrt_disc) / two_a, 0.0, 1.0),
        mid_sq < r_sq * (1.0 - 1e-12),
    )
    px = ax + t1 * dx
    py = ay + t1 * dy
    # B itself where the inner piece runs to the end: A + 1·(B − A) is only
    # B up to rounding, and the angle between two near-centre vectors is noise.
    qx = np.where(t2 < 1.0, ax + t2 * dx, bx)
    qy = np.where(t2 < 1.0, ay + t2 * dy, by)
    angles = np.arctan2(ax * py - ay * px, ax * px + ay * py)
    angles += np.arctan2(qx * by - qy * bx, qx * bx + qy * by)
    pieces = 0.5 * r_sq * angles + 0.5 * (px * qy - qx * py)
    return np.abs(pieces.sum(axis=0))


def _edge_contribution(ax: float, ay: float, bx: float, by: float, r: float) -> float:
    """Signed area contribution of one directed edge (circle at origin)."""
    # Split the segment at its intersections with the circle, then sum a
    # triangle area for chords inside the disk and a circular-sector area
    # for parts outside.
    points = [(0.0, ax, ay), (1.0, bx, by)]
    for t in _segment_circle_params(ax, ay, bx, by, r):
        points.append((t, ax + t * (bx - ax), ay + t * (by - ay)))
    points.sort(key=lambda item: item[0])

    area = 0.0
    r_sq = r * r
    # Strictly-inside test: a midpoint exactly on the circle (tangent edge)
    # must take the arc branch, otherwise the chord approximation would
    # include area outside the disk.  The relative margin absorbs FP noise.
    inside_threshold = r_sq * (1.0 - 1e-12)
    for (_, px, py), (_, qx, qy) in zip(points, points[1:]):
        mx = (px + qx) / 2.0
        my = (py + qy) / 2.0
        if mx * mx + my * my < inside_threshold:
            area += (px * qy - qx * py) / 2.0
        else:
            angle = math.atan2(qy, qx) - math.atan2(py, px)
            if angle > math.pi:
                angle -= 2.0 * math.pi
            elif angle < -math.pi:
                angle += 2.0 * math.pi
            area += 0.5 * r_sq * angle
    return area


def _segment_circle_params(
    ax: float, ay: float, bx: float, by: float, r: float
) -> list[float]:
    """Parameters ``t in (0, 1)`` where segment A+t(B-A) crosses the circle."""
    dx = bx - ax
    dy = by - ay
    a_coef = dx * dx + dy * dy
    if a_coef < _EPS:
        return []
    b_coef = 2.0 * (ax * dx + ay * dy)
    c_coef = ax * ax + ay * ay - r * r
    disc = b_coef * b_coef - 4.0 * a_coef * c_coef
    if disc <= 0.0:
        return []
    sqrt_disc = math.sqrt(disc)
    t1 = (-b_coef - sqrt_disc) / (2.0 * a_coef)
    t2 = (-b_coef + sqrt_disc) / (2.0 * a_coef)
    return [t for t in (t1, t2) if _EPS < t < 1.0 - _EPS]

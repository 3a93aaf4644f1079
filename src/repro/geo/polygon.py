"""Simple polygons.

The paper allows a range-query area and a service area to be "an
arbitrary connected polygon given by the geographic coordinates of its
corners" (Section 3.2).  This module provides the polygon machinery the
query semantics need: area, containment, rect/polygon intersection tests
and convex clipping (used to compute ``a ∩ c.sa`` in Algorithm 6-5 and the
covered-region bookkeeping of the range-query entry server).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import GeometryError
from repro.geo.point import Point, Vector
from repro.geo.rect import Rect

_EPS = 1e-9


class Polygon:
    """An immutable simple polygon defined by its corner points.

    Vertices may be supplied in either winding order; they are normalised
    to counter-clockwise.  The polygon must have non-zero area and at
    least three vertices.  Self-intersection is not diagnosed exhaustively
    (that costs O(n^2)) but degenerate inputs common in practice —
    duplicate consecutive vertices, collinear-only rings — are rejected.
    """

    __slots__ = ("_points", "_bounds", "_area")

    def __init__(self, points: Sequence[Point]) -> None:
        pts = [p if isinstance(p, Point) else Point(*p) for p in points]
        if len(pts) < 3:
            raise GeometryError(f"polygon needs at least 3 vertices, got {len(pts)}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            if abs(a.x - b.x) < _EPS and abs(a.y - b.y) < _EPS:
                raise GeometryError("polygon has duplicate consecutive vertices")
        signed = _signed_area(pts)
        if abs(signed) < _EPS:
            raise GeometryError("polygon has zero area")
        if signed < 0:
            pts.reverse()
        self._points: tuple[Point, ...] = tuple(pts)
        self._bounds = Rect.bounding(pts)
        self._area = abs(signed)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rect(cls, rect: Rect) -> "Polygon":
        return cls(rect.corners)

    # -- properties -----------------------------------------------------

    @property
    def points(self) -> tuple[Point, ...]:
        return self._points

    @property
    def bounds(self) -> Rect:
        return self._bounds

    @property
    def area(self) -> float:
        return self._area

    def edges(self) -> Iterable[tuple[Point, Point]]:
        pts = self._points
        for i, a in enumerate(pts):
            yield a, pts[(i + 1) % len(pts)]

    # -- predicates -----------------------------------------------------

    def contains_point(self, p: Point) -> bool:
        """Point-in-polygon via ray casting; boundary points count as inside."""
        if not self._bounds.contains_point(p):
            return False
        inside = False
        for a, b in self.edges():
            if _on_segment(p, a, b):
                return True
            if (a.y > p.y) != (b.y > p.y):
                x_at_y = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
                if p.x < x_at_y:
                    inside = not inside
        return inside

    def intersects_rect(self, rect: Rect) -> bool:
        """Whether the polygon and the rectangle share at least one point."""
        if not self._bounds.intersects(rect):
            return False
        if any(rect.contains_point(p) for p in self._points):
            return True
        if self.contains_point(rect.center):
            return True
        rect_edges = list(Polygon.from_rect(rect).edges())
        for a, b in self.edges():
            for c, d in rect_edges:
                if _segments_intersect(a, b, c, d):
                    return True
        return False

    def contains_rect(self, rect: Rect) -> bool:
        """Whether the rectangle lies entirely inside the polygon."""
        if not all(self.contains_point(c) for c in rect.corners):
            return False
        # For concave polygons corner containment is not sufficient: an
        # edge of the polygon may cut through the rectangle.
        rect_edges = list(Polygon.from_rect(rect).edges())
        for a, b in self.edges():
            for c, d in rect_edges:
                if _segments_properly_intersect(a, b, c, d):
                    return False
        return True

    # -- clipping ---------------------------------------------------------

    def clip_to_rect(self, rect: Rect) -> "Polygon | None":
        """The intersection ``self ∩ rect`` as a polygon, or ``None`` if empty.

        Uses Sutherland–Hodgman clipping, which is exact because the clip
        region (the rectangle) is convex.  Works for concave subjects; the
        result of clipping a self-overlapping concave subject may include
        degenerate bridges, which is acceptable for area computation.
        """
        vertices = list(self._points)
        for edge in _rect_halfplanes(rect):
            vertices = _clip_against_halfplane(vertices, edge)
            if len(vertices) < 3:
                return None
        try:
            return Polygon(_dedupe(vertices))
        except GeometryError:
            return None

    def intersection_area_with_rect(self, rect: Rect) -> float:
        clipped = self.clip_to_rect(rect)
        return clipped.area if clipped is not None else 0.0


def _signed_area(points: Sequence[Point]) -> float:
    """Shoelace formula; positive for counter-clockwise winding."""
    total = 0.0
    n = len(points)
    for i, a in enumerate(points):
        b = points[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total / 2.0


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    cross = (b - a).cross(p - a)
    if abs(cross) > _EPS * max(1.0, a.distance_to(b)):
        return False
    return (
        min(a.x, b.x) - _EPS <= p.x <= max(a.x, b.x) + _EPS
        and min(a.y, b.y) - _EPS <= p.y <= max(a.y, b.y) + _EPS
    )


def _orientation(a: Point, b: Point, c: Point) -> int:
    cross = (b - a).cross(c - a)
    if cross > _EPS:
        return 1
    if cross < -_EPS:
        return -1
    return 0


def _segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Whether closed segments ``ab`` and ``cd`` share a point."""
    o1 = _orientation(a, b, c)
    o2 = _orientation(a, b, d)
    o3 = _orientation(c, d, a)
    o4 = _orientation(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    return (
        (o1 == 0 and _on_segment(c, a, b))
        or (o2 == 0 and _on_segment(d, a, b))
        or (o3 == 0 and _on_segment(a, c, d))
        or (o4 == 0 and _on_segment(b, c, d))
    )


def _segments_properly_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Crossing in the interiors of both segments (no endpoint touching)."""
    o1 = _orientation(a, b, c)
    o2 = _orientation(a, b, d)
    o3 = _orientation(c, d, a)
    o4 = _orientation(c, d, b)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def _rect_halfplanes(rect: Rect) -> list[tuple[Point, Vector]]:
    """The four half-planes of a rect as (anchor, inward normal) pairs."""
    return [
        (Point(rect.min_x, rect.min_y), Vector(1.0, 0.0)),
        (Point(rect.max_x, rect.min_y), Vector(0.0, 1.0)),
        (Point(rect.max_x, rect.max_y), Vector(-1.0, 0.0)),
        (Point(rect.min_x, rect.max_y), Vector(0.0, -1.0)),
    ]


def _clip_against_halfplane(
    vertices: list[Point], halfplane: tuple[Point, Vector]
) -> list[Point]:
    anchor, normal = halfplane
    result: list[Point] = []
    n = len(vertices)
    for i, current in enumerate(vertices):
        nxt = vertices[(i + 1) % n]
        cur_in = normal.dot(current - anchor) >= -_EPS
        nxt_in = normal.dot(nxt - anchor) >= -_EPS
        if cur_in:
            result.append(current)
            if not nxt_in:
                result.append(_halfplane_intersection(current, nxt, anchor, normal))
        elif nxt_in:
            result.append(_halfplane_intersection(current, nxt, anchor, normal))
    return result


def _halfplane_intersection(a: Point, b: Point, anchor: Point, normal: Vector) -> Point:
    da = normal.dot(a - anchor)
    db = normal.dot(b - anchor)
    t = da / (da - db)
    return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def _dedupe(vertices: list[Point]) -> list[Point]:
    """Drop consecutive (near-)duplicate vertices produced by clipping."""
    result: list[Point] = []
    for v in vertices:
        if not result or result[-1].distance_to(v) > _EPS:
            result.append(v)
    if len(result) > 1 and result[0].distance_to(result[-1]) <= _EPS:
        result.pop()
    return result

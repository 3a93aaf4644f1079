"""Geometry substrate for the location service.

Planar points (local metric frame), rectangles, simple polygons, circles
with exact intersection areas, and WGS84 conversion.
"""

from repro.geo.circle import Circle, circle_circle_intersection_area
from repro.geo.coords import EARTH_RADIUS_M, GeoCoordinate, LocalProjection, haversine_distance
from repro.geo.point import ORIGIN, Point, Vector, distance
from repro.geo.polygon import Polygon
from repro.geo.rect import Rect, subtract_rects

#: A queried or service-area region: either an axis-aligned rect or a polygon.
Region = Rect | Polygon

__all__ = [
    "Circle",
    "EARTH_RADIUS_M",
    "GeoCoordinate",
    "LocalProjection",
    "ORIGIN",
    "Point",
    "Polygon",
    "Rect",
    "Region",
    "Vector",
    "circle_circle_intersection_area",
    "distance",
    "haversine_distance",
    "subtract_rects",
]


def region_area(region: Region) -> float:
    """The area of a region in square meters."""
    return region.area


def region_bounds(region: Region) -> Rect:
    """The bounding box of a region."""
    return region if isinstance(region, Rect) else region.bounds


def region_contains_point(region: Region, point: Point) -> bool:
    """Whether ``point`` lies inside ``region`` (boundary inclusive)."""
    return region.contains_point(point)


def region_intersects_rect(region: Region, rect: Rect) -> bool:
    """Whether ``region`` and ``rect`` share at least one point."""
    if isinstance(region, Rect):
        return region.intersects(rect)
    return region.intersects_rect(rect)


def region_contains_rect(region: Region, rect: Rect) -> bool:
    """Whether ``rect`` lies entirely inside ``region``."""
    return region.contains_rect(rect)


def region_intersection_area_with_rect(region: Region, rect: Rect) -> float:
    """Exact area of ``region ∩ rect``."""
    if isinstance(region, Rect):
        return region.intersection_area(rect)
    return region.intersection_area_with_rect(rect)

"""Geometry substrate for the location service.

Planar points (local metric frame), rectangles, simple polygons, circles
with exact intersection areas, and WGS84 conversion.
"""

from repro.geo.circle import Circle
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

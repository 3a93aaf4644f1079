"""Shape builders for the geometry property tests."""

import math

from repro.geo import Point, Polygon


def regular_polygon(center: Point, radius: float, sides: int) -> Polygon:
    """A regular ``sides``-gon inscribed in a circle of ``radius``."""
    step = 2.0 * math.pi / sides
    return Polygon(
        [
            Point(center.x + radius * math.cos(i * step), center.y + radius * math.sin(i * step))
            for i in range(sides)
        ]
    )

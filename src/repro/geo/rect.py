"""Axis-aligned rectangles.

Rectangles serve two roles in the reproduction:

* as the **service areas** produced by the regular quad-split hierarchy
  builder (the paper allows arbitrary polygons; rectangles are the shape
  its own testbed used — four quadrant leaves under one root), and
* as **bounding boxes** inside the spatial indexes.

The paper's ``Enlarge(area, reqAcc)`` operation (Algorithm 6-5) maps to
:meth:`Rect.enlarged`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import GeometryError
from repro.geo.point import Point


@dataclass(frozen=True, slots=True)
class Rect:
    """A closed axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise GeometryError(
                f"degenerate rect: ({self.min_x}, {self.min_y}) .. ({self.max_x}, {self.max_y})"
            )

    # -- constructors -------------------------------------------------

    @classmethod
    def from_center(cls, center: Point, width: float, height: float) -> "Rect":
        """A rectangle of the given size centered on ``center``."""
        return cls(
            center.x - width / 2.0,
            center.y - height / 2.0,
            center.x + width / 2.0,
            center.y + height / 2.0,
        )

    @classmethod
    def bounding(cls, points: Sequence[Point]) -> "Rect":
        """The minimal bounding box of a non-empty point sequence."""
        if not points:
            raise GeometryError("cannot bound an empty point sequence")
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        return cls(min(xs), min(ys), max(xs), max(ys))

    # -- basic properties ----------------------------------------------

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    @property
    def corners(self) -> tuple[Point, Point, Point, Point]:
        """Corners in counter-clockwise order starting at the minimum corner."""
        return (
            Point(self.min_x, self.min_y),
            Point(self.max_x, self.min_y),
            Point(self.max_x, self.max_y),
            Point(self.min_x, self.max_y),
        )

    # -- predicates ------------------------------------------------------

    def contains_point(self, p: Point) -> bool:
        """Whether ``p`` lies inside or on the boundary."""
        return self.min_x <= p.x <= self.max_x and self.min_y <= p.y <= self.max_y

    def contains_point_halfopen(self, p: Point) -> bool:
        """Membership in the half-open cell ``[min_x, max_x) x [min_y, max_y)``.

        Sibling service areas must not overlap (Section 4, requirement 2);
        half-open containment assigns boundary points to exactly one
        sibling when a parent area is split on shared edges.
        """
        return self.min_x <= p.x < self.max_x and self.min_y <= p.y < self.max_y

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def intersects(self, other: "Rect") -> bool:
        """Whether the two closed rectangles share at least one point."""
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping rectangle, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.min_x, other.min_x),
            max(self.min_y, other.min_y),
            min(self.max_x, other.max_x),
            min(self.max_y, other.max_y),
        )

    def intersection_area(self, other: "Rect") -> float:
        overlap = self.intersection(other)
        return overlap.area if overlap is not None else 0.0

    def subtract(self, other: "Rect") -> "list[Rect]":
        """The part of this rectangle not covered by ``other``.

        Guillotine decomposition into at most four disjoint pieces
        (bottom band, top band, left strip, right strip).  Zero-area
        slivers are dropped: the remainders drive *re-queries* of
        uncovered space (PR 9's coverage-aware epoch retries), and a
        degenerate rect can only re-find boundary entries the covered
        answer already reported.
        """
        overlap = self.intersection(other)
        if overlap is None:
            return [self]
        if overlap == self:
            return []
        pieces = []
        if overlap.min_y > self.min_y:
            pieces.append(Rect(self.min_x, self.min_y, self.max_x, overlap.min_y))
        if overlap.max_y < self.max_y:
            pieces.append(Rect(self.min_x, overlap.max_y, self.max_x, self.max_y))
        if overlap.min_x > self.min_x:
            pieces.append(Rect(self.min_x, overlap.min_y, overlap.min_x, overlap.max_y))
        if overlap.max_x < self.max_x:
            pieces.append(Rect(overlap.max_x, overlap.min_y, self.max_x, overlap.max_y))
        return [piece for piece in pieces if piece.area > 0.0]

    # -- derived rectangles ----------------------------------------------

    def enlarged(self, margin: float) -> "Rect":
        """The paper's ``Enlarge``: grow every side by ``margin`` meters.

        A negative margin shrinks the rect; shrinking below a point raises
        :class:`~repro.errors.GeometryError` via the constructor.
        """
        return Rect(
            self.min_x - margin, self.min_y - margin, self.max_x + margin, self.max_y + margin
        )

    def grid(self, cols: int, rows: int) -> list["Rect"]:
        """Split into a ``cols x rows`` grid, row-major from the min corner."""
        if cols < 1 or rows < 1:
            raise GeometryError(f"grid split needs positive dimensions, got {cols}x{rows}")
        cells = []
        for row in range(rows):
            for col in range(cols):
                cells.append(
                    Rect(
                        self.min_x + self.width * col / cols,
                        self.min_y + self.height * row / rows,
                        self.min_x + self.width * (col + 1) / cols,
                        self.min_y + self.height * (row + 1) / rows,
                    )
                )
        return cells

    # -- distances --------------------------------------------------------

    def distance_to_point(self, p: Point) -> float:
        """Minimal distance from ``p`` to the rectangle (0 when inside)."""
        dx = max(self.min_x - p.x, 0.0, p.x - self.max_x)
        dy = max(self.min_y - p.y, 0.0, p.y - self.max_y)
        return math.hypot(dx, dy)

    def max_distance_to_point(self, p: Point) -> float:
        """Maximal distance from ``p`` to any point of the rectangle."""
        dx = max(abs(p.x - self.min_x), abs(p.x - self.max_x))
        dy = max(abs(p.y - self.min_y), abs(p.y - self.max_y))
        return math.hypot(dx, dy)

    def __iter__(self) -> Iterator[float]:
        yield self.min_x
        yield self.min_y
        yield self.max_x
        yield self.max_y


def subtract_rects(base: Rect, covers: Sequence[Rect], cap: int = 32) -> "list[Rect] | None":
    """``base`` minus the union of ``covers``, as disjoint rectangles.

    Returns ``None`` when the decomposition would exceed ``cap`` pieces —
    the caller should then fall back to re-querying ``base`` whole rather
    than fan out into confetti.  An empty list means ``base`` is fully
    covered.
    """
    remainders = [base]
    for cover in covers:
        next_remainders: list[Rect] = []
        for piece in remainders:
            next_remainders.extend(piece.subtract(cover))
            if len(next_remainders) > cap:
                return None
        remainders = next_remainders
        if not remainders:
            break
    return remainders

"""Query types and their exact semantics (paper Section 3.2).

This module is deliberately *pure*: it defines what the answers are,
independent of where objects are stored or how servers communicate.  The
distributed layer (:mod:`repro.core`) funnels candidate sets through
these functions so that a single-server LS, the hierarchical LS and the
baselines all share one definition of correctness — which is also what
the equivalence tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.errors import LocationServiceError
from repro.geo import Point, Rect, Region, region_area, region_bounds, region_contains_point
from repro.geo.circle import circle_polygon_areas
from repro.model.records import LocationDescriptor

#: An array overlap estimate closer than this to ``reqOverlap`` is not
#: trusted: :func:`qualifies_for_range` decides that candidate instead.
#: Both forms lose ``~eps * (distance / radius)²`` to cancellation, so the
#: band widens by that factor for a small disk far from the area's corners.
_OVERLAP_GUARD = 1e-9


class InvalidQueryError(LocationServiceError):
    """A query specification failed validation."""


#: One query answer entry: the paper's ``(o, ld(o))`` pair.
ObjectEntry = tuple[str, LocationDescriptor]


# ---------------------------------------------------------------------------
# Query specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RangeQuery:
    """``rangeQuery(a, reqAcc, reqOverlap) → objSet``.

    Attributes:
        area: the queried geographic area ``a`` (rect or polygon).
        req_acc: accuracy threshold — objects whose descriptor accuracy is
            *worse* (larger) are ignored.
        req_overlap: required overlap degree in ``(0, 1]``.
    """

    area: Region
    req_acc: float = float("inf")
    req_overlap: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.req_overlap <= 1.0:
            raise InvalidQueryError(
                f"reqOverlap must be in (0, 1], got {self.req_overlap}"
            )
        if self.req_acc < 0:
            raise InvalidQueryError(f"reqAcc must be non-negative, got {self.req_acc}")


@dataclass(frozen=True, slots=True)
class NearestNeighborQuery:
    """``neighborQuery(p, reqAcc, nearQual) → (nearestObj, nearObjSet)``.

    ``near_qual`` widens the ring of additional "near" neighbors beyond
    the selected one; ``2 * req_acc`` guarantees every object that could
    actually be closer than the selected one is included (Section 3.2).
    """

    pos: Point
    req_acc: float = float("inf")
    near_qual: float = 0.0

    def __post_init__(self) -> None:
        if self.req_acc < 0:
            raise InvalidQueryError(f"reqAcc must be non-negative, got {self.req_acc}")
        if self.near_qual < 0:
            raise InvalidQueryError(f"nearQual must be non-negative, got {self.near_qual}")


@dataclass(frozen=True, slots=True)
class NearestNeighborResult:
    """The answer to a nearest-neighbor query.

    Attributes:
        nearest: the selected ``(o, ld(o))`` pair, or ``None`` when no
            object satisfies the accuracy threshold.
        near_set: the additional near neighbors (``nearObjSet``), sorted
            by distance to the probe.
        guaranteed_min_distance: no qualifying object can be closer to the
            probe than this (``DISTANCE(ld(o).pos, p) - reqAcc``, floored
            at zero) — the bound a client may use e.g. to cap radio
            transmission power without causing interference.
    """

    nearest: ObjectEntry | None
    near_set: tuple[ObjectEntry, ...] = ()
    guaranteed_min_distance: float = 0.0


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------


def overlap(area: Region, descriptor: LocationDescriptor) -> float:
    """The paper's ``Overlap(a, o) = SIZE(a ∩ ld(o)) / SIZE(ld(o))``.

    A zero-accuracy descriptor has a degenerate (zero-area) location
    area; the limit semantics are point membership: overlap is 1 when the
    position lies in the area and 0 otherwise.
    """
    location_area = descriptor.location_area
    disk_area = location_area.area
    if disk_area == 0.0:
        # Zero accuracy, or an accuracy so small that the disk area
        # underflows float64 — point-membership limit semantics.
        return 1.0 if region_contains_point(area, descriptor.pos) else 0.0
    intersection = location_area.intersection_area(area)
    return min(1.0, intersection / disk_area)


def qualifies_for_range(
    area: Region,
    descriptor: LocationDescriptor,
    req_acc: float,
    req_overlap: float,
) -> bool:
    """Range-query membership: accuracy filter plus overlap threshold."""
    if descriptor.acc > req_acc:
        return False
    return overlap(area, descriptor) >= req_overlap


def range_query(
    entries: list[ObjectEntry] | dict[str, LocationDescriptor],
    query: RangeQuery,
) -> list[ObjectEntry]:
    """Evaluate a range query over a candidate set.

    ``objSet = {(o, ld(o)) | Overlap(a, o) >= reqOverlap and
    ld(o).acc <= reqAcc}``, sorted by object id for determinism.
    """
    items = entries.items() if isinstance(entries, dict) else entries
    result = [
        (object_id, descriptor)
        for object_id, descriptor in items
        if qualifies_for_range(query.area, descriptor, query.req_acc, query.req_overlap)
    ]
    result.sort(key=lambda entry: entry[0])
    return result


def qualifying_indexes(
    area: Region,
    xs: Sequence[float],
    ys: Sequence[float],
    accs: Sequence[float],
    req_acc: float,
    req_overlap: float,
) -> list[int]:
    """Batch form of :func:`qualifies_for_range`: candidate ``i`` is the
    disk of radius ``accs[i]`` around ``(xs[i], ys[i])``; returns the
    ascending indexes of the candidates that qualify.

    The accuracy filter and the overlap of every candidate are evaluated
    as arrays.  An estimate decides only outside the guard band around
    ``req_overlap``; inside it and for degenerate (zero-area) disks,
    :func:`qualifies_for_range` — the one definition of membership —
    gives the verdict.
    """

    def scalar(i: int) -> bool:
        descriptor = LocationDescriptor(Point(xs[i], ys[i]), accs[i])
        return qualifies_for_range(area, descriptor, req_acc, req_overlap)

    if not len(xs):
        return []
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    radius = np.asarray(accs, dtype=float)
    bounds = region_bounds(area)
    center = bounds.center
    with np.errstate(all="ignore"):
        areas = circle_polygon_areas(
            np, x, y, radius, area.corners if isinstance(area, Rect) else area.points
        )
        disk = math.pi * radius * radius
        estimate = np.minimum(areas / disk, 1.0)
        far = np.hypot(x - center.x, y - center.y) + math.hypot(bounds.width, bounds.height)
        guard = _OVERLAP_GUARD + 1e-13 * (far / radius) ** 2
        decided = (disk > 0.0) & (np.abs(estimate - req_overlap) > guard)
    accurate = radius <= req_acc
    keep = accurate & decided & (estimate > req_overlap)
    for i in (accurate & ~decided).nonzero()[0].tolist():
        keep[i] = scalar(i)
    return keep.nonzero()[0].tolist()


@lru_cache(maxsize=256)
def overlap_reach(req_overlap: float) -> float:
    """How far outside a half-plane, in radii, a disk's centre can lie
    while ``req_overlap`` of the disk is still inside it.

    The part of a unit disk beyond a line at distance ``t`` from its
    centre is a circular segment of area ``acos t − t·√(1−t²)``; the
    reach is the ``t`` at which that share of ``π`` equals
    ``req_overlap`` — 1 as the threshold tends to 0, 0 from one half
    upward.  Bisected from the safe side: the returned ``t`` is never
    below the exact root.
    """
    if req_overlap >= 0.5:
        return 0.0
    low, high = 0.0, 1.0
    for _ in range(60):
        mid = (low + high) / 2.0
        if (math.acos(mid) - mid * math.sqrt(1.0 - mid * mid)) / math.pi > req_overlap:
            low = mid
        else:
            high = mid
    return high


def effective_margin(query: RangeQuery, max_acc: float = math.inf) -> float:
    """The largest radius a qualifying object's location area can have.

    A qualifying object's position is at most its accuracy away from the
    area (the paper's ``Enlarge`` margin), and three independent bounds
    cap that accuracy:

    * ``reqAcc`` — coarser descriptors are filtered out;
    * the overlap threshold itself: a disk of radius ``a`` can satisfy
      ``SIZE(A ∩ disk) / (π a²) ≥ reqOverlap`` only if
      ``π a² ≤ SIZE(A) / reqOverlap``, so even an *unbounded* ``reqAcc``
      caps the qualifying radius at ``sqrt(SIZE(A) / (π · reqOverlap))``;
    * ``max_acc`` — the caller's promise that no stored object offers a
      coarser accuracy (:attr:`~repro.storage.visitor_db.VisitorDB.
      max_offered_acc`); sound because a radius nobody has cannot
      qualify.

    The margin is the smallest of the three, and is always finite.
    """
    area_size = region_area(query.area)
    overlap_bound = math.sqrt(area_size / (math.pi * query.req_overlap)) if area_size > 0 else 0.0
    return min(query.req_acc, overlap_bound, max_acc)


def candidate_bounds(query: RangeQuery, max_acc: float = math.inf) -> "Rect":
    """The rect a spatial index must scan to find all possible members.

    An object can qualify while its *position* lies outside the queried
    area — its circular location area only needs to overlap it.  The
    rect is the area's bounding box enlarged by
    :func:`effective_margin` × :func:`overlap_reach`, a finite and tight
    refinement of Algorithm 6-5's ``Enlarge(area, reqAcc)``.  The second
    factor is sound because the area (rect or polygon) lies inside each
    of the four half-planes bounding its box, and a disk whose centre is
    ``d`` outside a half-plane has at most that circular segment's share
    inside the area.  A relative and an absolute hair on top make
    rounding — in this margin and in :func:`overlap` itself, which loses
    digits when a small disk sits at large coordinates — over-fetch,
    never miss.
    """
    bounds = region_bounds(query.area)
    margin = effective_margin(query, max_acc) * overlap_reach(query.req_overlap)
    scale = max(map(abs, bounds)) + margin
    return bounds.enlarged(margin + 1e-6 * scale + 1e-9)


def nearest_neighbor(
    entries: list[ObjectEntry] | dict[str, LocationDescriptor],
    query: NearestNeighborQuery,
) -> NearestNeighborResult:
    """Evaluate a nearest-neighbor query over a candidate set.

    Selection follows Section 3.2: among objects whose accuracy satisfies
    ``reqAcc``, pick the minimal ``DISTANCE(ld(o).pos, p)`` (ties broken
    by object id for determinism); this is the object most likely to be
    the true nearest neighbor under the paper's uniform-distribution
    assumption.
    """
    items = entries.items() if isinstance(entries, dict) else entries
    qualifying = [
        (object_id, descriptor)
        for object_id, descriptor in items
        if descriptor.acc <= query.req_acc
    ]
    if not qualifying:
        return NearestNeighborResult(nearest=None)

    def sort_key(entry: ObjectEntry) -> tuple[float, str]:
        return entry[1].pos.distance_to(query.pos), entry[0]

    qualifying.sort(key=sort_key)
    nearest = qualifying[0]
    nearest_distance = nearest[1].pos.distance_to(query.pos)
    ring = nearest_distance + query.near_qual
    near_set = tuple(
        entry
        for entry in qualifying[1:]
        if entry[1].pos.distance_to(query.pos) <= ring
    )
    guaranteed = nearest_distance - query.req_acc
    if guaranteed < 0.0 or guaranteed == float("-inf") or guaranteed != guaranteed:
        guaranteed = 0.0
    return NearestNeighborResult(
        nearest=nearest,
        near_set=near_set,
        guaranteed_min_distance=guaranteed,
    )

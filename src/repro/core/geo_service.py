"""WGS84-facing facade over the location service.

The paper assumes positions "based on geographic coordinate systems,
such as WGS84" (Section 3); the library computes internally in a local
planar meter frame.  :class:`GeoLocationService` closes the gap: a thin
wrapper whose entire public surface speaks latitude/longitude, anchored
by a :class:`~repro.geo.coords.LocalProjection` at the service area's
reference coordinate.

Typical use — a city deployment::

    anchor = GeoCoordinate(48.7758, 9.1829)         # Stuttgart
    geo = GeoLocationService.city(anchor, extent_m=10_000, depth=2)
    taxi = geo.register("taxi-7", GeoCoordinate(48.7761, 9.1840))
    geo.update(taxi, GeoCoordinate(48.7770, 9.1855))
    hits = geo.range_query_around(GeoCoordinate(48.7765, 9.1845), radius_m=500)
"""

from __future__ import annotations

from repro.core.client import NeighborAnswer, RangeAnswer, TrackedObject
from repro.core.hierarchy import Hierarchy
from repro.core.service import LocationService
from repro.geo import GeoCoordinate, LocalProjection, Point, Rect
from repro.model import LocationDescriptor


class GeoLocationService:
    """Latitude/longitude API over a :class:`LocationService`."""

    def __init__(
        self,
        service: LocationService,
        projection: LocalProjection,
    ) -> None:
        self.service = service
        self.projection = projection

    # -- constructors -------------------------------------------------------

    @classmethod
    def city(
        cls,
        anchor: GeoCoordinate,
        extent_m: float = 10_000.0,
        depth: int = 2,
        **service_kwargs,
    ) -> "GeoLocationService":
        """A quad-split deployment centered on ``anchor``.

        The service area is a square of ``extent_m`` meters a side whose
        center maps to the anchor coordinate.
        """
        from repro.core.hierarchy import build_quad_hierarchy

        half = extent_m / 2.0
        hierarchy = build_quad_hierarchy(Rect(-half, -half, half, half), depth=depth)
        return cls(
            LocationService(hierarchy, **service_kwargs), LocalProjection(anchor)
        )

    @classmethod
    def over(
        cls, hierarchy: Hierarchy, anchor: GeoCoordinate, **service_kwargs
    ) -> "GeoLocationService":
        return cls(LocationService(hierarchy, **service_kwargs), LocalProjection(anchor))

    # -- coordinate plumbing ---------------------------------------------------

    def to_local(self, coord: GeoCoordinate) -> Point:
        return self.projection.to_local(coord)

    def to_geo(self, point: Point) -> GeoCoordinate:
        return self.projection.to_geo(point)

    def descriptor_to_geo(
        self, descriptor: LocationDescriptor
    ) -> tuple[GeoCoordinate, float]:
        """A descriptor as (coordinate, accuracy-in-meters)."""
        return self.to_geo(descriptor.pos), descriptor.acc

    # -- Section-3 API in WGS84 ---------------------------------------------------

    def register(
        self,
        object_id: str,
        coord: GeoCoordinate,
        des_acc: float = 25.0,
        min_acc: float = 100.0,
    ) -> TrackedObject:
        return self.service.register(
            object_id, self.to_local(coord), des_acc=des_acc, min_acc=min_acc
        )

    def update(self, obj: TrackedObject, coord: GeoCoordinate):
        return self.service.update(obj, self.to_local(coord))

    def update_many(
        self,
        reports,
        envelope_sub_timeout: float | None = None,
    ) -> dict[str, int]:
        """Batched position reports in WGS84; one tick of a geo fleet.

        ``reports`` yields ``(tracked_object, coordinate)`` pairs; they
        are projected into the local frame and applied through
        :meth:`LocationService.update_many` (direct batched store update
        for in-area moves, one envelope per destination server for leaf
        crossings; pass ``envelope_sub_timeout`` for per-item retry
        against partially crashed subtrees).
        """
        to_local = self.to_local
        return self.service.update_many(
            ((obj, to_local(coord)) for obj, coord in reports),
            envelope_sub_timeout=envelope_sub_timeout,
        )

    def deregister_many(
        self, objs, detailed: bool = False
    ) -> dict[str, bool] | dict[str, str]:
        """Batched deregistration (one envelope per destination server);
        ``detailed=True`` returns per-object NACK statuses instead of
        booleans (see :meth:`LocationService.deregister_many`)."""
        return self.service.deregister_many(objs, detailed=detailed)

    def pos_query(self, object_id: str) -> tuple[GeoCoordinate, float] | None:
        descriptor = self.service.pos_query(object_id)
        if descriptor is None:
            return None
        return self.descriptor_to_geo(descriptor)

    def range_query_around(
        self,
        center: GeoCoordinate,
        radius_m: float,
        req_acc: float = float("inf"),
        req_overlap: float = 0.5,
    ) -> RangeAnswer:
        """All objects in the square of half-width ``radius_m`` around a
        coordinate (rectangular ranges are the hierarchy's native shape)."""
        local = self.to_local(center)
        area = Rect.from_center(local, 2 * radius_m, 2 * radius_m)
        return self.service.range_query(area, req_acc=req_acc, req_overlap=req_overlap)

    def neighbor_query(
        self,
        coord: GeoCoordinate,
        req_acc: float = float("inf"),
        near_qual: float = 0.0,
    ) -> NeighborAnswer:
        return self.service.neighbor_query(
            self.to_local(coord), req_acc=req_acc, near_qual=near_qual
        )

    def deregister(self, obj: TrackedObject) -> bool:
        return self.service.deregister(obj)

"""repro — reproduction of "Architecture of a Large-Scale Location Service".

Leonhardi & Rothermel (ICDCS 2002 / University of Stuttgart TR 2001/01).

Quickstart::

    from repro import LocationService, build_table2_hierarchy, Point, Rect

    svc = LocationService(build_table2_hierarchy())
    taxi = svc.register("taxi-7", Point(100.0, 200.0), des_acc=25.0, min_acc=100.0)
    svc.update(taxi, Point(140.0, 210.0))
    print(svc.pos_query("taxi-7"))
    print(svc.range_query(Rect(0, 0, 500, 500), req_acc=50.0, req_overlap=0.3))
    print(svc.neighbor_query(Point(120.0, 220.0), req_acc=50.0))

Package map:

==================  ====================================================
``repro.core``      the paper's contribution: hierarchical LS, caches
``repro.cluster``   elastic layer: load-aware split/merge + migration
``repro.model``     Section-3 service model and query semantics
``repro.geo``       geometry substrate (exact circle-region overlap)
``repro.spatial``   Point Quadtree, columnar, linear indexes
``repro.storage``   sighting DB, persistent visitor DB, soft state
``repro.runtime``   simulated network + asyncio runtimes
``repro.sim``       discrete-event engine, mobility, workloads
``repro.baselines`` centralized and home-server comparison systems
``repro.protocols`` update-reporting policies ([15])
==================  ====================================================
"""

from repro.core import (
    CacheConfig,
    Hierarchy,
    LocationClient,
    LocationServer,
    LocationService,
    TrackedObject,
    build_fig6_hierarchy,
    build_grid_hierarchy,
    build_quad_hierarchy,
    build_table2_hierarchy,
)
from repro.errors import LocationServiceError
from repro.geo import Circle, GeoCoordinate, LocalProjection, Point, Polygon, Rect
from repro.model import (
    AccuracyModel,
    LocationDescriptor,
    NearestNeighborQuery,
    RangeQuery,
    SightingRecord,
)

__version__ = "1.0.0"

__all__ = [
    "AccuracyModel",
    "CacheConfig",
    "Circle",
    "GeoCoordinate",
    "Hierarchy",
    "LocalProjection",
    "LocationClient",
    "LocationDescriptor",
    "LocationServer",
    "LocationService",
    "LocationServiceError",
    "NearestNeighborQuery",
    "Point",
    "Polygon",
    "RangeQuery",
    "Rect",
    "SightingRecord",
    "TrackedObject",
    "build_fig6_hierarchy",
    "build_grid_hierarchy",
    "build_quad_hierarchy",
    "build_table2_hierarchy",
    "__version__",
]

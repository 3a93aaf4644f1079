"""Main-memory spatial indexes for the sighting DB (paper Section 5).

* :class:`PointQuadtree` — the paper's choice ([17], used in Section 7.1),
* :class:`LinearScanIndex` — brute-force correctness oracle,
* :class:`ColumnarIndex` — numpy contiguous-column engine of the
  columnar storage backend, every service leaf's default store.

All share the :class:`SpatialIndex` interface, including the batch entry
points ``update_many`` / ``query_rect_many`` and per-index in-place move
fast paths sized for the paper's update-dominant workload — see the
:mod:`repro.spatial.base` docstring for the batch API contract and the
fast-path invariants each implementation maintains.
"""

from repro.spatial.base import NeighborHit, SpatialIndex
from repro.spatial.columnar import ColumnarIndex, SlotHandle, StaleHandleError
from repro.spatial.linear import LinearScanIndex
from repro.spatial.quadtree import PointQuadtree

#: Registry used by configuration files and benches to pick an index.
INDEX_FACTORIES = {
    "quadtree": PointQuadtree,
    "linear": LinearScanIndex,
    "columnar": ColumnarIndex,
}


def make_index(kind: str = "quadtree", **kwargs) -> SpatialIndex:
    """Instantiate a spatial index by name.

    Args:
        kind: one of ``quadtree`` (default, the paper's choice),
            ``linear`` (the brute-force oracle) or ``columnar`` (the
            array-backed million-object hot path,
            :mod:`repro.spatial.columnar`).
        **kwargs: forwarded to the index constructor.
    """
    try:
        factory = INDEX_FACTORIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown index kind {kind!r}; choose from {sorted(INDEX_FACTORIES)}"
        ) from None
    return factory(**kwargs)


__all__ = [
    "ColumnarIndex",
    "INDEX_FACTORIES",
    "LinearScanIndex",
    "NeighborHit",
    "PointQuadtree",
    "SlotHandle",
    "SpatialIndex",
    "StaleHandleError",
    "make_index",
]

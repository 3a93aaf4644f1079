"""The service lanes are real: each one puts every leaf, and every store a
leaf builds for split and merge children, on the store it names."""

from repro.core import LocationService, build_table2_hierarchy

#: lane id -> (store backend, sighting index class) of every leaf store.
EXPECTED = {
    "quadtree": ("objects", "PointQuadtree"),
    "linear": ("objects", "LinearScanIndex"),
    "columnar-index": ("objects", "ColumnarIndex"),
    "columnar": ("columnar", "ColumnarIndex"),
}


def _kind(store):
    return store.backend, type(store.sightings._index).__name__


def test_every_leaf_store_is_the_lane_store(lane, request):
    svc = LocationService(build_table2_hierarchy(), **lane)
    leaves = [server for server in svc.servers.values() if server.is_leaf]
    kinds = {_kind(server.store) for server in leaves}
    kinds |= {_kind(server.make_store()) for server in leaves}
    assert kinds == {EXPECTED[request.node.callspec.id]}

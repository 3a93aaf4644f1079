"""A leaf's share of one nearest-neighbor fan-out round.

``LocalDataStore.nn_candidates`` answers an NN probe with the query's own
answer over the visitors inside the probe's dispatch rect — the nearest
qualifying one plus its inclusive ``nearQual`` ring — instead of every
qualifying candidate.  These tests pin what the share holds, and that
the search behind it (``SightingDB.nearest_neighbors``) never asks the
index past the dispatch's farthest corner and, when one k-nearest probe
does not settle the answer, scans the dispatch once.
"""

import pytest

from repro.geo import Point, Rect
from repro.model import NearestNeighborQuery, SightingRecord
from repro.spatial import ColumnarIndex, PointQuadtree
from repro.storage import LocalDataStore

BACKENDS = ("objects", "columnar")


def spying(index_cls):
    """``index_cls`` recording every ``nearest`` call as
    ``(k, max_distance, hit count)`` and every ``query_rect`` call as
    ``("rect", rect)``."""

    class Spy(index_cls):
        def __init__(self) -> None:
            super().__init__()
            self.calls = []

        def nearest(self, point, k=1, max_distance=float("inf")):
            hits = super().nearest(point, k=k, max_distance=max_distance)
            self.calls.append((k, max_distance, len(hits)))
            return hits

        def query_rect(self, rect):
            self.calls.append(("rect", rect))
            return super().query_rect(rect)

    return Spy()


def make_store(backend, index=None):
    return LocalDataStore(index=index, backend=backend)


def place(store, oid, x, y, acc=20.0):
    store.register(SightingRecord(oid, 0.0, Point(x, y), 5.0), 25.0, 100.0, "test")
    store.visitors.set_offered_acc(oid, acc)


def ids(entries):
    return sorted(oid for oid, _ in entries)


WIDE = Rect(-1000, -1000, 1000, 1000)


@pytest.mark.parametrize("backend", BACKENDS)
class TestShare:
    def test_nearest_plus_inclusive_ring(self, backend):
        store = make_store(backend)
        for oid, x in (("n", 10.0), ("ring", 15.0), ("edge", 16.0), ("out", 16.5)):
            place(store, oid, x, 0.0)
        query = NearestNeighborQuery(Point(0, 0), req_acc=50.0, near_qual=6.0)
        share = store.nn_candidates(query, WIDE)
        assert share[0][0] == "n"
        assert ids(share) == ["edge", "n", "ring"]  # 16 = 10 + 6 is inside

    def test_distance_ties_are_kept(self, backend):
        store = make_store(backend)
        place(store, "b", 0.0, 10.0)
        place(store, "a", 10.0, 0.0)
        place(store, "dup", 10.0, 0.0)
        place(store, "far", 30.0, 0.0)
        query = NearestNeighborQuery(Point(0, 0), req_acc=50.0, near_qual=0.0)
        share = store.nn_candidates(query, WIDE)
        assert share[0][0] == "a"  # ties broken by id, as the entry server does
        assert ids(share) == ["a", "b", "dup"]

    def test_accuracy_filter_skips_a_nearer_coarse_object(self, backend):
        store = make_store(backend)
        place(store, "coarse", 1.0, 0.0, acc=90.0)
        place(store, "fine", 40.0, 0.0, acc=15.0)
        query = NearestNeighborQuery(Point(0, 0), req_acc=30.0, near_qual=0.0)
        assert ids(store.nn_candidates(query, WIDE)) == ["fine"]

    def test_empty_when_nothing_qualifies(self, backend):
        store = make_store(backend)
        for i in range(40):
            place(store, f"o{i}", float(i), float(i), acc=60.0)
        query = NearestNeighborQuery(Point(0, 0), req_acc=10.0)
        assert store.nn_candidates(query, WIDE) == []
        assert store.nn_candidates_many([query], [WIDE]) == [[]]

    def test_only_objects_inside_the_dispatch(self, backend):
        # The share is the answer over the leaf's candidates in the
        # dispatch: a nearer object outside it is not a candidate.
        store = make_store(backend)
        place(store, "outside", -5.0, 0.0)
        place(store, "inside", 20.0, 0.0)
        place(store, "corner", 100.0, 100.0)
        query = NearestNeighborQuery(Point(0, 0), req_acc=50.0, near_qual=0.0)
        dispatch = Rect(0, -100, 100, 100)
        assert ids(store.nn_candidates(query, dispatch)) == ["inside"]
        assert store.nn_candidates_many([query], [dispatch]) == [
            store.nn_candidates(query, dispatch)
        ]

    def test_many_matches_one_by_one(self, backend):
        store = make_store(backend)
        for i in range(60):
            place(store, f"o{i}", (i * 37) % 200.0, (i * 91) % 200.0, acc=(15.0, 60.0)[i % 2])
        queries = [
            NearestNeighborQuery(Point(x, y), req_acc=req_acc, near_qual=near_qual)
            for x, y in ((0, 0), (100, 100), (199, 5))
            for req_acc in (30.0, float("inf"))
            for near_qual in (0.0, 25.0)
        ]
        dispatches = [Rect.from_center(q.pos, 120, 120) for q in queries]
        assert store.nn_candidates_many(queries, dispatches) == [
            store.nn_candidates(q, d) for q, d in zip(queries, dispatches)
        ]


SPIES = [(PointQuadtree, "objects"), (ColumnarIndex, "columnar")]


def grid_store(index_cls, backend):
    """400 objects on a 2 m grid, none offering better than 60 m."""
    index = spying(index_cls)
    store = make_store(backend, index=index)
    for i in range(400):
        place(store, f"o{i}", float(i % 20) * 2.0, float(i // 20) * 2.0, acc=60.0)
    return index, store


@pytest.mark.parametrize("index_cls, backend", SPIES)
def test_probe_stops_at_the_dispatch_reach(index_cls, backend):
    """Nothing qualifies in a sparse dispatch: one probe, asked no farther
    than the dispatch's farthest corner, sees every candidate and ends the
    search without a scan."""
    index, store = grid_store(index_cls, backend)
    query = NearestNeighborQuery(Point(5, 5), req_acc=10.0)
    dispatch = Rect(3, 3, 7, 7)
    reach = dispatch.max_distance_to_point(query.pos)
    assert store.nn_candidates(query, dispatch) == []
    assert index.calls == [(16, reach, 4)]


@pytest.mark.parametrize("index_cls, backend", SPIES)
def test_dense_dispatch_falls_back_to_one_scan(index_cls, backend):
    """Nothing qualifies in a crowded dispatch: after one full probe comes
    one scan of the dispatch, not ``k`` grown to the crowd (a best-first
    search costs more per hit than a scan)."""
    index, store = grid_store(index_cls, backend)
    query = NearestNeighborQuery(Point(19, 19), req_acc=10.0)
    dispatch = Rect(0, 0, 38, 38)
    reach = dispatch.max_distance_to_point(query.pos)
    assert store.nn_candidates(query, dispatch) == []
    assert index.calls == [(16, reach, 16), ("rect", dispatch)]
    # Most objects lie nearer the probe than "fine": the scan finds it, and
    # only inside the dispatch ("outside" is nearer, but not a candidate).
    place(store, "fine", 36.0, 37.0, acc=5.0)
    place(store, "outside", -0.5, 19.0, acc=5.0)
    assert ids(store.nn_candidates(query, dispatch)) == ["fine"]


def test_single_server_query_is_unbounded():
    """``neighborQuery`` against one store (no dispatch) still finds a far
    qualifying object past many disqualified near ones."""
    store = make_store("objects")
    for i in range(100):
        place(store, f"near{i}", float(i), 0.0, acc=60.0)
    place(store, "far", 5000.0, 0.0, acc=15.0)
    result = store.nearest_neighbor_query(NearestNeighborQuery(Point(0, 0), req_acc=30.0))
    assert result.nearest[0] == "far"

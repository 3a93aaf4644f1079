"""Brute force: the store's range answers are the model's over every record.

`LocalDataStore.range_query` and `range_query_many` narrow the scan to
`candidate_bounds` (tightened by the overlap threshold and by the
store's coarsest offered accuracy) and decide membership as arrays.
Neither may change an answer: for any population with mixed offered
accuracies, both must equal `model.range_query` run over *all* records —
no index, no bounds — on either backend.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import Point, Polygon, Rect
from repro.model import RangeQuery, SightingRecord, range_query
from repro.storage import BACKENDS, LocalDataStore

SIDE = 400.0
OFFERED = (15.0, 25.0, 60.0, 90.0)


def populate(store: LocalDataStore, objects) -> None:
    for i, (x, y, acc) in enumerate(objects):
        store.register(
            SightingRecord(f"o{i:04d}", 0.0, Point(x, y), 5.0),
            des_acc=acc,
            min_acc=1000.0,
            registrar="brute",
        )


def brute_force(store: LocalDataStore, query: RangeQuery):
    """`model.range_query` over every record: no index, no bounds."""
    return range_query(
        [(oid, store.position_query(oid)) for oid in store.sightings.object_ids()],
        query,
    )


def assert_store_matches_brute_force(store, queries):
    expected = [brute_force(store, q) for q in queries]
    assert store.range_query_many(queries) == expected
    assert [store.range_query(q) for q in queries] == expected


coord = st.floats(min_value=0.0, max_value=SIDE, allow_nan=False)
objects_lists = st.lists(
    st.tuples(coord, coord, st.sampled_from(OFFERED)), min_size=1, max_size=40
)
rect_queries = st.builds(
    lambda x, y, w, h, req_acc, req_overlap: RangeQuery(
        Rect(x, y, x + w, y + h), req_acc=req_acc, req_overlap=req_overlap
    ),
    coord,
    coord,
    st.floats(min_value=1.0, max_value=200.0),
    st.floats(min_value=1.0, max_value=200.0),
    st.sampled_from([10.0, 30.0, 70.0, math.inf]),
    st.sampled_from([1e-9, 0.05, 0.3, 0.5, 0.9, 1.0]),
)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(objects=objects_lists, queries=st.lists(rect_queries, min_size=1, max_size=5))
def test_store_range_equals_brute_force(backend, objects, queries):
    store = LocalDataStore(backend=backend)
    populate(store, objects)
    assert_store_matches_brute_force(store, queries)


@pytest.mark.parametrize("backend", BACKENDS)
def test_dense_population_rects_and_polygons(backend):
    rng = random.Random(21)
    store = LocalDataStore(backend=backend)
    populate(
        store,
        [(rng.uniform(0, SIDE), rng.uniform(0, SIDE), rng.choice(OFFERED)) for _ in range(600)],
    )
    queries = []
    for _ in range(40):
        x, y = rng.uniform(0, SIDE - 60), rng.uniform(0, SIDE - 60)
        req_acc = rng.choice([10.0, 30.0, 70.0, math.inf])
        req_overlap = rng.choice([1e-9, 0.1, 0.3, 0.5, 0.8, 1.0])
        if rng.random() < 0.5:
            area = Rect(x, y, x + rng.uniform(5, 60), y + rng.uniform(5, 60))
        else:  # an L: non-convex
            area = Polygon(
                [Point(x, y), Point(x + 60, y), Point(x + 60, y + 20),
                 Point(x + 20, y + 20), Point(x + 20, y + 60), Point(x, y + 60)]
            )
        queries.append(RangeQuery(area, req_acc=req_acc, req_overlap=req_overlap))
    assert any(brute_force(store, q) for q in queries)
    assert_store_matches_brute_force(store, queries)


@pytest.mark.parametrize("backend", BACKENDS)
def test_stale_high_water_mark_is_loose_never_wrong(backend):
    """A 500 m object came and went: the scan bound stays wide (the mark
    is not lowered on removal) and every answer is still brute force's;
    compaction re-tightens it without changing one."""
    rng = random.Random(5)
    store = LocalDataStore(backend=backend)
    populate(store, [(rng.uniform(0, SIDE), rng.uniform(0, SIDE), 25.0) for _ in range(200)])
    store.register(SightingRecord("whale", 0.0, Point(200, 200), 5.0), 500.0, 1000.0, "brute")
    queries = [
        RangeQuery(Rect(x, x, x + 50, x + 50), req_acc=math.inf, req_overlap=req_overlap)
        for x in (0.0, 120.0, 300.0)
        for req_overlap in (1e-9, 0.01, 0.3)
    ]
    assert store.visitors.max_offered_acc == 500.0
    assert ("whale", store.position_query("whale")) in store.range_query(queries[3])
    assert_store_matches_brute_force(store, queries)
    store.deregister("whale")
    assert store.visitors.max_offered_acc == 500.0
    assert_store_matches_brute_force(store, queries)
    store.visitors.compact()
    assert store.visitors.max_offered_acc == 25.0
    assert_store_matches_brute_force(store, queries)


@pytest.mark.parametrize("backend", BACKENDS)
def test_renegotiated_accuracy_widens_the_scan(backend):
    """`changeAcc` to a coarser value must raise the mark: the object's
    position lies outside what the old bound would have scanned."""
    store = LocalDataStore(backend=backend)
    store.register(SightingRecord("a", 0.0, Point(130.0, 50.0), 5.0), 20.0, 1000.0, "brute")
    query = RangeQuery(Rect(0, 0, 100, 100), req_acc=math.inf, req_overlap=0.05)
    assert store.range_query(query) == []
    store.change_accuracy("a", 80.0, 1000.0)
    assert [oid for oid, _ in store.range_query(query)] == ["a"]
    assert store.range_query(query) == brute_force(store, query)

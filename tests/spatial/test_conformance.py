"""Conformance suite run against every spatial-index implementation."""

import random

import pytest

from repro.geo import Point, Rect
from repro.spatial import ColumnarIndex, LinearScanIndex, PointQuadtree

ALL_INDEXES = [
    pytest.param(lambda: PointQuadtree(), id="quadtree"),
    pytest.param(lambda: LinearScanIndex(), id="linear"),
    pytest.param(lambda: ColumnarIndex(capacity=8), id="columnar"),
]


@pytest.fixture(params=ALL_INDEXES)
def index(request):
    return request.param()


def fill(index, n=100, seed=7, extent=1000.0):
    rng = random.Random(seed)
    entries = {}
    for i in range(n):
        p = Point(rng.uniform(0, extent), rng.uniform(0, extent))
        index.insert(f"obj-{i}", p)
        entries[f"obj-{i}"] = p
    return entries


class TestBasicOperations:
    def test_starts_empty(self, index):
        assert len(index) == 0
        assert list(index.items()) == []

    def test_insert_and_get(self, index):
        index.insert("a", Point(1, 2))
        assert index.get("a") == Point(1, 2)
        assert len(index) == 1
        assert "a" in index

    def test_get_missing_none(self, index):
        assert index.get("missing") is None
        assert "missing" not in index

    def test_duplicate_insert_raises(self, index):
        index.insert("a", Point(0, 0))
        with pytest.raises(KeyError):
            index.insert("a", Point(1, 1))

    def test_remove_returns_point(self, index):
        index.insert("a", Point(3, 4))
        assert index.remove("a") == Point(3, 4)
        assert len(index) == 0
        assert index.get("a") is None

    def test_remove_missing_raises(self, index):
        with pytest.raises(KeyError):
            index.remove("ghost")

    def test_update_moves_entry(self, index):
        index.insert("a", Point(0, 0))
        index.update("a", Point(50, 50))
        assert index.get("a") == Point(50, 50)
        assert len(index) == 1

    def test_update_missing_raises(self, index):
        with pytest.raises(KeyError):
            index.update("ghost", Point(0, 0))

    def test_upsert(self, index):
        index.upsert("a", Point(1, 1))
        index.upsert("a", Point(2, 2))
        assert index.get("a") == Point(2, 2)
        assert len(index) == 1

    def test_items_round_trip(self, index):
        entries = fill(index, n=25)
        assert dict(index.items()) == entries

    def test_bulk_load(self, index):
        entries = [(f"o{i}", Point(i, i)) for i in range(50)]
        index.bulk_load(entries)
        assert len(index) == 50
        assert index.get("o25") == Point(25, 25)


class TestRectQueries:
    def test_empty_index(self, index):
        assert list(index.query_rect(Rect(0, 0, 100, 100))) == []

    def test_all_inside(self, index):
        entries = fill(index, n=40)
        hits = dict(index.query_rect(Rect(-10, -10, 1010, 1010)))
        assert hits == entries

    def test_none_inside(self, index):
        fill(index, n=40)
        assert list(index.query_rect(Rect(5000, 5000, 6000, 6000))) == []

    def test_exact_membership(self, index):
        entries = fill(index, n=200, seed=3)
        rect = Rect(200, 300, 600, 700)
        expected = {oid for oid, p in entries.items() if rect.contains_point(p)}
        got = {oid for oid, _ in index.query_rect(rect)}
        assert got == expected
        assert expected  # the workload actually exercises the rect

    def test_boundary_points_included(self, index):
        index.insert("edge", Point(10, 5))
        index.insert("corner", Point(10, 10))
        index.insert("out", Point(10.5, 5))
        rect = Rect(0, 0, 10, 10)
        got = {oid for oid, _ in index.query_rect(rect)}
        assert got == {"edge", "corner"}

    def test_query_after_updates(self, index):
        fill(index, n=100, seed=11)
        rng = random.Random(99)
        for i in range(100):
            index.update(f"obj-{i}", Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
        expected = {oid for oid, p in index.items() if Rect(0, 0, 500, 500).contains_point(p)}
        got = {oid for oid, _ in index.query_rect(Rect(0, 0, 500, 500))}
        assert got == expected

    def test_query_after_removals(self, index):
        entries = fill(index, n=100, seed=5)
        for i in range(0, 100, 2):
            index.remove(f"obj-{i}")
        rect = Rect(0, 0, 1000, 1000)
        got = {oid for oid, _ in index.query_rect(rect)}
        assert got == {f"obj-{i}" for i in range(1, 100, 2)}
        assert all(oid in entries for oid in got)


class TestNearest:
    def test_empty(self, index):
        assert index.nearest(Point(0, 0)) == []

    def test_k_zero(self, index):
        index.insert("a", Point(0, 0))
        assert index.nearest(Point(0, 0), k=0) == []

    def test_single_nearest(self, index):
        index.insert("near", Point(1, 0))
        index.insert("far", Point(10, 0))
        hits = index.nearest(Point(0, 0), k=1)
        assert [h.object_id for h in hits] == ["near"]
        assert hits[0].distance == pytest.approx(1.0)

    def test_k_nearest_ordering(self, index):
        for i, x in enumerate([5, 1, 9, 3, 7]):
            index.insert(f"o{i}", Point(x, 0))
        hits = index.nearest(Point(0, 0), k=3)
        assert [h.point.x for h in hits] == [1, 3, 5]

    def test_k_larger_than_population(self, index):
        index.insert("a", Point(0, 0))
        index.insert("b", Point(1, 1))
        assert len(index.nearest(Point(0, 0), k=10)) == 2

    def test_max_distance_filters(self, index):
        index.insert("near", Point(1, 0))
        index.insert("far", Point(100, 0))
        hits = index.nearest(Point(0, 0), k=5, max_distance=50.0)
        assert [h.object_id for h in hits] == ["near"]

    def test_matches_oracle(self, index):
        entries = fill(index, n=300, seed=13)
        oracle = LinearScanIndex()
        for oid, p in entries.items():
            oracle.insert(oid, p)
        probe = Point(400, 400)
        got = index.nearest(probe, k=10)
        expected = oracle.nearest(probe, k=10)
        assert [h.object_id for h in got] == [h.object_id for h in expected]

    def test_large_k_orders_by_distance_then_id(self, index):
        # Three ids share every point, so each distance is a three-way tie.
        points = {f"{tag}{i}": Point(i % 8, i // 8) for i in range(60) for tag in "cab"}
        for oid, p in points.items():
            index.insert(oid, p)
        probe = Point(3.2, 2.9)
        hits = index.nearest(probe, k=150)
        expected = sorted((probe.distance_to(p), oid) for oid, p in points.items())[:150]
        assert [h.object_id for h in hits] == [oid for _, oid in expected]
        assert [h.distance for h in hits] == pytest.approx([d for d, _ in expected])

    def test_probe_outside_extent(self, index):
        fill(index, n=50, seed=17)
        hits = index.nearest(Point(-5000, -5000), k=1)
        assert len(hits) == 1


class TestStress:
    def test_mixed_workload_consistency(self, index):
        """Random interleaving of insert/update/remove stays consistent."""
        rng = random.Random(42)
        shadow = {}
        next_id = 0
        for _ in range(600):
            op = rng.random()
            if op < 0.4 or not shadow:
                oid = f"s{next_id}"
                next_id += 1
                p = Point(rng.uniform(0, 500), rng.uniform(0, 500))
                index.insert(oid, p)
                shadow[oid] = p
            elif op < 0.8:
                oid = rng.choice(list(shadow))
                p = Point(rng.uniform(0, 500), rng.uniform(0, 500))
                index.update(oid, p)
                shadow[oid] = p
            else:
                oid = rng.choice(list(shadow))
                index.remove(oid)
                del shadow[oid]
        assert dict(index.items()) == shadow
        rect = Rect(100, 100, 400, 400)
        expected = {oid for oid, p in shadow.items() if rect.contains_point(p)}
        assert {oid for oid, _ in index.query_rect(rect)} == expected

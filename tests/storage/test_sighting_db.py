"""Tests for the main-memory sighting database."""

import pytest

from repro.geo import Point, Rect
from repro.model import NearestNeighborQuery, RangeQuery, SightingRecord
from repro.spatial import ColumnarIndex, LinearScanIndex
from repro.storage import SightingDB


def sighting(oid, x, y, t=0.0, acc=5.0):
    return SightingRecord(oid, t, Point(x, y), acc)


UNIFORM_ACC = lambda oid: 10.0


class TestCrud:
    def test_insert_get(self):
        db = SightingDB()
        db.insert(sighting("a", 1, 2))
        assert db.get("a").pos == Point(1, 2)
        assert "a" in db
        assert len(db) == 1

    def test_duplicate_insert_raises(self):
        db = SightingDB()
        db.insert(sighting("a", 1, 2))
        with pytest.raises(KeyError):
            db.insert(sighting("a", 3, 4))

    def test_update_moves(self):
        db = SightingDB()
        db.insert(sighting("a", 1, 2))
        db.update(sighting("a", 50, 60, t=1.0))
        assert db.get("a").pos == Point(50, 60)
        assert len(db) == 1

    def test_update_unknown_raises(self):
        with pytest.raises(KeyError):
            SightingDB().update(sighting("ghost", 0, 0))

    def test_upsert(self):
        db = SightingDB()
        db.upsert(sighting("a", 1, 1))
        db.upsert(sighting("a", 2, 2))
        assert db.get("a").pos == Point(2, 2)

    def test_remove(self):
        db = SightingDB()
        db.insert(sighting("a", 1, 2))
        removed = db.remove("a")
        assert removed.object_id == "a"
        assert len(db) == 0

    def test_custom_index(self):
        db = SightingDB(index=LinearScanIndex())
        db.insert(sighting("a", 5, 5))
        # acc 10 around (5,5) vs the 10x10 rect: overlap ≈ 100/314 ≈ 0.3.
        result = db.objects_in_area(
            RangeQuery(Rect(0, 0, 10, 10), req_acc=50, req_overlap=0.2), UNIFORM_ACC
        )
        assert [oid for oid, _ in result] == ["a"]


class TestQueries:
    def setup_method(self):
        self.db = SightingDB()
        # A 3x3 grid of objects, 100 m apart.
        for row in range(3):
            for col in range(3):
                self.db.insert(sighting(f"o{row}{col}", col * 100.0, row * 100.0))

    def test_objects_in_area(self):
        result = self.db.objects_in_area(
            RangeQuery(Rect(-10, -10, 110, 110), req_acc=50, req_overlap=0.5),
            UNIFORM_ACC,
        )
        assert {oid for oid, _ in result} == {"o00", "o01", "o10", "o11"}

    def test_objects_in_area_uses_offered_acc(self):
        # The overlap is computed with the *offered* accuracy.  With a
        # tight accuracy o00 overlaps the area fully and qualifies; with a
        # coarse 500 m accuracy its location area dwarfs the queried area
        # and the 0.5 overlap threshold rejects it.
        area = RangeQuery(Rect(-10, -10, 50, 50), req_acc=1000, req_overlap=0.5)
        tight = self.db.objects_in_area(area, lambda oid: 10.0)
        assert "o00" in {oid for oid, _ in tight}
        coarse = self.db.objects_in_area(area, lambda oid: 500.0)
        assert coarse == []

    def test_objects_in_area_unbounded_acc_scans_all(self):
        result = self.db.objects_in_area(
            RangeQuery(Rect(-1000, -1000, 1000, 1000), req_overlap=0.5), UNIFORM_ACC
        )
        assert len(result) == 9

    def test_descriptor_carries_offered_acc(self):
        acc_of = lambda oid: 42.0
        result = self.db.objects_in_area(
            RangeQuery(Rect(-10, -10, 110, 110), req_acc=50, req_overlap=0.5), acc_of
        )
        assert all(descriptor.acc == 42.0 for _, descriptor in result)

    def test_nearest_neighbors(self):
        result = self.db.nearest_neighbors(
            NearestNeighborQuery(Point(10, 10), req_acc=50.0), UNIFORM_ACC
        )
        assert result.nearest[0] == "o00"

    def test_nearest_neighbors_empty_db(self):
        empty = SightingDB()
        result = empty.nearest_neighbors(
            NearestNeighborQuery(Point(0, 0)), UNIFORM_ACC
        )
        assert result.nearest is None

    def test_nearest_neighbors_accuracy_filter_forces_expansion(self):
        # The 4 objects closest to the probe have disqualifying accuracy;
        # the search must look beyond its initial k to find o22.
        acc_of = lambda oid: 999.0 if oid != "o22" else 10.0
        result = self.db.nearest_neighbors(
            NearestNeighborQuery(Point(0, 0), req_acc=50.0), acc_of, probe_k=2
        )
        assert result.nearest[0] == "o22"

    def test_near_set_ring(self):
        result = self.db.nearest_neighbors(
            NearestNeighborQuery(Point(10, 10), req_acc=50.0, near_qual=200.0),
            UNIFORM_ACC,
            probe_k=2,
        )
        # Ring = dist(o00) + 200 ≈ 214.1 m from (10,10).  Every grid object
        # is within the ring except o22 at (200,200), distance ≈ 268.7.
        near_ids = {oid for oid, _ in result.near_set}
        assert near_ids == {"o01", "o10", "o11", "o02", "o20", "o12", "o21"}

    def test_matches_linear_index(self):
        linear = SightingDB(index=LinearScanIndex())
        for record in self.db.records():
            linear.insert(record)
        query = RangeQuery(Rect(50, 50, 250, 250), req_acc=50, req_overlap=0.3)
        assert self.db.objects_in_area(query, UNIFORM_ACC) == linear.objects_in_area(
            query, UNIFORM_ACC
        )


class TestSoftState:
    def test_expiry_removes_records(self):
        db = SightingDB(default_ttl=60.0)
        db.insert(sighting("a", 0, 0), now=0.0)
        db.insert(sighting("b", 1, 1), now=30.0)
        expired = db.expire_due(60.0)
        assert expired == ["a"]
        assert "a" not in db
        assert "b" in db

    def test_removed_record_leaves_the_expiry_schedule(self):
        db = SightingDB(default_ttl=60.0)
        db.insert(sighting("a", 0, 0), now=10.0)
        db.insert(sighting("b", 1, 1), now=0.0)
        db.remove("b")
        assert db.expire_due(69.0) == []
        assert db.expire_due(70.0) == ["a"]

    def test_update_renews_ttl(self):
        db = SightingDB(default_ttl=60.0)
        db.insert(sighting("a", 0, 0), now=0.0)
        db.update(sighting("a", 1, 1, t=50.0), now=50.0)
        assert db.expire_due(60.0) == []
        assert db.expire_due(110.0) == ["a"]

    def test_explicit_ttl(self):
        db = SightingDB(default_ttl=60.0)
        db.insert(sighting("a", 0, 0), now=0.0, ttl=5.0)
        assert db.expire_due(5.0) == ["a"]

    def test_expired_objects_leave_spatial_index(self):
        db = SightingDB(default_ttl=10.0)
        db.insert(sighting("a", 5, 5), now=0.0)
        db.expire_due(100.0)
        result = db.objects_in_area(
            RangeQuery(Rect(0, 0, 10, 10), req_acc=50, req_overlap=0.1), UNIFORM_ACC
        )
        assert result == []

    def test_clear_wipes_everything(self):
        db = SightingDB()
        for i in range(10):
            db.insert(sighting(f"o{i}", i, i))
        db.clear()
        assert len(db) == 0
        assert db.expire_due(1e9) == []
        assert (
            db.objects_in_area(
                RangeQuery(Rect(-100, -100, 100, 100), req_acc=50, req_overlap=0.1),
                UNIFORM_ACC,
            )
            == []
        )


class TestBatchUpdates:
    def _populated(self, n=20, index=None):
        db = SightingDB(index=index)
        for i in range(n):
            db.insert(sighting(f"o{i}", i * 10.0, i * 10.0), now=0.0)
        return db

    def test_update_many_moves_all(self):
        db = self._populated()
        db.update_many([sighting(f"o{i}", i * 10.0 + 1, i * 10.0 + 1, t=5.0) for i in range(20)], now=5.0)
        assert db.get("o3").pos == Point(31, 31)
        hits = {oid for oid, _ in db.positions_in_rects([Rect(0, 0, 200, 200)])[0]}
        assert hits == {f"o{i}" for i in range(20)}

    def test_update_many_renews_expiry(self):
        db = SightingDB(default_ttl=10.0)
        db.insert(sighting("a", 1, 1), now=0.0)
        db.update_many([sighting("a", 2, 2, t=8.0)], now=8.0)
        assert db.expire_due(now=12.0) == []  # renewed to 18.0
        assert db.expire_due(now=18.5) == ["a"]

    def test_update_many_unknown_id_has_no_side_effects(self):
        db = self._populated(3)
        with pytest.raises(KeyError):
            db.update_many([sighting("o0", 500, 500), sighting("ghost", 1, 1)])
        # Validation happens before anything lands.
        assert db.get("o0").pos == Point(0, 0)

    def test_update_many_on_linear_index(self):
        db = self._populated(10, index=LinearScanIndex())
        db.update_many([sighting(f"o{i}", 500.0 + i, 500.0 + i) for i in range(10)])
        hits = {oid for oid, _ in db.positions_in_rects([Rect(499, 499, 510, 510)])[0]}
        assert hits == {f"o{i}" for i in range(10)}

    def test_upsert_many_mixes_inserts_and_updates(self):
        db = self._populated(5)
        batch = [sighting("o1", 99, 99)] + [sighting(f"new{i}", i, i) for i in range(3)]
        db.upsert_many(batch, now=1.0)
        assert len(db) == 8
        assert db.get("o1").pos == Point(99, 99)
        assert db.get("new2").pos == Point(2, 2)

    def test_upsert_many_repeated_new_id_last_wins(self):
        db = SightingDB()
        db.upsert_many([sighting("x", 1, 1), sighting("x", 2, 2)])
        assert len(db) == 1
        assert db.get("x").pos == Point(2, 2)


class TestCompaction:
    def test_compact_index_keeps_answers_and_later_updates(self):
        db = SightingDB(index=ColumnarIndex(capacity=8))
        for i in range(40):
            db.insert(sighting(f"o{i}", float(i), float(i % 7)))
        for i in range(40):
            if i % 4:
                db.remove(f"o{i}")
        window = [Rect(0, 0, 40, 7), Rect(10, 0, 30, 3)]
        before = [sorted(hits) for hits in db.positions_in_rects(window)]
        db.compact_index()
        assert [sorted(hits) for hits in db.positions_in_rects(window)] == before
        db.update(sighting("o8", 100.0, 100.0, t=1.0))
        hits = db.positions_in_rects([Rect(99, 99, 101, 101)])[0]
        assert hits == [("o8", Point(100.0, 100.0))]
        assert len(db) == 10

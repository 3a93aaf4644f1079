"""ColumnarSightingDB: the SightingDB contract over columnar storage.

The class stores every sighting as five float64 column entries (x, y,
t, acc, deadline) behind a :class:`~repro.spatial.ColumnarIndex`
instead of one ``SightingRecord`` per object, and replaces the expiry
heap with a deadline column swept vectorized.  These tests pin the
record round-trip, the soft-state semantics, the vectorized fast lane
and the handle-staleness contract.
"""

import pytest

from repro.errors import StorageError
from repro.geo import Point, Rect
from repro.model import NearestNeighborQuery, SightingRecord
from repro.spatial import ColumnarIndex, StaleHandleError
from repro.storage import ColumnarSightingDB, SightingDB


def sighting(oid, x, y, t=0.0, acc=5.0):
    return SightingRecord(oid, t, Point(x, y), acc)


@pytest.fixture
def db():
    return ColumnarSightingDB(index=ColumnarIndex(capacity=4), default_ttl=100.0)


class TestRecordRoundTrip:
    def test_insert_materializes_identical_record(self, db):
        db.insert(sighting("a", 1.5, 2.5, t=3.0, acc=7.5))
        rec = db.get("a")
        assert rec == SightingRecord("a", 3.0, Point(1.5, 2.5), 7.5)
        assert "a" in db and len(db) == 1

    def test_duplicate_insert_raises(self, db):
        db.insert(sighting("a", 1, 2))
        with pytest.raises(KeyError):
            db.insert(sighting("a", 3, 4))

    def test_update_unknown_raises(self, db):
        with pytest.raises(KeyError):
            db.update(sighting("ghost", 0, 0))

    def test_remove_returns_the_record(self, db):
        db.insert(sighting("a", 1, 2, t=4.0, acc=9.0))
        removed = db.remove("a")
        assert removed == SightingRecord("a", 4.0, Point(1.0, 2.0), 9.0)
        assert len(db) == 0
        assert db.get("a") is None

    def test_records_iterates_live_rows_only(self, db):
        for i in range(5):
            db.insert(sighting(f"o{i}", float(i), 0.0))
        db.remove("o2")
        assert {r.object_id for r in db.records()} == {"o0", "o1", "o3", "o4"}
        assert sorted(db.object_ids()) == ["o0", "o1", "o3", "o4"]

    def test_rejects_non_columnar_index(self):
        from repro.spatial import LinearScanIndex

        with pytest.raises(StorageError):
            ColumnarSightingDB(index=LinearScanIndex())


def layout(db):
    index = db._index
    cols = {name: col[: index._next].tolist() for name, col in index._cols.items()}
    return list(index._free), dict(index._slot_of), index._ids[: index._next], repr(cols)


class TestBatchedSlotMoves:
    """``remove_many`` / ``upsert_many`` land exactly where the per-item
    ``remove`` / ``insert`` calls would: same slots, same free list."""

    def test_remove_many_matches_per_id_removes(self):
        batched, per_item = (ColumnarSightingDB(index=ColumnarIndex(capacity=4)) for _ in "ab")
        for db in (batched, per_item):
            for i in range(9):
                db.insert(sighting(f"o{i}", float(i), 1.0))
        gone = ["o5", "o1", "o7", "o2"]
        version = batched._index.version
        batched.remove_many(gone)
        for oid in gone:
            per_item.remove(oid)
        assert layout(batched) == layout(per_item)
        assert batched._index.version == version + 1
        assert len(batched) == 5

    def test_remove_many_refuses_an_absent_id_before_changing_anything(self, db):
        db.insert(sighting("a", 1, 2))
        for bad in (["a", "ghost"], (oid for oid in ["a", "a"])):
            with pytest.raises(KeyError):
                db.remove_many(bad)
        assert "a" in db and db._index.free_slots == 0

    def test_upsert_many_arrivals_match_per_item_inserts(self):
        batched, per_item = (ColumnarSightingDB(index=ColumnarIndex(capacity=4)) for _ in "ab")
        for db in (batched, per_item):
            for i in range(6):
                db.insert(sighting(f"o{i}", float(i), 1.0))
            db.remove("o4")
            db.remove("o1")
            db.schedule_expiry("n2", now=0.0)  # a recovered id: its pending deadline goes
        arrivals = [sighting(f"n{i}", 10.0 + i, 2.0, t=5.0) for i in range(5)]
        known = sighting("o0", 50.0, 50.0, t=5.0)
        batched.upsert_many([arrivals[0], known, *arrivals[1:]], now=5.0)
        for s in arrivals:
            per_item.insert(s, now=5.0)
        per_item.update(known, now=5.0)
        assert layout(batched) == layout(per_item)
        assert batched.get("n3") == arrivals[3]
        assert batched._pending_expiry == {}


class TestColumnWrites:
    """A batch lands from its column view with one store per column; a
    one-record call writes its slot directly.  Both keep the newest
    sighting, as one-by-one writes would."""

    def test_an_older_one_record_upsert_writes_nothing(self, db):
        db.insert(sighting("a", 1, 1, t=5.0), now=0.0, ttl=10.0)
        db.upsert(sighting("a", 9, 9, t=1.0), now=20.0, ttl=10.0)
        assert db.get("a") == sighting("a", 1, 1, t=5.0)
        assert db.expire_due(15.0) == ["a"]  # nor renewed its deadline

    def test_a_batch_naming_an_object_twice_keeps_its_newest(self, db):
        db.insert(sighting("a", 0, 0, t=1.0))
        db.upsert_many(
            [sighting("b", 1, 1, t=2.0), sighting("a", 2, 2, t=3.0), sighting("b", 3, 3, t=2.0),
             sighting("a", 4, 4, t=0.5), sighting("b", 5, 5, t=1.0)],
        )  # fmt: skip
        assert db.get("a") == sighting("a", 2, 2, t=3.0)
        assert db.get("b") == sighting("b", 3, 3, t=2.0)  # a tie: the later one
        assert len(db) == 2

    def test_update_many_is_unconditional_like_the_record_store(self, db):
        for store in (db, SightingDB()):
            store.insert(sighting("a", 0, 0, t=5.0))
            store.update_many([sighting("a", 1, 1, t=9.0), sighting("a", 2, 2, t=1.0)])
            assert store.get("a") == sighting("a", 2, 2, t=1.0)  # the last one


class TestSoftState:
    def test_expire_due_sweeps_past_deadlines(self, db):
        db.insert(sighting("fast", 0, 0), now=0.0, ttl=10.0)
        db.insert(sighting("slow", 1, 1), now=0.0, ttl=50.0)
        assert db.expire_due(5.0) == []
        assert sorted(db.expire_due(20.0)) == ["fast"]
        assert db.get("fast") is None
        assert db.get("slow") is not None
        assert db.expire_due(60.0) == ["slow"]

    def test_removed_record_leaves_the_expiry_schedule(self, db):
        db.insert(sighting("a", 0, 0), now=0.0, ttl=30.0)
        db.insert(sighting("b", 1, 1), now=0.0, ttl=10.0)
        db.remove("b")
        assert db.expire_due(29.0) == []
        assert db.expire_due(30.0) == ["a"]
        assert len(db) == 0

    def test_update_renews_the_deadline(self, db):
        db.insert(sighting("a", 0, 0), now=0.0, ttl=10.0)
        db.update(sighting("a", 1, 1, t=8.0), now=8.0, ttl=10.0)
        assert db.expire_due(15.0) == []
        assert db.expire_due(20.0) == ["a"]

    def test_schedule_expiry_for_slotless_id_survives(self, db):
        # Crash recovery replays expiry schedules before reinserting the
        # records; a deadline for an id with no slot must not be lost.
        db.schedule_expiry("ghost", now=0.0, ttl=5.0)
        assert db.expire_due(4.0) == []
        assert db.expire_due(6.0) == ["ghost"]
        assert db.expire_due(6.0) == []


class TestVectorizedLane:
    def test_bulk_insert_arrays_then_scatter(self, db):
        ids = [f"o{i}" for i in range(6)]
        handle = db.bulk_insert_arrays(
            ids, [float(i) for i in range(6)], [0.0] * 6, now=0.0, acc=5.0, ttl=50.0
        )
        assert len(db) == 6
        db.update_positions(
            handle, [float(i) + 0.5 for i in range(6)], [9.0] * 6, now=10.0
        )
        rec = db.get("o3")
        assert rec.pos == Point(3.5, 9.0)
        assert rec.timestamp == 10.0
        # The scatter renewed every deadline from now=10 at default_ttl.
        assert db.expire_due(109.0) == []
        assert sorted(db.expire_due(111.0)) == sorted(ids)

    def test_handle_goes_stale_after_remove(self, db):
        handle = db.bulk_insert_arrays(["a", "b"], [0.0, 1.0], [0.0, 1.0], now=0.0, acc=5.0)
        db.remove("b")
        with pytest.raises(StaleHandleError):
            db.update_positions(handle, [5.0, 6.0], [5.0, 6.0], now=1.0)

    def test_counts_in_rects_matches_object_db(self, db):
        oracle = SightingDB()
        for i in range(20):
            rec = sighting(f"o{i}", float(i * 7 % 50), float(i * 13 % 50))
            db.insert(rec)
            oracle.insert(rec)
        rects = [Rect(0, 0, 25, 25), Rect(25, 25, 50, 50), Rect(10, 0, 30, 50)]
        assert db.counts_in_rects(rects) == oracle.counts_in_rects(rects)

    def test_nearest_neighbors_inherited_path(self, db):
        for i in range(9):
            db.insert(sighting(f"o{i}", float(i % 3) * 10, float(i // 3) * 10))
        oracle = SightingDB()
        for rec in db.records():
            oracle.insert(rec)
        query = NearestNeighborQuery(Point(1.0, 1.0), req_acc=50.0, near_qual=30.0)
        got = db.nearest_neighbors(query, lambda oid: 10.0)
        expected = oracle.nearest_neighbors(query, lambda oid: 10.0)
        assert got == expected
        assert got.nearest is not None and got.nearest[0] == "o0"

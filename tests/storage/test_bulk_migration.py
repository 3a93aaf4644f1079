"""Tests for the storage-layer bulk paths the migration executor uses."""

import pytest

from repro.geo import Point, Rect
from repro.model import RangeQuery, RegistrationInfo, SightingRecord
from repro.storage import LocalDataStore
from repro.storage.sighting_db import SightingDB
from repro.storage.visitor_db import VisitorDB


def sighting(oid: str, x: float, y: float) -> SightingRecord:
    return SightingRecord(oid, 0.0, Point(x, y), 10.0)


class TestVisitorBulk:
    def test_insert_forward_many_matches_singles(self):
        a, b = VisitorDB(), VisitorDB()
        refs = [(f"o{i}", f"child-{i % 3}") for i in range(20)]
        a.insert_forward_many(refs)
        for oid, ref in refs:
            b.insert_forward(oid, ref)
        assert {oid: a.forward_ref(oid) for oid, _ in refs} == {
            oid: b.forward_ref(oid) for oid, _ in refs
        }

    def test_leaf_records_iterates_only_leaf_entries(self):
        db = VisitorDB()
        db.insert_forward("fwd", "child")
        db.insert_leaf("agent", 25.0, RegistrationInfo("r", 25.0, 100.0))
        records = list(db.leaf_records())
        assert [r.object_id for r in records] == ["agent"]


class TestSightingBulk:
    def test_bulk_insert_rejects_duplicates_upfront(self):
        db = SightingDB()
        db.insert(sighting("dup", 1, 1))
        with pytest.raises(KeyError):
            db.bulk_insert([sighting("new", 2, 2), sighting("dup", 3, 3)])
        assert "new" not in db  # nothing applied

    def test_bulk_insert_schedules_expiry(self):
        db = SightingDB(default_ttl=10.0)
        db.bulk_insert([sighting(f"o{i}", i, i) for i in range(5)], now=0.0)
        assert len(db) == 5
        assert db.expire_due(11.0) != []
        assert len(db) == 0

    def test_counts_in_rects_matches_scans(self):
        db = SightingDB()
        db.bulk_insert([sighting(f"o{i}", i * 10.0, i * 10.0) for i in range(10)])
        rects = [Rect(0, 0, 45, 45), Rect(50, 50, 100, 100), Rect(200, 200, 300, 300)]
        assert db.counts_in_rects(rects) == [5, 5, 0]


class TestDataStoreBulk:
    def populate(self, count=12) -> LocalDataStore:
        store = LocalDataStore()
        for i in range(count):
            store.register(sighting(f"o{i}", i * 5.0, i * 5.0), 25.0, 100.0, "t", now=0.0)
        return store

    def test_export_and_bulk_admit_round_trip(self):
        source = self.populate()
        entries = source.export_leaf_entries()
        assert len(entries) == 12
        dest = LocalDataStore()
        dest.bulk_admit(entries, now=1.0)
        assert dest.visitor_count == 12
        assert dest.sighting_count == 12
        for s, offered, reg in entries:
            assert dest.offered_acc(s.object_id) == offered
            assert dest.position_query(s.object_id).pos == s.pos

    def test_bulk_admit_duplicate_leaves_no_half_state(self):
        source = self.populate(4)
        dest = LocalDataStore()
        dest.register(sighting("o2", 99.0, 99.0), 25.0, 100.0, "t", now=0.0)
        with pytest.raises(KeyError):
            dest.bulk_admit(source.export_leaf_entries(), now=1.0)
        # Nothing from the failed batch was admitted: no visitor record
        # without a backing sighting.
        assert dest.visitor_count == 1
        assert dest.sighting_count == 1

    def test_export_skips_lapsed_sightings(self):
        source = self.populate()
        source.sightings.remove("o3")  # visitor record remains
        entries = source.export_leaf_entries()
        assert all(s.object_id != "o3" for s, _, _ in entries)
        assert len(entries) == 11

    def test_range_query_many_matches_singles(self):
        store = self.populate(20)
        queries = [
            RangeQuery(Rect(0, 0, 30, 30), req_acc=100.0, req_overlap=0.5),
            RangeQuery(Rect(40, 40, 95, 95), req_acc=100.0, req_overlap=0.5),
            RangeQuery(Rect(500, 500, 600, 600), req_acc=100.0, req_overlap=0.5),
        ]
        assert store.range_query_many(queries) == [
            store.range_query(q) for q in queries
        ]

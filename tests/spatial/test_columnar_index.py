"""ColumnarIndex internals: slots, free-list reuse, growth, handles.

The conformance and oracle-property suites already prove the columnar
index *answers* like every other ``SpatialIndex``; these tests pin the
machinery those suites cannot see — slot allocation and LIFO reuse,
amortized growth, version-stamped handle invalidation, the registered
extra columns growing in lockstep, and compaction.
"""

import pytest

from repro.geo import Point, Rect
from repro.spatial import ColumnarIndex, StaleHandleError


class TestSlotsAndFreeList:
    def test_slots_assigned_densely(self):
        index = ColumnarIndex(capacity=4)
        slots = [index.alloc_slot(f"o{i}") for i in range(4)]
        assert slots == [0, 1, 2, 3]
        assert [index.id_at(s) for s in slots] == ["o0", "o1", "o2", "o3"]

    def test_remove_frees_slot_for_lifo_reuse(self):
        index = ColumnarIndex(capacity=8)
        for i in range(4):
            index.insert(f"o{i}", Point(float(i), 0.0))
        index.remove("o1")
        index.remove("o2")
        assert index.free_slots == 2
        # LIFO: the most recently freed slot (o2's, slot 2) goes first.
        assert [index.alloc_slot("n1"), index.alloc_slot("n2")] == [2, 1]
        assert index.free_slots == 0

    def test_insert_and_remove_many_refuse_repeats_before_changing_anything(self):
        index = ColumnarIndex(capacity=4)
        index.insert("a", Point(1.0, 1.0))
        version = index.version
        with pytest.raises(KeyError):
            index.insert("a", Point(2.0, 2.0))
        for bad in (iter(["a", "a"]), ["a", "ghost"]):
            with pytest.raises(KeyError):
                index.remove_many(bad)
        assert index.version == version and index.slot_of("a") == 0
        assert index.get("a") == Point(1.0, 1.0) and index.free_slots == 0

    def test_removed_slot_is_invisible_to_queries(self):
        index = ColumnarIndex(capacity=4)
        index.insert("a", Point(1.0, 1.0))
        index.insert("b", Point(2.0, 2.0))
        removed = index.remove("a")
        assert removed == Point(1.0, 1.0)
        everything = Rect(-10.0, -10.0, 10.0, 10.0)
        assert [oid for oid, _ in index.query_rect(everything)] == ["b"]
        assert index.counts_in_rects([everything]) == [1]
        assert len(index) == 1
        assert index.get("a") is None

    def test_duplicate_insert_rejected(self):
        index = ColumnarIndex()
        index.insert("a", Point(0.0, 0.0))
        with pytest.raises(KeyError):
            index.insert("a", Point(1.0, 1.0))

    def test_remove_unknown_rejected(self):
        with pytest.raises(KeyError):
            ColumnarIndex().remove("ghost")


class TestGrowth:
    def test_capacity_doubles_past_the_brim(self):
        index = ColumnarIndex(capacity=2)
        for i in range(5):
            index.insert(f"o{i}", Point(float(i), float(i)))
        assert index.capacity >= 5
        assert len(index) == 5
        assert sorted(oid for oid, _ in index.items()) == [f"o{i}" for i in range(5)]

    def test_growth_preserves_positions_and_columns(self):
        index = ColumnarIndex(capacity=2)
        index.add_column("t", fill=-1.0)
        index.insert("a", Point(3.0, 4.0))
        index.column("t")[index.slot_of("a")] = 42.0
        for i in range(20):
            index.insert(f"f{i}", Point(float(i), 0.0))
        slot = index.slot_of("a")
        assert index.get("a") == Point(3.0, 4.0)
        assert index.column("t")[slot] == 42.0
        # Slots allocated after the column was registered get its fill.
        assert index.column("t")[index.slot_of("f19")] == -1.0


class TestHandles:
    def test_handle_scatter_updates_positions(self):
        index = ColumnarIndex()
        for oid in ("o0", "o2"):
            index.insert(oid, Point(0.0, 0.0))
        handle = index.bulk_load_arrays(["o3", "o1"], [0.0, 0.0], [0.0, 0.0])
        index.update_slots(handle, [30.0, 10.0], [33.0, 11.0])
        assert index.get("o3") == Point(30.0, 33.0)
        assert index.get("o1") == Point(10.0, 11.0)
        assert index.get("o0") == Point(0.0, 0.0)

    def test_update_does_not_invalidate(self):
        index = ColumnarIndex()
        handle = index.bulk_load_arrays(["a"], [0.0], [0.0])
        index.update("a", Point(5.0, 5.0))  # same slot, no remap
        index.check_handle(handle)
        index.update_slots(handle, [7.0], [8.0])
        assert index.get("a") == Point(7.0, 8.0)

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda ix: ix.insert("new", Point(1.0, 1.0)), id="insert"),
            pytest.param(lambda ix: ix.remove("a"), id="remove"),
            pytest.param(lambda ix: ix.clear(), id="clear"),
        ],
    )
    def test_slot_remapping_staleness(self, mutate):
        index = ColumnarIndex()
        handle = index.bulk_load_arrays(["a"], [0.0], [0.0])
        mutate(index)
        with pytest.raises(StaleHandleError):
            index.check_handle(handle)
        with pytest.raises(StaleHandleError):
            index.update_slots(handle, [1.0], [1.0])

    def test_fill_slots_writes_registered_column(self):
        index = ColumnarIndex()
        index.add_column("deadline")
        index.insert("o1", Point(1.0, 0.0))
        handle = index.bulk_load_arrays(["o0", "o2"], [0.0, 2.0], [0.0, 0.0])
        index.fill_slots("deadline", handle, 99.0)
        col = index.column("deadline")
        assert col[index.slot_of("o0")] == 99.0
        assert col[index.slot_of("o2")] == 99.0


class TestBulkLoadAndCompact:
    def test_bulk_load_arrays_round_trip(self):
        index = ColumnarIndex(capacity=2)
        ids = [f"o{i}" for i in range(50)]
        xs = [float(i) for i in range(50)]
        ys = [float(50 - i) for i in range(50)]
        handle = index.bulk_load_arrays(ids, xs, ys)
        assert len(handle) == 50
        assert len(index) == 50
        assert index.get("o7") == Point(7.0, 43.0)

    def test_bulk_load_arrays_rejects_duplicates(self):
        index = ColumnarIndex()
        with pytest.raises(KeyError):
            index.bulk_load_arrays(["a", "a"], [0.0, 1.0], [0.0, 1.0])

    def test_compact_densifies_after_mass_removal(self):
        index = ColumnarIndex(capacity=4)
        for i in range(32):
            index.insert(f"o{i}", Point(float(i), float(i)))
        for i in range(24):
            index.remove(f"o{i}")
        assert index.free_slots == 24
        version = index.version
        index.compact()
        assert index.version != version
        assert index.free_slots == 0
        assert len(index) == 8
        survivors = {oid: p for oid, p in index.items()}
        assert survivors == {
            f"o{i}": Point(float(i), float(i)) for i in range(24, 32)
        }
        # Every live slot sits below the high-water mark after the pack.
        assert all(slot < 8 for slot, _ in index.live_slots())


class TestNearest:
    def test_nearest_ignores_freed_slots(self):
        index = ColumnarIndex()
        index.insert("near", Point(1.0, 0.0))
        index.insert("far", Point(100.0, 0.0))
        index.remove("near")
        hits = index.nearest(Point(0.0, 0.0), k=1)
        assert [h.object_id for h in hits] == ["far"]

    def test_ties_break_on_object_id(self):
        index = ColumnarIndex()
        index.insert("b", Point(1.0, 0.0))
        index.insert("a", Point(-1.0, 0.0))
        hits = index.nearest(Point(0.0, 0.0), k=2)
        assert [h.object_id for h in hits] == ["a", "b"]


class TestMemoryFootprint:
    def test_memory_bytes_tracks_capacity(self):
        small = ColumnarIndex(capacity=16)
        big = ColumnarIndex(capacity=1024)
        assert 0 < small.memory_bytes() < big.memory_bytes()

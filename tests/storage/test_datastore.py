"""Tests for the per-server data-storage component (Fig. 7)."""

import pytest

from repro.errors import AccuracyUnavailableError, UnknownObjectError
from repro.geo import Point, Rect
from repro.model import (
    AccuracyModel,
    NearestNeighborQuery,
    RangeQuery,
    RegistrationInfo,
    SightingRecord,
)
from repro.spatial import PointQuadtree
from repro.storage import BACKENDS, LocalDataStore


def sighting(oid, x, y, t=0.0, acc=5.0):
    return SightingRecord(oid, t, Point(x, y), acc)


def make_store(**kwargs):
    return LocalDataStore(
        accuracy=AccuracyModel(sensor_floor=10.0, update_slack=5.0), **kwargs
    )


class TestRegistration:
    def test_register_returns_offered_acc(self):
        store = make_store()
        offered = store.register(sighting("a", 1, 1), 20.0, 100.0, "client")
        assert offered == 20.0
        assert store.visitor_count == 1
        assert store.sighting_count == 1

    def test_register_clamps_to_achievable(self):
        store = make_store()
        assert store.register(sighting("a", 1, 1), 1.0, 100.0, "client") == 15.0

    def test_register_rejects_unachievable(self):
        store = make_store()
        with pytest.raises(AccuracyUnavailableError):
            store.register(sighting("a", 1, 1), 1.0, 5.0, "client")
        assert store.visitor_count == 0

    def test_deregister(self):
        store = make_store()
        store.register(sighting("a", 1, 1), 20.0, 100.0, "client")
        store.deregister("a")
        assert store.visitor_count == 0
        with pytest.raises(UnknownObjectError):
            store.position_query("a")

    def test_change_accuracy(self):
        store = make_store()
        store.register(sighting("a", 1, 1), 20.0, 100.0, "client")
        assert store.change_accuracy("a", 30.0, 100.0) == 30.0
        assert store.position_query("a").acc == 30.0

    def test_change_accuracy_unknown(self):
        with pytest.raises(UnknownObjectError):
            make_store().change_accuracy("ghost", 10.0, 20.0)

    def test_admit_handover_uses_reg_info(self):
        store = make_store()
        reg = RegistrationInfo("client", des_acc=25.0, min_acc=80.0)
        offers = store.admit_handover_many([(sighting("a", 1, 1), reg)])
        assert offers == [25.0]
        assert store.visitors.leaf_record("a").reg_info == reg


class TestUpdatesAndQueries:
    def test_update_then_query(self):
        store = make_store()
        store.register(sighting("a", 1, 1), 20.0, 100.0, "client")
        store.update(sighting("a", 9, 9, t=1.0))
        ld = store.position_query("a")
        assert ld.pos == Point(9, 9)
        assert ld.acc == 20.0

    def test_update_unregistered_raises(self):
        with pytest.raises(UnknownObjectError):
            make_store().update(sighting("ghost", 0, 0))

    def test_position_query_unknown_raises(self):
        with pytest.raises(UnknownObjectError):
            make_store().position_query("ghost")

    def test_range_query_uses_offered_acc(self):
        store = make_store()
        store.register(sighting("inside", 50, 50), 20.0, 100.0, "client")
        store.register(sighting("outside", 500, 500), 20.0, 100.0, "client")
        result = store.range_query(
            RangeQuery(Rect(0, 0, 100, 100), req_acc=50.0, req_overlap=0.5)
        )
        assert [oid for oid, _ in result] == ["inside"]
        assert result[0][1].acc == 20.0

    def test_range_query_accuracy_threshold(self):
        store = make_store()
        store.register(sighting("coarse", 50, 50), 60.0, 100.0, "client")
        result = store.range_query(
            RangeQuery(Rect(0, 0, 100, 100), req_acc=30.0, req_overlap=0.5)
        )
        assert result == []

    def test_nearest_neighbor(self):
        store = make_store()
        store.register(sighting("near", 10, 0), 20.0, 100.0, "client")
        store.register(sighting("far", 100, 0), 20.0, 100.0, "client")
        result = store.nearest_neighbor_query(
            NearestNeighborQuery(Point(0, 0), req_acc=50.0)
        )
        assert result.nearest[0] == "near"


class TestSoftStateAndRecovery:
    def test_expiry_deregisters(self):
        store = LocalDataStore(ttl=60.0)
        store.register(sighting("a", 1, 1), 20.0, 100.0, "client", now=0.0)
        assert store.expire_due(60.0) == ["a"]
        assert store.visitor_count == 0

    def test_updates_keep_object_alive(self):
        store = LocalDataStore(ttl=60.0)
        store.register(sighting("a", 1, 1), 20.0, 100.0, "client", now=0.0)
        for t in (30.0, 60.0, 90.0):
            store.update(sighting("a", 1, 1, t=t), now=t)
        assert store.expire_due(100.0) == []
        assert store.expire_due(150.0) == ["a"]

    def test_crash_loses_sightings_keeps_visitors(self):
        """Fig. 7 / Section 5: volatile vs. persistent split."""
        store = make_store()
        store.register(sighting("a", 1, 1), 20.0, 100.0, "client")
        store.crash()
        assert store.sighting_count == 0
        assert store.visitor_count == 1  # forwarding path survived

    def test_restore_sighting_after_crash(self):
        store = make_store()
        store.register(sighting("a", 1, 1), 20.0, 100.0, "client")
        store.crash()
        # The periodic position update re-populates volatile state.
        store.update_many([sighting("a", 2, 2, t=10.0)], now=10.0)
        ld = store.position_query("a")
        assert ld.pos == Point(2, 2)
        assert ld.acc == 20.0  # negotiated accuracy survived the crash

    def test_index_rebuilt_after_crash(self):
        store = make_store()
        for i in range(20):
            store.register(sighting(f"o{i}", i * 10.0, 0.0), 15.0, 100.0, "client")
        store.crash()
        store.update_many(
            [sighting(f"o{i}", i * 10.0, 0.0, t=5.0) for i in range(20)], now=5.0
        )
        # Offered acc is 15 m; objects sit on the rect's bottom edge, so at
        # most half of each disk can overlap.  With threshold 0.4 the
        # qualifying objects are those at x = 10..80 (x=0 is a quarter disk
        # ≈ 0.25, x=90 is clipped at the x=95 edge to ≈ 0.35): exactly 8.
        result = store.range_query(
            RangeQuery(Rect(0, 0, 95, 40), req_acc=50.0, req_overlap=0.4)
        )
        assert len(result) == 8


class TestCrashKeepsIndexConfiguration:
    """`crash()` empties the spatial index in place: the index the caller
    configured keeps serving, with its parameters, not a default-built
    replacement of the same type."""

    @staticmethod
    def crash_and_reregister(store, index, xs):
        for i, x in enumerate(xs):
            store.register(sighting(f"o{i}", x, 0.0), 15.0, 100.0, "client")
        store.crash()
        assert len(index) == 0
        store.update_many(
            [sighting(f"o{i}", x, 1.0, t=5.0) for i, x in enumerate(xs)], now=5.0
        )
        assert len(index) == len(xs)  # the configured index, not a stand-in
        assert index.get("o1") == Point(xs[1], 1.0)
        hits = store.range_query(RangeQuery(Rect(-1, -20, xs[-1] + 1, 20), req_overlap=0.4))
        assert [oid for oid, _ in hits] == sorted(f"o{i}" for i in range(len(xs)))

    def test_quadtree_shuffle_stream_survives(self):
        index = PointQuadtree(shuffle_seed=None)
        rng = index._rng
        self.crash_and_reregister(make_store(index=index), index, [0.0, 30.0, 60.0, 90.0])
        assert index._rng is rng  # still the caller's stream, not Random(0)


class TestBatchUpdates:
    def test_update_many_requires_registration(self):
        store = make_store()
        store.register(sighting("a", 1, 1), 20.0, 100.0, "client")
        with pytest.raises(UnknownObjectError):
            store.update_many([sighting("a", 2, 2), sighting("ghost", 3, 3)])
        # Validation is all-or-nothing: "a" did not move.
        assert store.position_query("a").pos == Point(1, 1)

    def test_update_many_moves_batch(self):
        store = make_store()
        for i in range(10):
            store.register(sighting(f"o{i}", i, i), 20.0, 100.0, "client")
        store.update_many([sighting(f"o{i}", i + 100.0, i + 100.0, t=1.0) for i in range(10)], now=1.0)
        assert store.position_query("o7").pos == Point(107, 107)
        entries = store.range_query(
            RangeQuery(Rect(60, 60, 160, 160), req_acc=50.0, req_overlap=0.5)
        )
        assert {oid for oid, _ in entries} == {f"o{i}" for i in range(10)}

    def test_update_many_recreates_sightings_after_crash(self):
        """Batched updates share the paper's recovery semantics: a
        registered visitor whose volatile sighting was lost gets it back."""
        store = make_store()
        store.register(sighting("a", 1, 1), 20.0, 100.0, "client")
        store.register(sighting("b", 2, 2), 20.0, 100.0, "client")
        store.crash(now=10.0)
        assert store.sighting_count == 0
        store.update_many([sighting("a", 5, 5, t=11.0), sighting("b", 6, 6, t=11.0)], now=11.0)
        assert store.sighting_count == 2
        assert store.position_query("b").pos == Point(6, 6)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestNewestSightingWins:
    """A sighting is applied only when it is at least as new as the
    stored one: arrival order does not decide the position."""

    def test_an_older_update_leaves_the_newer_position(self, backend):
        store = make_store(backend=backend)
        store.register(sighting("a", 1, 1, t=0.0), 20.0, 100.0, "client")
        store.update_many([sighting("a", 2, 2, t=2.0)], now=2.0)
        store.update_many([sighting("a", 9, 9, t=1.0)], now=3.0)
        assert store.position_query("a").pos == Point(2, 2)
        store.update_many([sighting("a", 3, 3, t=2.0)], now=4.0)  # equal: applied
        assert store.position_query("a").pos == Point(3, 3)

    def test_an_older_one_record_update_leaves_the_newer_position(self, backend):
        store = make_store(backend=backend)
        store.register(sighting("a", 1, 1, t=0.0), 20.0, 100.0, "client")
        store.update(sighting("a", 2, 2, t=2.0), now=2.0)
        store.update(sighting("a", 9, 9, t=1.0), now=3.0)
        assert store.position_query("a").pos == Point(2, 2)
        assert store.sightings.get("a").timestamp == 2.0
        store.update(sighting("a", 3, 3, t=2.0), now=4.0)  # equal: applied
        assert store.position_query("a").pos == Point(3, 3)

    def test_an_envelope_naming_an_object_twice_ends_at_its_newest(self, backend):
        store = make_store(backend=backend)
        store.register(sighting("a", 1, 1, t=5.0), 20.0, 100.0, "client")
        store.register(sighting("b", 1, 1, t=0.0), 20.0, 100.0, "client")
        store.update_many(
            [
                sighting("a", 2, 2, t=4.0),  # older than the stored one
                sighting("b", 3, 3, t=2.0),
                sighting("b", 6, 6, t=3.0),  # the newest of b
                sighting("b", 4, 4, t=3.0),  # ties it, later: wins
                sighting("b", 5, 5, t=1.0),  # arrives last, older
            ],
            now=6.0,
        )
        assert store.position_query("a").pos == Point(1, 1)
        assert store.position_query("b").pos == Point(4, 4)
        assert store.sightings.get("b").timestamp == 3.0

    def test_an_older_handover_leaves_the_newer_position(self, backend):
        store = make_store(backend=backend)
        reg = RegistrationInfo("client", 20.0, 100.0)
        store.admit_handover_many([(sighting("a", 50, 50, t=2.0), reg)], now=2.0)
        store.admit_handover_many([(sighting("a", 500, 500, t=1.0), reg)], now=3.0)
        assert store.position_query("a").pos == Point(50, 50)
        entries = store.range_query(
            RangeQuery(Rect(0, 0, 100, 100), req_acc=50.0, req_overlap=0.5)
        )
        assert [oid for oid, _ in entries] == ["a"]  # the index agrees

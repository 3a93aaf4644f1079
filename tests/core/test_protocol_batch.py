"""Tests for the enveloped write lane (PR 3; the only lane since PR 14).

``LocationService.update_many``'s protocol traffic travels as one
envelope per destination server (``UpdateBatchReq`` / ``HandoverBatchReq``
/ ``DeregisterBatchReq``); over arbitrary crossing workloads the lane must
end in exactly the state a flat, single-store reference ends in — same
positions, every agent the leaf containing the last position, nothing
lost — while sending one message per destination, and an envelope must
survive a crashed or vanished destination through envelope-level retry
and re-routing.
"""

import random

import pytest

from repro.core import LocationService, build_table2_hierarchy
from repro.errors import TransportError
from repro.geo import Point, Rect
from repro.model import SightingRecord
from repro.sim.metrics import MessageLedger
from repro.storage import LocalDataStore

AREA = Rect(0, 0, 1500, 1500)


@pytest.fixture
def svc():
    return LocationService(build_table2_hierarchy(1500.0), sighting_ttl=1e9)


def random_walk(svc, seed, objects=14, ticks=6, step=450.0):
    """Drive a seeded crossing-heavy random walk through the service and,
    report for report, through a flat ``LocalDataStore`` oracle; returns
    ``(tracked objects, oracle)``."""
    rng = random.Random(seed)
    oracle = LocalDataStore(ttl=1e9)
    objs = {}
    positions = {}
    for i in range(objects):
        pos = Point(rng.uniform(0, 1500), rng.uniform(0, 1500))
        objs[f"o{i}"] = svc.register(f"o{i}", pos)
        oracle.register(SightingRecord(f"o{i}", 0.0, pos, 10.0), 25.0, 100.0, "oracle")
        positions[f"o{i}"] = pos
    for _ in range(ticks):
        moves = []
        for oid, obj in objs.items():
            old = positions[oid]
            pos = Point(
                min(AREA.max_x, max(0.0, old.x + rng.uniform(-step, step))),
                min(AREA.max_y, max(0.0, old.y + rng.uniform(-step, step))),
            )
            positions[oid] = pos
            moves.append((obj, pos))
        svc.update_many(moves)
        oracle.update_many(
            [SightingRecord(obj.object_id, 0.0, pos, 10.0) for obj, pos in moves]
        )
    return objs, oracle


class TestLaneEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 23, 91])
    def test_write_lane_matches_flat_store_oracle(self, seed):
        """Property: across random crossing workloads the hierarchy ends
        where a single flat store ends — positions, offered accuracies,
        population — with every agent the leaf containing the object's
        last position and the forwarding paths consistent."""
        svc = LocationService(build_table2_hierarchy(1500.0), sighting_ttl=1e9)
        objs, oracle = random_walk(svc, seed)
        svc.check_consistency()
        assert svc.total_tracked() == oracle.sighting_count
        for oid, obj in objs.items():
            expected = oracle.position_query(oid)
            assert svc.pos_query(oid).pos == expected.pos
            assert obj.agent == svc.hierarchy.leaf_for_point(expected.pos)
            assert obj.offered_acc == oracle.visitors.leaf_record(oid).offered_acc

    def test_no_sighting_lost_across_lanes(self):
        """Fast lane (in-area) and protocol lane (crossings) together."""
        svc = LocationService(build_table2_hierarchy(1500.0), sighting_ttl=1e9)
        _, oracle = random_walk(svc, seed=5, objects=20, ticks=5)
        assert svc.total_tracked() == oracle.sighting_count == 20
        svc.check_consistency()

    def test_leaving_root_area_deregisters_on_batched_lane(self, svc):
        a = svc.register("a", Point(100, 100))
        b = svc.register("b", Point(120, 100))
        stats = svc.update_many([(a, Point(5000, 5000)), (b, Point(130, 110))])
        assert stats == {"fast": 1, "protocol": 1}
        assert a.deregistered and a.agent is None
        assert svc.pos_query("a") is None
        assert svc.pos_query("b").pos == Point(130, 110)
        svc.check_consistency()


class TestEnvelopeTraffic:
    def test_one_envelope_per_destination(self, svc):
        """Many same-leaf crossings produce one UpdateBatchReq, not one
        UpdateReq per object — the message-count win the lane exists for."""
        objs = [svc.register(f"o{i}", Point(100.0 + i, 100.0)) for i in range(10)]
        ledger = MessageLedger(svc.network.stats)
        svc.update_many(
            [(obj, Point(1200.0 + i, 1200.0)) for i, obj in enumerate(objs)]
        )
        delta = ledger.protocol_delta()
        assert delta.get("UpdateBatchReq") == 1
        assert "UpdateReq" not in delta
        assert delta.get("HandoverBatchReq", 0) >= 1
        for obj in objs:
            assert obj.agent == "root.3"

    def test_twelve_crossings_cost_one_envelope_per_hop(self, svc):
        """Absolute pin: 12 objects crossing root.0 → root.1 cost one
        UpdateBatchReq and at most one HandoverBatchReq per hop of the
        leaf → root → leaf path, and no single-object message at all."""
        objs = [svc.register(f"o{i}", Point(50.0 + 20 * i, 700.0)) for i in range(12)]
        assert {obj.agent for obj in objs} == {"root.0"}
        ledger = MessageLedger(svc.network.stats)
        svc.update_many(
            [(obj, Point(1000.0 + 10 * i, 700.0)) for i, obj in enumerate(objs)]
        )
        delta = ledger.delta()  # every type sent, not just the lane's
        assert {obj.agent for obj in objs} == {"root.1"}
        assert delta.get("UpdateBatchReq") == 1
        hops = len(svc.hierarchy.path_to_root("root.0")) + len(
            svc.hierarchy.path_to_root("root.1")
        ) - 2
        assert 1 <= delta.get("HandoverBatchReq", 0) <= hops
        assert set(delta) == {
            "UpdateBatchReq", "UpdateBatchRes", "HandoverBatchReq", "HandoverBatchRes",
        }


class TestDeregisterBatch:
    def test_deregister_many_across_destinations(self, svc):
        objs = [
            svc.register("sw", Point(100, 100)),
            svc.register("ne", Point(1200, 1200)),
            svc.register("keep", Point(700, 100)),
        ]
        results = svc.deregister_many([objs[0], objs[1]])
        assert results == {"sw": True, "ne": True}
        assert objs[0].deregistered and objs[1].deregistered
        assert svc.pos_query("sw") is None and svc.pos_query("ne") is None
        assert svc.pos_query("keep") is not None
        assert svc.total_tracked() == 1
        svc.check_consistency()

    def test_unregistered_object_maps_to_false(self, svc):
        ghost = svc.new_tracked_object("ghost")
        live = svc.register("live", Point(200, 200))
        results = svc.deregister_many([ghost, live])
        assert results == {"ghost": False, "live": True}

    def test_geo_facade_deregister_many(self):
        from repro.core.geo_service import GeoLocationService
        from repro.geo import GeoCoordinate

        geo = GeoLocationService.city(
            GeoCoordinate(48.7758, 9.1829), extent_m=4000, depth=1
        )
        t1 = geo.register("t1", GeoCoordinate(48.7761, 9.1840))
        t2 = geo.register("t2", GeoCoordinate(48.7770, 9.1855))
        assert geo.deregister_many([t1, t2]) == {"t1": True, "t2": True}
        assert geo.pos_query("t1") is None and geo.pos_query("t2") is None

    def test_deregister_batch_tears_paths_down_batched(self, svc):
        objs = [svc.register(f"o{i}", Point(100.0 + i, 100.0)) for i in range(6)]
        ledger = MessageLedger(svc.network.stats)
        svc.deregister_many(objs)
        delta = ledger.protocol_delta()
        assert delta.get("DeregisterBatchReq") == 1
        assert delta.get("PathTeardownBatch", 0) >= 1
        assert svc.servers["root"].visitors.forward_ref("o0") is None


class TestSoftStateTeardownBatch:
    def test_expiry_sweep_sends_one_teardown_batch(self):
        svc = LocationService(
            build_table2_hierarchy(1500.0), sighting_ttl=50.0, sweep_interval=10.0
        )
        for i in range(8):
            svc.register(f"o{i}", Point(100.0 + i * 10, 100.0))
        ledger = MessageLedger(svc.network.stats)
        svc.settle(max_time=100.0)
        delta = ledger.protocol_delta()
        assert svc.total_tracked() == 0
        assert svc.servers["root"].visitors.forward_ref("o0") is None
        assert delta.get("PathTeardownBatch", 0) >= 1


class TestEnvelopeRetry:
    def test_crashed_destination_times_out_then_recovers(self, svc):
        obj = svc.register("a", Point(100, 100))
        svc.network.crash("root.0")
        with pytest.raises(TransportError):
            svc.update_many(
                [(obj, Point(1200, 1200))],
                envelope_timeout=0.5,
                envelope_retries=1,
            )
        svc.network.restore("root.0")
        stats = svc.update_many([(obj, Point(1200, 1200))], envelope_timeout=0.5)
        assert stats == {"fast": 0, "protocol": 1}
        assert obj.agent == "root.3"
        assert svc.pos_query("a").pos == Point(1200, 1200)
        svc.check_consistency()

    def test_vanished_destination_reroutes_through_root(self, svc):
        """A destination that left the network entirely (garbage-collected
        retirement alias) is re-routed through the root *before* sending —
        no timeout required — and the root's forwarding references
        resolve every object."""
        obj = svc.register("a", Point(100, 100))
        obj.agent = "gc-ed-alias"  # believed agent no longer exists
        stats = svc.update_many([(obj, Point(110, 120))])
        assert stats == {"fast": 0, "protocol": 1}
        assert obj.agent == "root.0"
        assert svc.pos_query("a").pos == Point(110, 120)
        svc.check_consistency()

    def test_deregister_many_vanished_destination_reroutes(self, svc):
        obj = svc.register("a", Point(100, 100))
        obj.agent = "gc-ed-alias"
        assert svc.deregister_many([obj]) == {"a": True}
        assert obj.deregistered
        assert svc.pos_query("a") is None
        svc.check_consistency()

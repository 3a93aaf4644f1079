"""Failure-mode tests: soft state, crash recovery, message loss.

These exercise the paper's Section-5 reliability story end to end:
sighting records are soft state that expires hierarchy-wide; volatile
leaf state is rebuilt from incoming updates after a crash while the
persistent visitor DB keeps forwarding paths alive; UDP-style message
loss surfaces as client timeouts, never as wrong answers.
"""

import pytest

from repro.chaos import FaultInjector, LinkFaults
from repro.core import LocationService, build_table2_hierarchy
from repro.errors import TransportError
from repro.geo import Point, Rect


def make_service(**kwargs):
    return LocationService(build_table2_hierarchy(), **kwargs)


def lose(svc, drop_rate, seed=0):
    """Drop ``drop_rate`` of every send on the service's network."""
    FaultInjector(svc.network, seed=seed).set_link("*", "*", LinkFaults(drop_rate=drop_rate))


class TestSoftStateExpiry:
    def test_expiry_tears_down_whole_path(self):
        svc = make_service(sighting_ttl=60.0)
        svc.register("fading", Point(100, 100))
        assert "fading" in svc.servers["root"].visitors

        async def wait():
            await svc.loop.sleep(120.0)

        svc.run(wait())
        svc.servers["root.0"].sweep_soft_state()
        svc.settle()
        assert svc.total_tracked() == 0
        assert "fading" not in svc.servers["root"].visitors
        assert "fading" not in svc.servers["root.0"].visitors
        assert svc.pos_query("fading") is None

    def test_updates_keep_object_alive(self):
        svc = make_service(sighting_ttl=60.0)
        obj = svc.register("lively", Point(100, 100))

        async def update_periodically():
            for _ in range(5):
                await svc.loop.sleep(30.0)
                await obj.report(Point(110, 110))

        svc.run(update_periodically())
        svc.servers["root.0"].sweep_soft_state()
        svc.settle()
        assert svc.total_tracked() == 1
        assert svc.pos_query("lively") is not None

    def test_periodic_sweep_runs_automatically(self):
        svc = make_service(sighting_ttl=50.0, sweep_interval=10.0)
        svc.register("fading", Point(100, 100))
        svc.settle(max_time=200.0)
        assert svc.total_tracked() == 0
        assert "fading" not in svc.servers["root"].visitors

    def test_expiry_only_affects_lapsed_objects(self):
        svc = make_service(sighting_ttl=60.0)
        svc.register("old", Point(100, 100))

        async def later():
            await svc.loop.sleep(50.0)

        svc.run(later())
        svc.register("young", Point(200, 200))

        async def much_later():
            await svc.loop.sleep(20.0)  # now = 70: old expired, young not

        svc.run(much_later())
        svc.servers["root.0"].sweep_soft_state()
        svc.settle()
        assert svc.pos_query("old") is None
        assert svc.pos_query("young") is not None


class TestCrashRecovery:
    def test_forwarding_path_survives_crash(self):
        svc = make_service()
        obj = svc.register("truck", Point(100, 100))
        leaf = svc.servers["root.0"]
        # Crash: volatile sighting DB is lost, persistent visitor DB stays.
        leaf.simulate_crash_recovery()
        assert len(leaf.store.sightings) == 0
        assert leaf.visitors.leaf_record("truck") is not None
        # Position queries cannot be answered until an update arrives.
        assert svc.pos_query("truck", entry_server="root.3") is None
        # The periodic position update restores the volatile state.
        svc.update(obj, Point(120, 120))
        ld = svc.pos_query("truck", entry_server="root.3")
        assert ld.pos == Point(120, 120)
        assert ld.acc == 25.0  # negotiated accuracy survived the crash
        svc.check_consistency()

    def test_spatial_index_rebuilt_after_crash(self):
        svc = make_service()
        objects = {}
        for i in range(12):
            pos = Point(50 + i * 50.0, 100)
            objects[f"o{i}"] = (svc.register(f"o{i}", pos), pos)
        svc.servers["root.0"].simulate_crash_recovery()
        for obj, pos in objects.values():
            if svc.hierarchy.leaf_for_point(pos) == "root.0":
                svc.update(obj, pos)
        answer = svc.range_query(
            Rect(0, 0, 700, 200), req_acc=50.0, req_overlap=0.3, entry_server="root.1"
        )
        in_west = [oid for oid, (_, pos) in objects.items() if pos.x < 700]
        assert {oid for oid, _ in answer.entries} >= set(in_west[:-1])

    def test_downed_server_times_out_queries(self):
        svc = make_service()
        svc.register("truck", Point(100, 100))
        svc.network.crash("root.0")
        client = svc.new_client(entry_server="root.3", timeout=5.0)
        with pytest.raises(TransportError):
            svc.run(client.pos_query("truck"))

    def test_restored_server_answers_again(self):
        svc = make_service()
        svc.register("truck", Point(100, 100))
        svc.network.crash("root.0")
        client = svc.new_client(entry_server="root.3", timeout=5.0)
        with pytest.raises(TransportError):
            svc.run(client.pos_query("truck"))
        svc.network.restore("root.0")
        # State was volatile-safe here (no crash of the process itself).
        ld = svc.run(client.pos_query("truck"))
        assert ld is not None


class TestMessageLoss:
    def test_lossless_by_default(self):
        svc = make_service()
        svc.register("truck", Point(100, 100))
        assert svc.network.stats.messages_dropped == 0

    def test_loss_causes_timeout_not_wrong_answer(self):
        svc = make_service()
        lose(svc, 1.0)
        obj = svc.new_tracked_object("truck", entry_server="root.0", timeout=5.0)
        with pytest.raises(TransportError):
            svc.run(obj.register(Point(100, 100), 25.0, 100.0))
        assert svc.network.stats.messages_dropped >= 1

    def test_client_retry_succeeds_under_partial_loss(self):
        svc = make_service()
        lose(svc, 0.35, seed=4)
        obj = svc.new_tracked_object("truck", entry_server="root.0", timeout=5.0)

        async def register_with_retries():
            for _ in range(30):
                try:
                    return await obj.register(Point(100, 100), 25.0, 100.0)
                except TransportError:
                    continue
            raise AssertionError("registration never succeeded")

        offered = svc.run(register_with_retries())
        assert offered == 25.0
        # The object is eventually tracked exactly once.
        svc.settle()
        assert svc.total_tracked() == 1

    def test_queries_eventually_succeed_under_loss(self):
        svc = make_service()
        svc.register("truck", Point(100, 100))
        lose(svc, 0.3)
        client = svc.new_client(entry_server="root.3", timeout=5.0)

        async def query_with_retries():
            for _ in range(40):
                try:
                    return await client.pos_query("truck")
                except TransportError:
                    continue
            raise AssertionError("query never succeeded")

        ld = svc.run(query_with_retries())
        assert ld.pos == Point(100, 100)

"""Tests for the centralized and home-server baselines.

The key property: both baselines return *semantically identical* answers
to the hierarchical LS — they differ only in message economics, which the
ablation benches measure.
"""

import random

from repro.baselines import CentralLocationServer, build_home_service, home_of
from repro.core import LocationClient, LocationService, TrackedObject, build_table2_hierarchy
from repro.geo import Point, Rect
from repro.runtime.simnet import SimNetwork

AREA = Rect(0, 0, 1500, 1500)


def make_central():
    net = SimNetwork()
    server = net.join(CentralLocationServer(AREA))
    return net, server


class TestCentralBaseline:
    def test_register_update_query(self):
        net, server = make_central()
        obj = net.join(TrackedObject("truck", entry_server="central"))

        async def scenario():
            offered = await obj.register(Point(100, 100), 25.0, 100.0)
            assert offered == 25.0
            await obj.report(Point(300, 300))
            client_ld = await obj.pos_query("truck")
            return client_ld

        ld = net.run_coro(scenario())
        assert ld.pos == Point(300, 300)

    def test_no_handover_needed(self):
        net, server = make_central()
        obj = net.join(TrackedObject("truck", entry_server="central"))

        async def scenario():
            await obj.register(Point(100, 100), 25.0, 100.0)
            res = await obj.report(Point(1400, 1400))  # would hand over in the hierarchy
            return res

        res = net.run_coro(scenario())
        assert res.ok and res.agent == "central"

    def test_leaving_area_deregisters(self):
        net, server = make_central()
        obj = net.join(TrackedObject("truck", entry_server="central"))

        async def scenario():
            await obj.register(Point(100, 100), 25.0, 100.0)
            return await obj.report(Point(99999, 0))

        res = net.run_coro(scenario())
        assert res.deregistered

    def test_range_and_nn_queries(self):
        net, server = make_central()
        client = net.join(LocationClient("c", entry_server="central"))
        objs = [net.join(TrackedObject(f"o{i}", entry_server="central")) for i in range(4)]
        positions = [Point(100, 100), Point(200, 200), Point(1000, 1000), Point(1400, 1400)]

        async def scenario():
            for obj, pos in zip(objs, positions):
                await obj.register(pos, 25.0, 100.0)
            answer = await client.range_query(
                Rect(0, 0, 500, 500), req_acc=50.0, req_overlap=0.5
            )
            nn = await client.neighbor_query(Point(150, 150), req_acc=50.0)
            return answer, nn

        answer, nn = net.run_coro(scenario())
        assert {oid for oid, _ in answer.entries} == {"o0", "o1"}
        assert nn.result.nearest[0] in {"o0", "o1"}

    def test_matches_hierarchy_answers(self):
        """Same workload, same answers as the hierarchical service."""
        rng = random.Random(9)
        placements = [
            (f"o{i}", Point(rng.uniform(0, 1500), rng.uniform(0, 1500))) for i in range(60)
        ]
        query_area = Rect(200, 200, 900, 1200)

        # Hierarchical service.
        svc = LocationService(build_table2_hierarchy())
        for oid, pos in placements:
            svc.register(oid, pos)
        hier = svc.range_query(query_area, req_acc=50.0, req_overlap=0.4)

        # Central baseline.
        net, server = make_central()
        client = net.join(LocationClient("c", entry_server="central"))

        async def scenario():
            for oid, pos in placements:
                obj = net.join(TrackedObject(oid, entry_server="central"))
                await obj.register(pos, 25.0, 100.0)
            return await client.range_query(query_area, req_acc=50.0, req_overlap=0.4)

        central = net.run_coro(scenario())
        assert list(central.entries) == list(hier.entries)


class TestHomeServerBaseline:
    def test_home_mapping_deterministic(self):
        assert home_of("truck-7", 8) == home_of("truck-7", 8)
        homes = {home_of(f"o{i}", 4) for i in range(100)}
        assert homes == {f"home-{i}" for i in range(4)}  # all servers used

    def test_point_operations_single_hop(self):
        net, client = build_home_service(AREA, n_servers=4)

        async def scenario():
            await client.register("truck", Point(100, 100), 25.0, 100.0)
            net.stats.reset()
            ld = await client.pos_query("truck")
            return ld

        ld = net.run_coro(scenario())
        assert ld.pos == Point(100, 100)
        # One request + one response: the HLR advantage.
        assert net.stats.messages_sent == 2

    def test_update_never_hands_over(self):
        net, client = build_home_service(AREA, n_servers=4)

        async def scenario():
            await client.register("truck", Point(100, 100), 25.0, 100.0)
            res = await client.update("truck", Point(1400, 1400))
            return res, await client.pos_query("truck")

        res, ld = net.run_coro(scenario())
        assert res.ok
        assert ld.pos == Point(1400, 1400)

    def test_range_query_scatters_to_all_servers(self):
        net, client = build_home_service(AREA, n_servers=8)

        async def scenario():
            for i in range(20):
                await client.register(f"o{i}", Point(10 + i * 70.0, 100), 25.0, 100.0)
            net.stats.reset()
            return await client.range_query(
                Rect(0, 0, 400, 200), req_acc=50.0, req_overlap=0.3
            )

        entries = net.run_coro(scenario())
        # Every home server received the query: no spatial locality.
        assert net.stats.by_type.get("RangeQueryBatchFwd") == 8
        ids = {oid for oid, _ in entries}
        assert ids and all(oid.startswith("o") for oid in ids)

    def test_neighbor_query_correct(self):
        net, client = build_home_service(AREA, n_servers=4)

        async def scenario():
            await client.register("near", Point(100, 100), 25.0, 100.0)
            await client.register("far", Point(1200, 1200), 25.0, 100.0)
            return await client.neighbor_query(Point(150, 150), req_acc=50.0)

        result = net.run_coro(scenario())
        assert result.nearest[0] == "near"

    def test_matches_hierarchy_range_semantics(self):
        rng = random.Random(21)
        placements = [
            (f"o{i}", Point(rng.uniform(0, 1500), rng.uniform(0, 1500))) for i in range(40)
        ]
        query_area = Rect(100, 100, 1000, 700)

        svc = LocationService(build_table2_hierarchy())
        for oid, pos in placements:
            svc.register(oid, pos)
        hier = svc.range_query(query_area, req_acc=50.0, req_overlap=0.4)

        net, client = build_home_service(AREA, n_servers=4)

        async def scenario():
            for oid, pos in placements:
                await client.register(oid, pos, 25.0, 100.0)
            return await client.range_query(query_area, req_acc=50.0, req_overlap=0.4)

        home_entries = net.run_coro(scenario())
        assert list(home_entries) == list(hier.entries)

"""Integration tests: the identical server code on a real asyncio loop."""

import asyncio

import pytest

from repro.core import LocationServer, TrackedObject, LocationClient, build_table2_hierarchy
from repro.core import messages as m
from repro.geo import Point, Rect
from repro.model import SightingRecord
from repro.runtime.asyncio_rt import AsyncioNetwork
from repro.runtime.base import Endpoint
from repro.runtime.latency import LatencyModel


def build_network():
    """The Table-2 hierarchy on asyncio with microsecond-scale latency."""
    net = AsyncioNetwork(latency=LatencyModel(base=1e-5, per_entry=0.0))
    hierarchy = build_table2_hierarchy()
    servers = {
        sid: net.join(LocationServer(hierarchy.config(sid)))
        for sid in hierarchy.server_ids()
    }
    return net, hierarchy, servers


def run(coro):
    return asyncio.run(coro)


class TestAsyncioIntegration:
    def test_register_update_query(self):
        async def scenario():
            net, hierarchy, servers = build_network()
            obj = net.join(TrackedObject("truck", entry_server="root.0"))
            offered = await obj.register(Point(100, 100), 25.0, 100.0)
            assert offered == 25.0
            assert obj.agent == "root.0"
            await obj.report(Point(200, 200))
            client = net.join(LocationClient("c1", entry_server="root.3"))
            ld = await client.pos_query("truck")
            assert ld.pos == Point(200, 200)
            await net.quiesce()
            return servers

        servers = run(scenario())
        assert servers["root"].visitors.forward_ref("truck") == "root.0"

    def test_handover_across_leaves(self):
        async def scenario():
            net, hierarchy, servers = build_network()
            obj = net.join(TrackedObject("truck", entry_server="root.0"))
            await obj.register(Point(700, 100), 25.0, 100.0)
            res = await obj.report(Point(800, 100))
            assert res.ok
            assert obj.agent == "root.1"
            await net.quiesce()
            assert "truck" not in servers["root.0"].visitors
            assert servers["root"].visitors.forward_ref("truck") == "root.1"

        run(scenario())

    def test_range_query_spanning_servers(self):
        async def scenario():
            net, hierarchy, servers = build_network()
            for i, (x, y) in enumerate(
                [(100, 100), (1400, 100), (100, 1400), (1400, 1400)]
            ):
                obj = net.join(TrackedObject(f"o{i}", entry_server="root.0"))
                await obj.register(Point(x, y), 25.0, 100.0)
            client = net.join(LocationClient("c1", entry_server="root.0"))
            answer = await client.range_query(
                Rect(0, 0, 1500, 1500), req_acc=50.0, req_overlap=0.3
            )
            assert {oid for oid, _ in answer.entries} == {"o0", "o1", "o2", "o3"}
            assert answer.servers_involved == 4

        run(scenario())

    def test_neighbor_query(self):
        async def scenario():
            net, hierarchy, servers = build_network()
            near = net.join(TrackedObject("near", entry_server="root.0"))
            await near.register(Point(200, 200), 25.0, 100.0)
            far = net.join(TrackedObject("far", entry_server="root.0"))
            await far.register(Point(1400, 1400), 25.0, 100.0)
            client = net.join(LocationClient("c1", entry_server="root.0"))
            answer = await client.neighbor_query(Point(150, 150), req_acc=50.0)
            assert answer.result.nearest[0] == "near"

        run(scenario())

    def test_concurrent_clients(self):
        """Many clients operating simultaneously on the real event loop."""

        async def scenario():
            net, hierarchy, servers = build_network()
            objs = [
                net.join(TrackedObject(f"o{i}", entry_server="root.0")) for i in range(12)
            ]
            await asyncio.gather(
                *(
                    obj.register(Point(50 + 120 * i, 100), 25.0, 100.0)
                    for i, obj in enumerate(objs)
                )
            )
            client = net.join(LocationClient("c1", entry_server="root.3"))
            descriptors = await asyncio.gather(
                *(client.pos_query(f"o{i}") for i in range(12))
            )
            assert all(ld is not None for ld in descriptors)
            await net.quiesce()

        run(scenario())

    def test_timeout_against_crashed_server(self):
        async def scenario():
            net, hierarchy, servers = build_network()
            obj = net.join(TrackedObject("truck", entry_server="root.0"))
            await obj.register(Point(100, 100), 25.0, 100.0)
            net.crash("root.0")
            client = net.join(
                LocationClient("c1", entry_server="root.3", timeout=0.05)
            )
            from repro.errors import TransportError

            with pytest.raises(TransportError):
                await client.pos_query("truck")

        run(scenario())

    def test_update_envelope_through_the_server_handlers(self):
        """An UpdateBatchReq envelope against the asyncio runtime: the
        service-side batched tick is sim-only, so drive the server
        handlers directly."""

        async def scenario():
            net, hierarchy, servers = build_network()
            obj = net.join(TrackedObject("truck", entry_server="root.0"))
            await obj.register(Point(100, 100), 25.0, 100.0)
            res = await obj.request(
                "root.0",
                m.UpdateBatchReq(
                    request_id=obj.next_request_id(),
                    reply_to=obj.address,
                    sightings=(SightingRecord("truck", 0.0, Point(1200, 1200), 10.0),),
                ),
            )
            await net.quiesce()
            return res

        res = run(scenario())
        assert isinstance(res, m.UpdateBatchRes)
        assert res.outcomes[0].ok and res.outcomes[0].agent == "root.3"


class TestAsyncioLoss:
    def test_crashed_and_unknown_destinations(self):
        async def scenario():
            net, hierarchy, servers = build_network()
            sender = net.join(Endpoint("sender"))
            net.crash("root.0")
            for i in range(2):
                sender.send("root.0", m.PingReq(request_id=f"r{i}", reply_to="sender"))
            sender.send("gone", m.PingReq(request_id="r2", reply_to="sender"))
            await asyncio.sleep(0.01)
            return net

        net = run(scenario())
        assert net.stats.messages_dropped == 2
        assert net.stats.dead_letters == 1
        assert net.stats.messages_delivered == 0

    @pytest.mark.parametrize("base", [0.0, 0.002])
    def test_sends_arrive_in_send_order(self, base):
        # Zero latency delivers through call_soon, any other through
        # call_later; both keep one sender's order to one destination.
        async def scenario():
            net = AsyncioNetwork(latency=LatencyModel(base=base, per_entry=0.0))
            sink = net.join(Endpoint("sink"))
            sender = net.join(Endpoint("sender"))
            for i in range(5):
                sender.send("sink", m.PingReq(request_id=f"r{i}", reply_to="sender"))
            await asyncio.sleep(base + 0.01)
            return net, sink

        net, sink = run(scenario())
        assert [msg.request_id for msg in sink.unhandled] == [f"r{i}" for i in range(5)]
        assert net.stats.messages_delivered == 5

    def test_crash_mid_flight_drops_the_message(self):
        async def scenario():
            net = AsyncioNetwork(latency=LatencyModel(base=0.005, per_entry=0.0))
            sink = net.join(Endpoint("sink"))
            sender = net.join(Endpoint("sender"))
            for i in range(3):
                sender.send("sink", m.PingReq(request_id=f"r{i}", reply_to="sender"))
            net.crash("sink")  # after the send, before the 5 ms arrival
            await asyncio.sleep(0.02)
            return net, sink

        net, sink = run(scenario())
        assert sink.unhandled == []
        assert net.stats.messages_dropped == 3
        assert net.stats.messages_delivered == 0

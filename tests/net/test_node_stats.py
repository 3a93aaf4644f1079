"""``NodeStatsRes`` counts each receive-path rejection once: a server's
quarantine and stale-epoch verdicts already reach its transport's stats
through its context, so the node's answer reads the transport alone."""

import asyncio

from repro.core import messages as m
from repro.core.hierarchy import build_table2_hierarchy
from repro.core.server import LocationServer
from repro.geo import Point
from repro.model import SightingRecord
from repro.net import control as ctl
from repro.net.address import AddressBook
from repro.net.bootstrap import _install_control_plane
from repro.net.udp import UdpTransport
from repro.runtime.base import Endpoint


async def _node_stats_after(bad: m.UpdateBatchReq) -> tuple[ctl.NodeStatsRes, LocationServer]:
    """One leaf with the launcher control plane on one loopback UDP
    transport; ``bad`` is sent to it, then its node stats are read."""
    book = AddressBook()
    transport = UdpTransport(book=book)
    host, port = await transport.start()
    for address in ("root.0", "driver"):
        book.bind(address, host, port)
    server = LocationServer(build_table2_hierarchy().config("root.0"), sighting_ttl=1e9)
    server.topology_epoch = 5
    _install_control_plane(server, transport, asyncio.Event())
    transport.join(server)
    driver = transport.join(Endpoint("driver"))
    try:
        driver.send("root.0", bad)
        await asyncio.sleep(0.1)
        res = await driver.request(
            "root.0",
            ctl.NodeStatsReq(request_id=driver.next_request_id(), reply_to="driver"),
            timeout=2.0,
        )
    finally:
        await transport.stop()
    assert isinstance(res, ctl.NodeStatsRes)
    return res, server


def _batch(pos: Point, epoch: int) -> m.UpdateBatchReq:
    return m.UpdateBatchReq(
        request_id="bad",
        reply_to="driver",
        sightings=(SightingRecord("o1", 0.0, pos, 10.0),),
        epoch=epoch,
    )


class TestNodeStatsCountsOnce:
    def test_one_quarantined_message_reads_one(self):
        res, server = asyncio.run(
            _node_stats_after(_batch(Point(float("nan"), float("nan")), epoch=5))
        )
        assert server.stats.messages_quarantined == 1
        assert res.messages_quarantined == 1
        assert res.stale_epoch_rejected == 0

    def test_one_stale_epoch_rejection_reads_one(self):
        res, server = asyncio.run(_node_stats_after(_batch(Point(10.0, 10.0), epoch=0)))
        assert server.stats.stale_epoch_rejected == 1
        assert res.stale_epoch_rejected == 1
        assert res.messages_quarantined == 0

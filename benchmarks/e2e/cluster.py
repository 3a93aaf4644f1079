"""The three lanes: five real ``LocationServer``s in one process, one loop.

Wire lanes give every server its **own** ``UdpTransport``/``TcpTransport``
on a loopback port, plus one transport for the driver's endpoints, all
sharing one ``AddressBook``.  Every driver<->server and server<->server hop
therefore pays encode -> socket -> decode + CRC -> validate exactly as in
the multi-process deployment, without a ``ClusterLauncher``: on two cores a
six-process cluster would measure the scheduler, and a child process that
outlives the run is what got the previous benchmark refused.

The in-process lane is ``AsyncioNetwork`` with latency switched off (its
default 100 us turns into ~1 ms timer sleeps per hop).
"""

from __future__ import annotations

from repro.core.hierarchy import build_table2_hierarchy
from repro.core.server import LocationServer
from repro.geo import Point
from repro.model import SightingRecord
from repro.net.address import AddressBook
from repro.net.tcp import TcpTransport
from repro.net.udp import UdpTransport
from repro.runtime.asyncio_rt import AsyncioNetwork
from repro.runtime.latency import LatencyModel

from workloads import AREA_SIDE, NN_RADIUS, Inputs

_TRANSPORTS = {"udp": UdpTransport, "tcp": TcpTransport}
SENSOR_ACC = 10.0
DES_ACC, MIN_ACC = 25.0, 100.0


class Cluster:
    """Root + four leaves on one lane, populated, ready for traffic."""

    def __init__(self, lane: str, backend: str | None) -> None:
        self.lane = lane
        self.hierarchy = build_table2_hierarchy(AREA_SIDE)
        # Only what the lane needs is pinned: soft state off, and an NN
        # start radius that does not haul every object into one answer
        # (the default would, and times out over UDP).  Backend and index
        # stay LocationServer()'s defaults unless the workload pins them.
        options = {"sighting_ttl": 1e9, "nn_initial_radius": NN_RADIUS}
        if backend is not None:
            options["backend"] = backend
        self.servers = {
            server_id: LocationServer(self.hierarchy.config(server_id), **options)
            for server_id in self.hierarchy.server_ids()
        }
        for server in self.servers.values():
            server.topology_epoch = self.hierarchy.epoch
        self.network: AsyncioNetwork | None = None
        self.book = AddressBook()
        #: server transports first, the driver's transport last.
        self.transports: list = []

    async def start(self) -> None:
        if self.lane == "inproc":
            self.network = AsyncioNetwork(latency=LatencyModel(base=0.0, per_entry=0.0))
            for server in self.servers.values():
                self.network.join(server)
            return
        transport_cls = _TRANSPORTS[self.lane]
        for server_id, server in self.servers.items():
            transport = transport_cls(book=self.book)
            self.transports.append(transport)
            host, port = await transport.start()
            self.book.bind(server_id, host, port)
            transport.join(server)
        driver_side = transport_cls(book=self.book)
        self.transports.append(driver_side)
        await driver_side.start()

    def join(self, endpoint):
        """Attach a driver endpoint (reporter, query client)."""
        if self.network is not None:
            return self.network.join(endpoint)
        driver_side = self.transports[-1]
        self.book.bind(endpoint.address, driver_side.host, driver_side.port)
        return driver_side.join(endpoint)

    def populate(self, inputs: Inputs) -> None:
        """Register every object straight into its leaf store and install the
        forwarding path above it (what ``sim.scenario.table2_service`` does)."""
        hierarchy = self.hierarchy
        paths = {leaf: hierarchy.path_to_root(leaf) for leaf in hierarchy.leaf_ids()}
        for oid, x, y in zip(inputs.object_ids, inputs.start_xs, inputs.start_ys):
            pos = Point(x, y)
            path = paths[hierarchy.leaf_for_point(pos)]
            self.servers[path[0]].store.register(
                SightingRecord(oid, 0.0, pos, SENSOR_ACC), DES_ACC, MIN_ACC, "bench", now=0.0
            )
            for below, above in zip(path, path[1:]):
                self.servers[above].visitors.insert_forward(oid, below)

    def network_stats(self) -> list:
        """The ``NetworkStats`` of every transport (or of the one network)."""
        if self.network is not None:
            return [self.network.stats]
        return [transport.stats for transport in self.transports]

    async def stop(self) -> None:
        if self.network is not None:
            await self.network.quiesce()
        for transport in self.transports:
            await transport.stop()

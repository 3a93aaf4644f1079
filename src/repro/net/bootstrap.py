"""Multi-process cluster bootstrap: one OS process per location server.

The launcher takes the same :class:`~repro.core.hierarchy.Hierarchy`
spec every in-process runtime takes, spawns each
:class:`~repro.core.server.LocationServer` in its own process
(``multiprocessing`` *spawn* — nothing is inherited except the
serialized :class:`ClusterSpec` and one end of a pipe), and keeps a
driver-side transport + control endpoint in the calling process for
workload traffic and cluster operations.

The spawn pipe is a node's one lifecycle channel:

* **Bind first** — every node binds port 0 and sends the address it got
  up its pipe; the launcher builds the address book from those and sends
  it down to every node, and each node answers "ready" once its server
  is joined.  No port is guessed before it is bound, and every socket
  exists before any node holds a book it could send with.
* **Shutdown** — the launcher sends "stop" down each pipe, leaves
  first, and terminates stragglers after a grace period.  A node also
  stops when it reads EOF, so a launcher that dies leaves no node behind.
* **Epoch adoption** — :meth:`ClusterLauncher.adopt_hierarchy` pushes
  an epoch-bumped hierarchy to every node and collects each node's
  post-adoption epoch, the cross-process counterpart of
  :meth:`~repro.core.service.LocationService.adopt_hierarchy`.

Every logical address crosses :func:`repro.net.address.validate_address`
when the launcher is built — a malformed server id fails before a single
process is spawned.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import zlib
from dataclasses import dataclass

from repro.core.hierarchy import Hierarchy, decode_hierarchy, encode_hierarchy
from repro.errors import TransportError
from repro.net import control as ctl
from repro.net.address import validate_address
from repro.net.tcp import TcpTransport
from repro.net.udp import UdpTransport
from repro.runtime.base import Endpoint

__all__ = ["ClusterSpec", "ClusterLauncher", "make_transport", "node_server", "run_node"]

_TRANSPORTS = {"udp": UdpTransport, "tcp": TcpTransport}

#: Sighting lifetime on every node: soft state disabled, as in the
#: measurement scenarios.
SIGHTING_TTL = 1e9

#: Seconds :meth:`ClusterLauncher.start` waits for every node's address
#: and then its "ready".
READY_TIMEOUT = 15.0

#: The receive-path defense counters of ``NetworkStats`` (and of
#: :class:`~repro.net.control.NodeStatsRes`).
DEFENSE_COUNTERS = ("frames_corrupted", "messages_quarantined", "stale_epoch_rejected")


def make_transport(kind: str, **kwargs):
    """Instantiate a transport by its spec tag (``"udp"`` | ``"tcp"``)."""
    try:
        cls = _TRANSPORTS[kind]
    except KeyError:
        raise TransportError(f"unknown transport kind {kind!r}") from None
    return cls(**kwargs)


@dataclass
class ClusterSpec:
    """Everything a node process needs, in one JSON-serializable record."""

    hierarchy: Hierarchy
    #: the interface every node binds (its port is the kernel's pick).
    host: str = "127.0.0.1"
    transport: str = "udp"
    #: sender-side datagram loss applied inside every node (and the
    #: driver), for the UDP-loss acceptance lane.
    drop_rate: float = 0.0
    seed: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "hierarchy": encode_hierarchy(self.hierarchy),
                "host": self.host,
                "transport": self.transport,
                "drop_rate": self.drop_rate,
                "seed": self.seed,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ClusterSpec":
        payload = json.loads(text)
        payload["hierarchy"] = decode_hierarchy(payload["hierarchy"])
        return cls(**payload)


def bfs_order(hierarchy: Hierarchy) -> list[str]:
    """Server ids top-down from the root (shutdown runs it reversed)."""
    order: list[str] = []
    frontier = [hierarchy.root_id]
    while frontier:
        server_id = frontier.pop(0)
        order.append(server_id)
        config = hierarchy.config(server_id)
        frontier.extend(child.server_id for child in config.children)
    return order


async def _recv(conn):
    """The next object from pipe end ``conn``, awaited without blocking
    the loop; raises ``EOFError`` once the other end is closed."""
    loop = asyncio.get_running_loop()
    readable = loop.create_future()
    loop.add_reader(conn.fileno(), lambda: readable.done() or readable.set_result(None))
    try:
        await readable
    finally:
        loop.remove_reader(conn.fileno())
    return conn.recv()


# ---------------------------------------------------------------------------
# Node side (child process)
# ---------------------------------------------------------------------------


def _install_control_plane(server, transport) -> None:
    """Register launcher control handlers on the server endpoint."""

    def on_stats(msg: ctl.NodeStatsReq) -> None:
        tracked = len(server.store.sightings) if server.is_leaf else 0
        server.send(
            msg.reply_to,
            ctl.NodeStatsRes(
                request_id=msg.request_id,
                server_id=server.address,
                tracked=tracked,
                epoch=getattr(server, "topology_epoch", 0),
                messages_sent=transport.stats.messages_sent,
                messages_delivered=transport.stats.messages_delivered,
                messages_dropped=transport.stats.messages_dropped,
                dead_letters=transport.stats.dead_letters,
                frames_corrupted=transport.stats.frames_corrupted,
                # The server's own rejections reach these through its ctx.
                messages_quarantined=transport.stats.messages_quarantined,
                stale_epoch_rejected=transport.stats.stale_epoch_rejected,
            ),
        )

    def on_adopt(msg: ctl.AdoptHierarchyReq) -> None:
        hierarchy = Hierarchy(
            {config.server_id: config for config in msg.configs},
            epoch=msg.hierarchy_epoch,
        )
        if hierarchy.epoch > getattr(server, "topology_epoch", 0):
            server.topology_epoch = hierarchy.epoch
            if server.address in hierarchy.configs:
                server.config = hierarchy.config(server.address)
        server.send(
            msg.reply_to,
            ctl.AdoptHierarchyRes(
                request_id=msg.request_id,
                server_id=server.address,
                epoch=getattr(server, "topology_epoch", 0),
            ),
        )

    server.on(ctl.NodeStatsReq, on_stats)
    server.on(ctl.AdoptHierarchyReq, on_adopt)


def node_server(hierarchy: Hierarchy, server_id: str):
    """The :class:`~repro.core.server.LocationServer` a cluster node runs
    (the default store backend), at ``hierarchy``'s topology epoch —
    in a node process here, in the driver's process on the in-process
    runtimes of :data:`repro.net.scenario.RUNTIMES`."""
    from repro.core.server import LocationServer  # deferred: heavy import

    server = LocationServer(hierarchy.config(server_id), sighting_ttl=SIGHTING_TTL)
    server.topology_epoch = hierarchy.epoch
    return server


def node_seed(seed: int, server_id: str) -> int:
    """The transport RNG seed of node ``server_id`` in a cluster seeded
    ``seed``.  ``crc32``, not ``hash``: ``hash(str)`` is salted per
    process, so a lossy run would drop different messages every time."""
    return seed + zlib.crc32(server_id.encode()) % 10_000


async def _node_main(spec: ClusterSpec, server_id: str, conn) -> None:
    transport = make_transport(
        spec.transport,
        host=spec.host,
        drop_rate=spec.drop_rate,
        seed=node_seed(spec.seed, server_id),
    )
    address = await transport.start()
    try:
        conn.send(address)
        transport.book.load(await _recv(conn))
        server = node_server(spec.hierarchy, server_id)
        _install_control_plane(server, transport)
        transport.join(server)
        conn.send("ready")
        await _recv(conn)  # "stop"
    except (EOFError, ConnectionError):
        pass  # the launcher is gone, or gave up on starting
    # Let trailing protocol answers flush.
    await asyncio.sleep(0.05)
    await transport.stop()


def run_node(spec_json: str, server_id: str, conn) -> None:
    """Child-process entry point (must stay module-level: *spawn* pickles
    the callable by qualified name).  ``conn`` is the node's end of its
    spawn pipe."""
    spec = ClusterSpec.from_json(spec_json)
    asyncio.run(_node_main(spec, server_id, conn))


# ---------------------------------------------------------------------------
# Driver side (parent process)
# ---------------------------------------------------------------------------


class ClusterLauncher:
    """Spawn, operate and stop a cluster of node processes.

    Usage (driver side, inside a running event loop)::

        launcher = ClusterLauncher(build_table2_hierarchy())
        await launcher.start()
        try:
            reporter = launcher.join(MyEndpoint("reporter-1"))
            ...  # ordinary Endpoint request/send traffic
        finally:
            await launcher.stop()
    """

    DRIVER_ADDRESS = "driver"

    def __init__(
        self,
        hierarchy: Hierarchy,
        transport: str = "udp",
        host: str = "127.0.0.1",
        drop_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        for server_id in hierarchy.server_ids():
            validate_address(server_id, what="server id")
        self.hierarchy = hierarchy
        self.transport_kind = transport
        self.host = host
        self.drop_rate = drop_rate
        self.seed = seed
        self.order = bfs_order(hierarchy)
        self.transport = None  # driver-side transport, set by start()
        self.control: Endpoint | None = None
        self._processes: dict[str, multiprocessing.process.BaseProcess] = {}
        #: the launcher's end of each node's spawn pipe
        self._pipes: dict[str, multiprocessing.connection.Connection] = {}

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "ClusterLauncher":
        self.transport = make_transport(
            self.transport_kind,
            host=self.host,
            drop_rate=self.drop_rate,
            seed=self.seed,
        )
        book = self.transport.book
        # Every address no node is bound to is a driver-side endpoint.
        book.fallback = await self.transport.start()
        self.control = self.transport.join(Endpoint(self.DRIVER_ADDRESS))
        spec_json = ClusterSpec(
            hierarchy=self.hierarchy,
            host=self.host,
            transport=self.transport_kind,
            drop_rate=self.drop_rate,
            seed=self.seed,
        ).to_json()
        mp = multiprocessing.get_context("spawn")
        try:
            for server_id in self.order:
                mine, theirs = mp.Pipe()
                process = mp.Process(
                    target=run_node,
                    args=(spec_json, server_id, theirs),
                    name=f"ls-node-{server_id}",
                    daemon=True,
                )
                process.start()
                theirs.close()  # so a node that dies reads as EOF here
                self._processes[server_id] = process
                self._pipes[server_id] = mine
            deadline = asyncio.get_running_loop().time() + READY_TIMEOUT
            for server_id in self.order:
                book.bind(server_id, *await self._read(server_id, deadline))
            for conn in self._pipes.values():
                conn.send(book.to_wire())
            for server_id in self.order:
                await self._read(server_id, deadline)  # "ready"
        except BaseException:
            for conn in self._pipes.values():
                conn.close()  # a node still waiting for its book reads EOF
            await self.stop()
            raise
        return self

    async def _read(self, server_id: str, deadline: float):
        """The next object node ``server_id`` sends up its pipe."""
        loop = asyncio.get_running_loop()
        try:
            return await asyncio.wait_for(
                _recv(self._pipes[server_id]), deadline - loop.time()
            )
        except (EOFError, ConnectionError, TimeoutError):
            process = self._processes[server_id]
            # A node that closed its pipe is exiting: wait for its code.
            await loop.run_in_executor(None, process.join, 0.5)
            raise TransportError(
                f"node {server_id!r} did not start (exit code {process.exitcode},"
                f" deadline {READY_TIMEOUT}s)"
            ) from None

    async def stop(self, grace: float = 5.0) -> None:
        if self.transport is None:
            return
        loop = asyncio.get_running_loop()
        bottom_up = list(reversed(self._processes))  # leaves first
        for server_id in bottom_up:
            try:
                self._pipes[server_id].send("stop")
            except OSError:
                pass  # the node or its pipe is gone already
        deadline = loop.time() + grace
        for server_id in bottom_up:
            process = self._processes[server_id]
            remaining = max(deadline - loop.time(), 0.1)
            await loop.run_in_executor(None, process.join, remaining)
            if process.is_alive():
                process.terminate()
            self._pipes[server_id].close()
        self._processes.clear()
        self._pipes.clear()
        await self.transport.stop()
        self.transport = None
        self.control = None

    # -- driver-side endpoints --------------------------------------------

    def join(self, endpoint: Endpoint) -> Endpoint:
        """Attach a workload endpoint to the driver transport."""
        assert self.transport is not None, "launcher not started"
        return self.transport.join(endpoint)

    # -- cluster operations ------------------------------------------------

    async def node_stats(self, server_id: str) -> ctl.NodeStatsRes:
        res = await self.control.ask(
            server_id,
            lambda rid: ctl.NodeStatsReq(request_id=rid, reply_to=self.DRIVER_ADDRESS),
            timeout=1.0,
            retries=10,
        )
        assert isinstance(res, ctl.NodeStatsRes)
        return res

    async def total_tracked(self) -> int:
        """Sum of tracked objects across every leaf node (cross-process
        counterpart of ``LocationService.total_tracked``)."""
        total = 0
        for server_id in self.order:
            if self.hierarchy.config(server_id).is_leaf:
                total += (await self.node_stats(server_id)).tracked
        return total

    async def defense_totals(self) -> dict[str, int]:
        """Cluster-wide receive-path defense counters: the trailing
        :class:`~repro.net.control.NodeStatsRes` fields summed over every
        node (a node that omits them on the wire contributes 0)."""
        stats = [await self.node_stats(server_id) for server_id in self.order]
        return {name: sum(getattr(s, name) for s in stats) for name in DEFENSE_COUNTERS}

    async def adopt_hierarchy(self, hierarchy: Hierarchy) -> dict[str, int]:
        """Push an epoch bump to every node; returns id → adopted epoch."""
        if hierarchy.epoch <= self.hierarchy.epoch:
            raise TransportError(
                f"cannot adopt epoch {hierarchy.epoch} over {self.hierarchy.epoch}"
            )
        configs = tuple(hierarchy.configs.values())
        epochs: dict[str, int] = {}
        for server_id in self.order:
            res = await self.control.ask(
                server_id,
                lambda rid: ctl.AdoptHierarchyReq(
                    request_id=rid,
                    reply_to=self.DRIVER_ADDRESS,
                    configs=configs,
                    hierarchy_epoch=hierarchy.epoch,
                ),
                timeout=1.0,
                retries=10,
            )
            assert isinstance(res, ctl.AdoptHierarchyRes)
            epochs[res.server_id] = res.epoch
        self.hierarchy = hierarchy
        return epochs

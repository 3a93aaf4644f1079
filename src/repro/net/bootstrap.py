"""Multi-process cluster bootstrap: one OS process per location server.

The launcher takes the same :class:`~repro.core.hierarchy.Hierarchy`
spec every in-process runtime takes, assigns each server a socket,
spawns each :class:`~repro.core.server.LocationServer` in its own
process (``multiprocessing`` *spawn* — nothing is inherited except the
serialized :class:`ClusterSpec`), and keeps a driver-side transport +
control endpoint in the calling process for workload traffic and
cluster operations:

* **Ordered startup** — processes launch top-down from the root and
  each is ping-probed (the protocol's own ``PingReq``) until it answers
  before the next tier is awaited, so a child never boots into a world
  where its parent's socket does not exist.
* **Ordered shutdown** — the reverse: leaves acknowledge
  ``NodeShutdownReq`` and exit before their parents do; stragglers are
  terminated after a grace period.
* **Epoch adoption** — :meth:`ClusterLauncher.adopt_hierarchy` pushes
  an epoch-bumped hierarchy to every node and collects each node's
  post-adoption epoch, the cross-process counterpart of
  :meth:`~repro.core.service.LocationService.adopt_hierarchy`.

Every logical address crosses :func:`repro.net.address.validate_address`
at spec-build time — a malformed server id fails before a single
process is spawned.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import socket
import zlib
from dataclasses import dataclass, field

from repro.core.hierarchy import Hierarchy, decode_hierarchy, encode_hierarchy
from repro.errors import TransportError
from repro.net import control as ctl
from repro.net.address import AddressBook, validate_address
from repro.net.tcp import TcpTransport
from repro.net.udp import UdpTransport
from repro.runtime.base import Endpoint

__all__ = ["ClusterSpec", "ClusterLauncher", "make_transport", "node_server", "run_node"]

_TRANSPORTS = {"udp": UdpTransport, "tcp": TcpTransport}

#: Sighting lifetime on every node: soft state disabled, as in the
#: measurement scenarios.
SIGHTING_TTL = 1e9

#: Seconds :meth:`ClusterLauncher.wait_ready` ping-probes a node for.
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
    book: AddressBook
    transport: str = "udp"
    #: sender-side datagram loss applied inside every node (and the
    #: driver), for the UDP-loss acceptance lane.
    drop_rate: float = 0.0
    seed: int = 0
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "hierarchy": encode_hierarchy(self.hierarchy),
                "book": self.book.to_wire(),
                "transport": self.transport,
                "drop_rate": self.drop_rate,
                "seed": self.seed,
                "extra": self.extra,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ClusterSpec":
        payload = json.loads(text)
        return cls(
            hierarchy=decode_hierarchy(payload["hierarchy"]),
            book=AddressBook.from_wire(payload["book"]),
            transport=payload["transport"],
            drop_rate=payload["drop_rate"],
            seed=payload["seed"],
            extra=payload.get("extra", {}),
        )


def bfs_order(hierarchy: Hierarchy) -> list[str]:
    """Server ids top-down from the root (startup order)."""
    order: list[str] = []
    frontier = [hierarchy.root_id]
    while frontier:
        server_id = frontier.pop(0)
        order.append(server_id)
        config = hierarchy.config(server_id)
        frontier.extend(child.server_id for child in config.children)
    return order


def free_port(host: str = "127.0.0.1") -> int:
    """Ask the kernel for a currently free TCP/UDP port number."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


# ---------------------------------------------------------------------------
# Node side (child process)
# ---------------------------------------------------------------------------


def _install_control_plane(server, transport, stop_event: asyncio.Event) -> None:
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

    def on_shutdown(msg: ctl.NodeShutdownReq) -> None:
        server.send(
            msg.reply_to,
            ctl.NodeShutdownRes(request_id=msg.request_id, server_id=server.address),
        )
        stop_event.set()

    server.on(ctl.NodeStatsReq, on_stats)
    server.on(ctl.AdoptHierarchyReq, on_adopt)
    server.on(ctl.NodeShutdownReq, on_shutdown)


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


async def _node_main(spec: ClusterSpec, server_id: str) -> None:
    location = spec.book.resolve(server_id)
    if location is None or not spec.book.knows(server_id):
        raise TransportError(f"spec has no socket for node {server_id!r}")
    transport = make_transport(
        spec.transport,
        host=location[0],
        port=location[1],
        book=spec.book,
        drop_rate=spec.drop_rate,
        seed=node_seed(spec.seed, server_id),
    )
    await transport.start()
    server = node_server(spec.hierarchy, server_id)
    stop_event = asyncio.Event()
    _install_control_plane(server, transport, stop_event)
    transport.join(server)
    await stop_event.wait()
    # Let the shutdown ack (and any trailing protocol answers) flush.
    await asyncio.sleep(0.05)
    await transport.stop()


def run_node(spec_json: str, server_id: str) -> None:
    """Child-process entry point (must stay module-level: *spawn* pickles
    the callable by qualified name)."""
    spec = ClusterSpec.from_json(spec_json)
    asyncio.run(_node_main(spec, server_id))


# ---------------------------------------------------------------------------
# Driver side (parent process)
# ---------------------------------------------------------------------------


class ClusterLauncher:
    """Spawn, probe, operate and stop a cluster of node processes.

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
        self._spec: ClusterSpec | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "ClusterLauncher":
        driver_location = (self.host, free_port(self.host))
        book = AddressBook(fallback=driver_location)
        book.bind(self.DRIVER_ADDRESS, *driver_location)
        for server_id in self.order:
            book.bind(server_id, self.host, free_port(self.host))
        self._spec = ClusterSpec(
            hierarchy=self.hierarchy,
            book=book,
            transport=self.transport_kind,
            drop_rate=self.drop_rate,
            seed=self.seed,
        )
        self.transport = make_transport(
            self.transport_kind,
            host=driver_location[0],
            port=driver_location[1],
            book=book,
            drop_rate=self.drop_rate,
            seed=self.seed,
        )
        await self.transport.start()
        self.control = self.transport.join(Endpoint(self.DRIVER_ADDRESS))
        spec_json = self._spec.to_json()
        mp = multiprocessing.get_context("spawn")
        for server_id in self.order:  # top-down: root first
            process = mp.Process(
                target=run_node,
                args=(spec_json, server_id),
                name=f"ls-node-{server_id}",
                daemon=True,
            )
            process.start()
            self._processes[server_id] = process
        for server_id in self.order:
            await self.wait_ready(server_id)
        return self

    async def stop(self, grace: float = 5.0) -> None:
        if self.transport is None:
            return
        for server_id in reversed(self.order):  # bottom-up: leaves first
            process = self._processes.get(server_id)
            if process is None or not process.is_alive():
                continue
            try:
                await self.control.ask(
                    server_id,
                    lambda rid: ctl.NodeShutdownReq(
                        request_id=rid, reply_to=self.DRIVER_ADDRESS
                    ),
                    timeout=1.0,
                    retries=3,
                )
            except TransportError:
                pass  # fall through to terminate below
        deadline = asyncio.get_event_loop().time() + grace
        for server_id, process in self._processes.items():
            remaining = max(deadline - asyncio.get_event_loop().time(), 0.1)
            await asyncio.get_event_loop().run_in_executor(
                None, process.join, remaining
            )
            if process.is_alive():
                process.terminate()
        self._processes.clear()
        await self.transport.stop()
        self.transport = None
        self.control = None

    # -- driver-side endpoints --------------------------------------------

    def join(self, endpoint: Endpoint) -> Endpoint:
        """Attach a workload endpoint to the driver transport."""
        assert self.transport is not None, "launcher not started"
        return self.transport.join(endpoint)

    # -- cluster operations ------------------------------------------------

    async def wait_ready(self, server_id: str) -> None:
        """Ping-probe one node until it answers (startup barrier)."""
        from repro.core import messages as m

        try:
            await self.control.ask(
                server_id,
                lambda rid: m.PingReq(request_id=rid, reply_to=self.DRIVER_ADDRESS),
                timeout=0.25,
                retries=int(READY_TIMEOUT / 0.25),
            )
        except TransportError:
            raise TransportError(
                f"node {server_id!r} did not become ready within {READY_TIMEOUT}s"
            ) from None

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

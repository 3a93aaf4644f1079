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
from dataclasses import dataclass, field

from repro.core.hierarchy import Hierarchy, decode_hierarchy, encode_hierarchy
from repro.errors import TransportError
from repro.net import control as ctl
from repro.net.address import AddressBook, validate_address
from repro.net.tcp import TcpTransport
from repro.net.udp import UdpTransport
from repro.runtime.base import Endpoint

__all__ = ["ClusterSpec", "ClusterLauncher", "make_transport", "run_node"]

_TRANSPORTS = {"udp": UdpTransport, "tcp": TcpTransport}


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
    #: soft state disabled by default, as in the measurement scenarios.
    sighting_ttl: float = 1e9
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
                "sighting_ttl": self.sighting_ttl,
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
            sighting_ttl=payload["sighting_ttl"],
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

    async def on_stats(msg: ctl.NodeStatsReq) -> None:
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

    async def on_adopt(msg: ctl.AdoptHierarchyReq) -> None:
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

    async def on_shutdown(msg: ctl.NodeShutdownReq) -> None:
        server.send(
            msg.reply_to,
            ctl.NodeShutdownRes(request_id=msg.request_id, server_id=server.address),
        )
        stop_event.set()

    server.on(ctl.NodeStatsReq, on_stats)
    server.on(ctl.AdoptHierarchyReq, on_adopt)
    server.on(ctl.NodeShutdownReq, on_shutdown)


def _node_server(spec: ClusterSpec, server_id: str):
    """The :class:`~repro.core.server.LocationServer` a node process runs
    (the default store backend, as in-process)."""
    from repro.core.server import LocationServer  # deferred: heavy import

    server = LocationServer(spec.hierarchy.config(server_id), sighting_ttl=spec.sighting_ttl)
    server.topology_epoch = spec.hierarchy.epoch
    return server


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
        seed=spec.seed + hash(server_id) % 10_000,
    )
    await transport.start()
    server = _node_server(spec, server_id)
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
        sighting_ttl: float = 1e9,
        drop_rate: float = 0.0,
        seed: int = 0,
        ready_timeout: float = 15.0,
    ) -> None:
        for server_id in hierarchy.server_ids():
            validate_address(server_id, what="server id")
        self.hierarchy = hierarchy
        self.transport_kind = transport
        self.host = host
        self.sighting_ttl = sighting_ttl
        self.drop_rate = drop_rate
        self.seed = seed
        self.ready_timeout = ready_timeout
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
            sighting_ttl=self.sighting_ttl,
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
                await self.request(
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

    async def request(self, dest: str, make_message, timeout: float, retries: int):
        """Send a control request with per-attempt fresh ids and retries."""
        assert self.control is not None, "launcher not started"
        last: TransportError | None = None
        for _ in range(retries + 1):
            request_id = self.control.next_request_id()
            try:
                return await self.control.request(
                    dest, make_message(request_id), timeout=timeout
                )
            except TransportError as exc:
                last = exc
        raise TransportError(f"control request to {dest} failed: {last}")

    async def wait_ready(self, server_id: str) -> None:
        """Ping-probe one node until it answers (startup barrier)."""
        from repro.core import messages as m

        attempts = max(int(self.ready_timeout / 0.25), 1)
        try:
            await self.request(
                server_id,
                lambda rid: m.PingReq(request_id=rid, reply_to=self.DRIVER_ADDRESS),
                timeout=0.25,
                retries=attempts,
            )
        except TransportError:
            raise TransportError(
                f"node {server_id!r} did not become ready within "
                f"{self.ready_timeout}s"
            ) from None

    async def node_stats(self, server_id: str) -> ctl.NodeStatsRes:
        res = await self.request(
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
        """Cluster-wide receive-path defense counters (PR 9).

        Sums the trailing :class:`~repro.net.control.NodeStatsRes`
        fields over every node; a pre-PR-9 node that omits them on the
        wire contributes the schema-evolution defaults (0)."""
        totals = {
            "frames_corrupted": 0,
            "messages_quarantined": 0,
            "stale_epoch_rejected": 0,
        }
        for server_id in self.order:
            stats = await self.node_stats(server_id)
            totals["frames_corrupted"] += stats.frames_corrupted
            totals["messages_quarantined"] += stats.messages_quarantined
            totals["stale_epoch_rejected"] += stats.stale_epoch_rejected
        return totals

    async def adopt_hierarchy(self, hierarchy: Hierarchy) -> dict[str, int]:
        """Push an epoch bump to every node; returns id → adopted epoch."""
        if hierarchy.epoch <= self.hierarchy.epoch:
            raise TransportError(
                f"cannot adopt epoch {hierarchy.epoch} over {self.hierarchy.epoch}"
            )
        configs = tuple(hierarchy.configs.values())
        epochs: dict[str, int] = {}
        for server_id in self.order:
            res = await self.request(
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

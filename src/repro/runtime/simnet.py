"""Deterministic simulated network runtime.

Replaces the paper's five-machine UDP testbed.  Message
sends become events on the shared :class:`~repro.sim.engine.SimLoop`:

1. a one-way **latency** (from the :class:`LatencyModel`) delays arrival,
2. the receiving endpoint's single virtual CPU serialises processing —
   each message occupies the CPU for its :class:`CostModel` service time
   before its handler coroutine starts.

Failure injection supports the paper's soft-state and recovery stories:
endpoints can be crashed (messages to them vanish) and restored, and a
wildcard ``FaultInjector`` rule models UDP loss.  What the fabric does
to one send — dead letter, crash loss, injected fault — is decided by
:func:`~repro.runtime.base.admit_send`, the same step every runtime uses.
"""

from __future__ import annotations

from typing import Awaitable, Callable, Coroutine

from repro.errors import TransportError
from repro.runtime.base import Context, Endpoint, Message, NetworkStats, admit_send
from repro.runtime.latency import CostModel, LatencyModel
from repro.sim.engine import SimLoop


class SimContext(Context):
    """Context binding one endpoint to a :class:`SimNetwork`."""

    __slots__ = ("_network", "_address")

    def __init__(self, network: "SimNetwork", address: str) -> None:
        self._network = network
        self._address = address

    @property
    def address(self) -> str:
        return self._address

    def now(self) -> float:
        return self._network.loop.now

    def send(self, dest: str, message: Message) -> None:
        self._network.transmit(self._address, dest, message)

    def create_future(self):
        return self._network.loop.create_future()

    def call_later(self, delay: float, callback: Callable[[], None]):
        return self._network.loop.call_later(delay, callback)

    def spawn(self, coro: Coroutine, name: str = "task"):
        return self._network.loop.create_task(coro, name=name)

    def sleep(self, delay: float) -> Awaitable[None]:
        return self._network.loop.sleep(delay)

    def note_quarantined(self, count: int = 1) -> None:
        self._network.stats.messages_quarantined += count

    def note_stale_rejected(self, count: int = 1) -> None:
        self._network.stats.stale_epoch_rejected += count


class SimNetwork:
    """All endpoints plus delivery scheduling on one simulation loop.

    Loss on this runtime comes from a ``FaultInjector`` rule, never from
    a drop rate."""

    #: no uniform loss here (:func:`admit_send` reads it).
    drop_rate = 0.0

    def __init__(
        self,
        latency: LatencyModel | None = None,
        costs: CostModel | None = None,
    ) -> None:
        self.loop = SimLoop()
        self.latency = latency if latency is not None else LatencyModel()
        self.costs = costs if costs is not None else CostModel.zero()
        self.stats = NetworkStats()
        #: optional :class:`repro.chaos.FaultInjector` consulted on every
        #: transmission (after the crash checks); installed by the
        #: chaos layer, ``None`` in ordinary runs.
        self.fault_injector = None
        self._endpoints: dict[str, Endpoint] = {}
        self._busy_until: dict[str, float] = {}
        self._down: set[str] = set()
        self._in_flight = 0  # payloads sent, not yet delivered or dropped

    @property
    def quiescent(self) -> bool:
        """Nothing in flight, no endpoint waiting: ``check_consistency`` holds."""
        return not self._in_flight and not any(e.pending_count for e in self._endpoints.values())

    # -- membership -------------------------------------------------------

    def join(self, endpoint: Endpoint) -> Endpoint:
        """Register an endpoint and attach its context."""
        if endpoint.address in self._endpoints:
            raise TransportError(f"address {endpoint.address!r} already joined")
        self._endpoints[endpoint.address] = endpoint
        self._busy_until[endpoint.address] = 0.0
        endpoint.attach(SimContext(self, endpoint.address))
        return endpoint

    def endpoint(self, address: str) -> Endpoint:
        return self._endpoints[address]

    def leave(self, address: str) -> None:
        """Remove an endpoint from the network (retired-alias garbage
        collection).  Messages later addressed to it become dead letters,
        exactly as for an address that never joined."""
        self._endpoints.pop(address, None)
        self._busy_until.pop(address, None)
        self._down.discard(address)

    def addresses(self) -> list[str]:
        return sorted(self._endpoints)

    # -- failure injection ----------------------------------------------------

    def crash(self, address: str) -> None:
        """Take an endpoint down; in-flight and future messages vanish."""
        self._down.add(address)

    def restore(self, address: str) -> None:
        """Bring an endpoint back; its volatile state is its own concern.

        A no-op for an address that :meth:`leave` removed — a departed
        endpoint has nothing to restore.
        """
        self._down.discard(address)
        if address in self._endpoints:
            self._busy_until[address] = max(
                self._busy_until.get(address, 0.0), self.loop.now
            )

    def is_down(self, address: str) -> bool:
        return address in self._down

    # -- transmission ------------------------------------------------------------

    def transmit(self, src: str, dst: str, message: Message) -> None:
        admitted = admit_send(self, src, dst, message, dst in self._endpoints)
        if admitted is None:
            return
        payloads, extra_delay = admitted
        delay = self.latency.delay(src, dst, payloads[0]) + extra_delay
        self._in_flight += len(payloads)
        for payload in payloads:
            self.loop.call_later(delay, lambda payload=payload: self._arrive(dst, payload))

    def _arrive(self, dst: str, message: Message) -> None:
        if dst in self._down or dst not in self._endpoints:
            self._deliver(dst, message)  # counts the loss
            return
        service = self.costs.service_time(message, dst=dst)
        start = max(self.loop.now, self._busy_until[dst])
        ready = start + service
        self._busy_until[dst] = ready
        if ready <= self.loop.now:
            self._deliver(dst, message)
        else:
            self.loop.call_at(ready, lambda: self._deliver(dst, message))

    def _deliver(self, dst: str, message: Message) -> None:
        self._in_flight -= 1
        if dst in self._down:
            self.stats.messages_dropped += 1
            return
        endpoint = self._endpoints.get(dst)
        if endpoint is None:  # left the network while in flight
            self.stats.dead_letters += 1
            return
        self.stats.messages_delivered += 1
        endpoint.deliver(message)

    # -- convenience for tests and benches ------------------------------------------

    def run(self, max_time: float | None = None) -> float:
        """Drain the event queue; returns final virtual time."""
        return self.loop.run_until_idle(max_time=max_time)

    def run_coro(self, coro: Coroutine, max_time: float | None = None):
        """Drive one coroutine to completion on the shared loop."""
        return self.loop.run_until_complete(coro, max_time=max_time)

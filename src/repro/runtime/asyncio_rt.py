"""Asyncio runtime: the same server code under real concurrency.

The measurement runtime (:mod:`repro.runtime.simnet`) is a virtual-time
simulation; this module runs the *identical* endpoint code on a real
asyncio event loop with wall-clock latencies.  It exists to demonstrate
that the Section-6 algorithms are not simulation artifacts — integration
tests register, update, hand over and query against it — and to serve as
a template for a socket-based deployment (swap :class:`AsyncioNetwork`'s
in-process delivery for UDP datagrams and the endpoints are unchanged;
the paper's prototype used UDP precisely this way).
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Coroutine

from repro.errors import TransportError
from repro.runtime.base import Context, Endpoint, Message, NetworkStats, admit_send
from repro.runtime.latency import LatencyModel


class AsyncioContext(Context):
    """Context binding one endpoint to an :class:`AsyncioNetwork`."""

    __slots__ = ("_network", "_address")

    def __init__(self, network: "AsyncioNetwork", address: str) -> None:
        self._network = network
        self._address = address

    @property
    def address(self) -> str:
        return self._address

    def now(self) -> float:
        return asyncio.get_event_loop().time()

    def send(self, dest: str, message: Message) -> None:
        self._network.transmit(self._address, dest, message)

    def create_future(self) -> asyncio.Future:
        return asyncio.get_event_loop().create_future()

    def call_later(self, delay: float, callback: Callable[[], None]):
        return asyncio.get_event_loop().call_later(delay, callback)

    def spawn(self, coro: Coroutine, name: str = "task") -> asyncio.Task:
        task = asyncio.get_event_loop().create_task(coro, name=name)
        self._network.track_task(task)
        return task

    def sleep(self, delay: float) -> Awaitable[None]:
        return asyncio.sleep(delay)

    def note_quarantined(self, count: int = 1) -> None:
        self._network.stats.messages_quarantined += count

    def note_stale_rejected(self, count: int = 1) -> None:
        self._network.stats.stale_epoch_rejected += count


class AsyncioNetwork:
    """In-process message delivery over a real asyncio loop.

    Latencies from the shared :class:`LatencyModel` become real
    ``asyncio.sleep`` delays.  No CPU cost model: real Python executes
    the handlers.  Loss on this runtime comes from a ``FaultInjector``
    rule, never from a drop rate.
    """

    #: no uniform loss here (:func:`admit_send` reads it).
    drop_rate = 0.0

    def __init__(self, latency: LatencyModel | None = None) -> None:
        self.latency = latency if latency is not None else LatencyModel(base=1e-4)
        self.stats = NetworkStats()
        #: optional :class:`repro.chaos.FaultInjector` consulted on every
        #: transmission (after the crash checks); installed by the chaos
        #: layer, ``None`` in ordinary runs.
        self.fault_injector = None
        self._endpoints: dict[str, Endpoint] = {}
        self._down: set[str] = set()
        self._tasks: set[asyncio.Task] = set()

    def join(self, endpoint: Endpoint) -> Endpoint:
        if endpoint.address in self._endpoints:
            raise TransportError(f"address {endpoint.address!r} already joined")
        self._endpoints[endpoint.address] = endpoint
        endpoint.attach(AsyncioContext(self, endpoint.address))
        return endpoint

    def crash(self, address: str) -> None:
        self._down.add(address)

    def restore(self, address: str) -> None:
        self._down.discard(address)

    def track_task(self, task: asyncio.Task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def transmit(self, src: str, dst: str, message: Message) -> None:
        admitted = admit_send(self, src, dst, message, dst in self._endpoints)
        if admitted is None:
            return
        payloads, extra_delay = admitted
        delay = self.latency.delay(src, dst, payloads[0]) + extra_delay
        loop = asyncio.get_event_loop()
        for payload in payloads:
            if delay <= 0.0:
                loop.call_soon(self._deliver, dst, payload)
            else:
                loop.call_later(delay, self._deliver, dst, payload)

    def _deliver(self, dst: str, message: Message) -> None:
        if dst in self._down:
            self.stats.messages_dropped += 1
            return
        self.stats.messages_delivered += 1
        self._endpoints[dst].deliver(message)

    def transmit_many(self, src: str, dst: str, messages: "list[Message]") -> None:
        # No caller sends batches; kept only because the e2e benchmark's
        # tracer binds this name.
        for message in messages:
            self.transmit(src, dst, message)

    async def quiesce(self) -> None:
        """Wait until all spawned handler tasks have finished."""
        while self._tasks:
            pending = list(self._tasks)
            await asyncio.gather(*pending, return_exceptions=True)

"""Deterministic simulated network runtime.

Replaces the paper's five-machine UDP testbed.  Message
sends become events on the shared :class:`~repro.sim.engine.SimLoop`:

1. a one-way **latency** (from the :class:`LatencyModel`) delays arrival,
2. the receiving endpoint's single virtual CPU serialises processing —
   each message occupies the CPU for its :class:`CostModel` service time
   before its handler coroutine starts.

Failure injection supports the paper's soft-state and recovery stories:
endpoints can be crashed (messages to them vanish) and restored, and a
uniform drop rate can model UDP loss.
"""

from __future__ import annotations

import random
from typing import Awaitable, Callable, Coroutine

from repro.errors import TransportError
from repro.runtime.base import Context, Endpoint, Message, NetworkStats
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

    def send_many(self, dest: str, messages: list[Message]) -> None:
        self._network.transmit_many(self._address, dest, messages)

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
    """All endpoints plus delivery scheduling on one simulation loop."""

    def __init__(
        self,
        loop: SimLoop | None = None,
        latency: LatencyModel | None = None,
        costs: CostModel | None = None,
        drop_rate: float = 0.0,
        seed: int = 0,
        outbox_flush_count: int | None = None,
        outbox_flush_delay: float | None = None,
    ) -> None:
        """``outbox_flush_count`` / ``outbox_flush_delay`` are the
        coalescing outbox's **watermarks** (NIC-batching model): a
        per-(src, dst) bucket flushes as soon as it holds ``count``
        messages, and an armed bucket flushes at latest ``delay``
        virtual seconds after its first message.  Defaults keep the
        original behaviour — flush at the end of the current loop turn —
        which is the ``delay=0`` corner of the same model."""
        self.loop = loop if loop is not None else SimLoop()
        self.latency = latency if latency is not None else LatencyModel()
        self.costs = costs if costs is not None else CostModel.zero()
        self.stats = NetworkStats()
        self.drop_rate = drop_rate
        #: optional :class:`repro.chaos.FaultInjector` consulted on every
        #: transmission (after crash/drop-rate checks); installed by the
        #: chaos layer, ``None`` in ordinary runs.
        self.fault_injector = None
        self._rng = random.Random(seed)
        self._endpoints: dict[str, Endpoint] = {}
        self._busy_until: dict[str, float] = {}
        self._down: set[str] = set()
        #: per-(src, dst) coalescing send buffer for :meth:`transmit_many`;
        #: flushed once per loop turn (or by the watermarks above) so a
        #: burst of batched sends costs one delivery event per destination
        #: instead of one per message.
        self._outbox: dict[tuple[str, str], list[Message]] = {}
        self._flush_scheduled = False
        if outbox_flush_count is not None and outbox_flush_count < 1:
            raise ValueError(
                f"outbox_flush_count must be >= 1, got {outbox_flush_count}"
            )
        if outbox_flush_delay is not None and outbox_flush_delay < 0.0:
            raise ValueError(
                f"outbox_flush_delay must be >= 0, got {outbox_flush_delay}"
            )
        self.outbox_flush_count = outbox_flush_count
        self.outbox_flush_delay = outbox_flush_delay
        #: watermark-triggered (size) flushes, for tests and benches.
        self.watermark_flushes = 0

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
        self.stats.note_send(message)
        if dst not in self._endpoints:
            self.stats.dead_letters += 1
            return
        if dst in self._down or src in self._down:
            self.stats.messages_dropped += 1
            return
        if self.drop_rate > 0.0 and self._rng.random() < self.drop_rate:
            self.stats.messages_dropped += 1
            return
        extra_delay, copies, replay = 0.0, 0, None
        if self.fault_injector is not None:
            deliver, extra_delay, copies, message, replay = (
                self.fault_injector.verdict(src, dst, message)
            )
            if not deliver:
                self.stats.messages_dropped += 1
                return
        delay = self.latency.delay(src, dst, message) + extra_delay
        self.loop.call_later(delay, lambda: self._arrive(dst, message))
        if copies:
            # Injected duplicates: the sender paid for one send, so only
            # the duplicated-delivery counter moves.
            self.stats.messages_duplicated += copies
            for _ in range(copies):
                self.loop.call_later(delay, lambda: self._arrive(dst, message))
        if replay is not None:
            # Manufactured stale-epoch echo (already accounted by the
            # injector); it travels like any other delivery.
            self.loop.call_later(delay, lambda: self._arrive(dst, replay))

    def transmit_many(self, src: str, dst: str, messages: list[Message]) -> None:
        """Buffered batch send: messages queue in a per-(src, dst) outbox
        that flushes at the end of the current loop turn — or earlier /
        later under the constructor's watermarks: a bucket reaching
        ``outbox_flush_count`` messages flushes immediately (bounding
        burstiness), and with ``outbox_flush_delay`` set the sweep runs
        that many virtual seconds after arming instead of next turn
        (letting cross-turn traffic coalesce, with bounded added
        latency).  The whole batch pays one latency computation and one
        delivery event.

        Virtual timing matches back-to-back :meth:`transmit` calls up to
        the batch sharing a single group arrival (the slowest member's
        delay) — the "messages sent together arrive together" behaviour
        of one UDP burst.
        """
        if not messages:
            return
        bucket = self._outbox.setdefault((src, dst), [])
        bucket.extend(messages)
        if (
            self.outbox_flush_count is not None
            and len(bucket) >= self.outbox_flush_count
        ):
            # Size watermark: this bucket is full, flush it now.  Other
            # buckets keep waiting for the scheduled sweep.
            self.watermark_flushes += 1
            del self._outbox[(src, dst)]
            self._transmit_batch(src, dst, bucket)
            return
        if not self._flush_scheduled:
            self._flush_scheduled = True
            if self.outbox_flush_delay:
                self.loop.call_later(self.outbox_flush_delay, self._flush_outbox)
            else:
                self.loop.call_soon(self._flush_outbox)

    def flush(self) -> None:
        """Force the coalescing outbox out immediately (tests/teardown)."""
        if self._outbox:
            self._flush_outbox()

    def _flush_outbox(self) -> None:
        self._flush_scheduled = False
        outbox, self._outbox = self._outbox, {}
        for (src, dst), batch in outbox.items():
            self._transmit_batch(src, dst, batch)

    def _transmit_batch(self, src: str, dst: str, batch: list[Message]) -> None:
        for message in batch:
            self.stats.note_send(message)
        if dst not in self._endpoints:
            self.stats.dead_letters += len(batch)
            return
        if dst in self._down or src in self._down:
            self.stats.messages_dropped += len(batch)
            return
        if self.drop_rate > 0.0:
            survivors = []
            for message in batch:
                if self._rng.random() < self.drop_rate:
                    self.stats.messages_dropped += 1
                else:
                    survivors.append(message)
            batch = survivors
            if not batch:
                return
        extra_delay = 0.0
        if self.fault_injector is not None:
            # Per-message verdicts; the group still arrives together, so
            # the slowest member's injected delay holds the whole burst.
            survivors = []
            for message in batch:
                deliver, msg_delay, copies, message, replay = (
                    self.fault_injector.verdict(src, dst, message)
                )
                if not deliver:
                    self.stats.messages_dropped += 1
                    continue
                extra_delay = max(extra_delay, msg_delay)
                survivors.append(message)
                if copies:
                    self.stats.messages_duplicated += copies
                    survivors.extend([message] * copies)
                if replay is not None:
                    survivors.append(replay)
            batch = survivors
            if not batch:
                return
        delay = extra_delay + max(
            self.latency.delay(src, dst, message) for message in batch
        )
        self.loop.call_later(delay, lambda: self._arrive_many(dst, batch))

    def _arrive_many(self, dst: str, batch: list[Message]) -> None:
        """Group arrival: each message still occupies the destination CPU
        for its own service time, but the whole batch shares one ready
        event — the receiver starts processing once its CPU has absorbed
        the burst, which is when it would have reached the last member
        anyway under per-message delivery."""
        if dst in self._down:
            self.stats.messages_dropped += len(batch)
            return
        if dst not in self._endpoints:  # left the network while in flight
            self.stats.dead_letters += len(batch)
            return
        service = sum(self.costs.service_time(message, dst=dst) for message in batch)
        start = max(self.loop.now, self._busy_until[dst])
        ready = start + service
        self._busy_until[dst] = ready
        if ready <= self.loop.now:
            self._deliver_many(dst, batch)
        else:
            self.loop.call_at(ready, lambda: self._deliver_many(dst, batch))

    def _deliver_many(self, dst: str, batch: list[Message]) -> None:
        if dst in self._down:
            self.stats.messages_dropped += len(batch)
            return
        endpoint = self._endpoints.get(dst)
        if endpoint is None:  # left the network while the batch was in flight
            self.stats.dead_letters += len(batch)
            return
        self.stats.messages_delivered += len(batch)
        for message in batch:
            endpoint.deliver(message)

    def _arrive(self, dst: str, message: Message) -> None:
        if dst in self._down:
            self.stats.messages_dropped += 1
            return
        if dst not in self._endpoints:  # left the network while in flight
            self.stats.dead_letters += 1
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

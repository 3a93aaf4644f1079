"""Socket transport base: the `Context` contract over real sockets.

:class:`SocketTransport` is the common half of :class:`~repro.net.udp.
UdpTransport` and :class:`~repro.net.tcp.TcpTransport`.  It plays the
role :class:`~repro.runtime.asyncio_rt.AsyncioNetwork` plays in-process
— and keeps its exact bookkeeping semantics, so every endpoint (servers,
clients, tracked objects, the recovery prober) runs **unchanged**:

* ``send`` goes through :meth:`transmit`, whose crash / drop-rate /
  fault-injector verdict is :func:`~repro.runtime.base.admit_send` —
  the one admission step every runtime shares, with the same
  ``NetworkStats`` accounting.  The chaos layer installs its
  ``fault_injector`` on a socket transport exactly as it does on the
  simulated or asyncio network.
* One send is one frame — one stream write on TCP, one datagram (or its
  fragments) on UDP — carrying the message plus any injected copies and
  stale-epoch replay, delivered back to back at the receiver.

Destinations are resolved in two steps: an address joined to *this*
transport is delivered locally through the event loop (so a driver
process can host its workload endpoints without paying the socket tax
for loopback chatter); anything else resolves through the
:class:`~repro.net.address.AddressBook` to a ``(host, port)`` and goes
over the socket.  An address the book cannot resolve is a dead letter.
"""

from __future__ import annotations

import asyncio
import random
from typing import Awaitable, Callable, Coroutine

from repro.errors import TransportError
from repro.net.address import AddressBook, validate_address
from repro.net.wire import FrameDecoder, encode_frame
from repro.runtime.base import Context, Endpoint, Message, NetworkStats, admit_send

__all__ = ["SocketContext", "SocketTransport"]


class SocketContext(Context):
    """Context binding one endpoint to a :class:`SocketTransport`."""

    __slots__ = ("_transport", "_address")

    def __init__(self, transport: "SocketTransport", address: str) -> None:
        self._transport = transport
        self._address = address

    @property
    def address(self) -> str:
        return self._address

    def now(self) -> float:
        return asyncio.get_event_loop().time()

    def send(self, dest: str, message: Message) -> None:
        self._transport.transmit(self._address, dest, message)

    def create_future(self) -> asyncio.Future:
        return asyncio.get_event_loop().create_future()

    def call_later(self, delay: float, callback: Callable[[], None]):
        return asyncio.get_event_loop().call_later(delay, callback)

    def spawn(self, coro: Coroutine, name: str = "task") -> asyncio.Task:
        task = asyncio.get_event_loop().create_task(coro, name=name)
        self._transport.track_task(task)
        return task

    def sleep(self, delay: float) -> Awaitable[None]:
        return asyncio.sleep(delay)

    def note_quarantined(self, count: int = 1) -> None:
        self._transport.stats.messages_quarantined += count

    def note_stale_rejected(self, count: int = 1) -> None:
        self._transport.stats.stale_epoch_rejected += count


class SocketTransport:
    """Shared machinery of the UDP and TCP transports.

    Subclasses implement :meth:`_open`, :meth:`_close` and
    :meth:`_send_bytes`; everything else — join/attach, stats, fault
    injection, local-loopback delivery, frame dispatch — lives here.
    """

    #: subclass tag used by launcher specs ("udp" | "tcp").
    kind = "socket"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        book: AddressBook | None = None,
        drop_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.host = host
        self.port = port  # 0 until started: "pick a free port"
        self.book = book if book is not None else AddressBook()
        self.stats = NetworkStats()
        self.drop_rate = drop_rate
        #: optional :class:`repro.chaos.FaultInjector`, exactly as on
        #: the simulated and asyncio networks.
        self.fault_injector = None
        self._rng = random.Random(seed)
        self._endpoints: dict[str, Endpoint] = {}
        self._down: set[str] = set()
        self._tasks: set[asyncio.Task] = set()
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the socket; returns the bound ``(host, port)``."""
        if self._started:
            return self.host, self.port
        self.host, self.port = await self._open()
        self._started = True
        return self.host, self.port

    async def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        await self._close()

    async def _open(self) -> tuple[str, int]:  # pragma: no cover - abstract
        raise NotImplementedError

    async def _close(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _send_bytes(
        self, data: bytes, location: tuple[str, int]
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- endpoint wiring ---------------------------------------------------

    def join(self, endpoint: Endpoint) -> Endpoint:
        """Attach a local endpoint (mirrors ``AsyncioNetwork.join``)."""
        validate_address(endpoint.address, what="endpoint address")
        if endpoint.address in self._endpoints:
            raise TransportError(f"address {endpoint.address!r} already joined")
        self._endpoints[endpoint.address] = endpoint
        endpoint.attach(SocketContext(self, endpoint.address))
        return endpoint

    def crash(self, address: str) -> None:
        """Simulate a local endpoint crash (parity with the other runtimes)."""
        self._down.add(address)

    def restore(self, address: str) -> None:
        self._down.discard(address)

    def track_task(self, task: asyncio.Task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- send path ---------------------------------------------------------

    def _resolvable(self, dst: str) -> bool:
        return dst in self._endpoints or self.book.resolve(dst) is not None

    def transmit(self, src: str, dst: str, message: Message) -> None:
        # ``mutate=False``: on a socket transport corruption happens at
        # the frame layer (see :meth:`_dispatch`), so the rate means
        # "this share of *frames*", not of messages.
        admitted = admit_send(
            self, src, dst, message, self._resolvable(dst), mutate=False
        )
        if admitted is not None:
            self._dispatch(src, dst, *admitted)

    def transmit_many(self, src: str, dst: str, messages: "list[Message]") -> None:
        # No caller sends batches; kept only because the e2e benchmark's
        # tracer binds this name.
        for message in messages:
            self.transmit(src, dst, message)

    def _dispatch(
        self, src: str, dst: str, messages: "list[Message]", delay: float
    ) -> None:
        """Deliver one send's payloads locally, or serialize them onto the
        socket as one frame, after ``delay``."""
        loop = asyncio.get_event_loop()
        injector = self.fault_injector
        frame_corrupt = injector is not None and injector.frame_corrupt(src, dst)
        if dst in self._endpoints:
            if frame_corrupt:
                # Loopback never serializes, so frame damage becomes a
                # field mutation on the message — damage the
                # receive-path validator must quarantine.
                mutated = injector.mutate_message(messages[0])
                if mutated is not None:
                    messages[0] = mutated

            def deliver_local() -> None:
                if dst in self._down:
                    self.stats.messages_dropped += len(messages)
                    return
                endpoint = self._endpoints.get(dst)
                if endpoint is None:
                    self.stats.dead_letters += len(messages)
                    return
                self.stats.messages_delivered += len(messages)
                for message in messages:
                    endpoint.deliver(message)

            if delay <= 0.0:
                loop.call_soon(deliver_local)
            else:
                loop.call_later(delay, deliver_local)
            return
        location = self.book.resolve(dst)
        if location is None:  # raced a book change since the resolvable check
            self.stats.dead_letters += len(messages)
            return
        data = encode_frame(src, dst, messages)
        if frame_corrupt:
            data = injector.corrupt_bytes(data)
        if delay <= 0.0:
            self._send_bytes(data, location)
        else:
            loop.call_later(delay, self._send_bytes, data, location)

    # -- receive path ------------------------------------------------------

    def _on_frames(self, frames: "list[tuple[str, str, list]]") -> None:
        """Dispatch decoded incoming frames to their local endpoints."""
        for _src, dst, messages in frames:
            endpoint = self._endpoints.get(dst)
            if endpoint is None or dst in self._down:
                if dst in self._down:
                    self.stats.messages_dropped += len(messages)
                else:
                    self.stats.dead_letters += len(messages)
                continue
            self.stats.messages_delivered += len(messages)
            for message in messages:
                endpoint.deliver(message)

    def _note_decoder_damage(self, decoder: FrameDecoder) -> None:
        """Fold a decoder's damage counters into stats (and zero them).

        ``corrupted_frames`` episodes land in ``frames_corrupted``;
        individually skipped messages (unknown type, mangled nested
        object) land in ``messages_quarantined`` — they decoded but were
        rejected before reaching any endpoint.
        """
        if decoder.corrupted_frames:
            self.stats.frames_corrupted += decoder.corrupted_frames
            decoder.corrupted_frames = 0
        if decoder.skipped_messages:
            self.stats.messages_quarantined += decoder.skipped_messages
            decoder.skipped_messages = 0

    # -- draining ----------------------------------------------------------

    async def quiesce(self) -> None:
        """Wait until all locally spawned handler tasks have finished."""
        while self._tasks:
            pending = list(self._tasks)
            await asyncio.gather(*pending, return_exceptions=True)

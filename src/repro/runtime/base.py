"""Runtime abstraction: contexts, endpoints and message correlation.

The location-server algorithms (Section 6) are written once, as message
handlers against the small :class:`Context` interface below.  A handler
is a plain method: it finishes its work inline, or returns the coroutine
of the part that must wait on another endpoint, which alone becomes a
task (see :meth:`Endpoint.deliver`).  Two runtimes implement it:

* :mod:`repro.runtime.simnet` — deterministic virtual-time simulation
  (used for all measurements), and
* :mod:`repro.runtime.asyncio_rt` — real asyncio concurrency (used to
  demonstrate the same code runs outside the simulator).

Correlation model: every request message carries a ``request_id``; the
issuing endpoint parks a *row* under that id in its one pending table
and the responder sends a :class:`Response` subclass carrying the same
id — possibly *directly* to a third server, which is exactly how the
paper routes query answers to the entry server instead of back along the
forwarding path.  A row says what its answer does, what its expiry does
and when it expires: a row parked with a timeout gets that deadline
(servers give every wait of their own one, so nothing a server parks
waits forever); a row parked without one waits for its answer.  An
answer that arrives after its row expired is counted in
``late_answers`` and dropped.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from collections import namedtuple
from dataclasses import dataclass, field, fields
from typing import Any, Awaitable, Callable, Coroutine

from repro.errors import TransportError


@dataclass(frozen=True, slots=True)
class Message:
    """Base class for all wire messages."""

    generation = 0  # subclasses defined so far (the wire registry's sweep key)

    def __init_subclass__(cls) -> None:
        Message.generation += 1


@dataclass(frozen=True, slots=True)
class Response(Message):
    """Base class for messages that answer a pending row.

    Subclasses must define a ``request_id`` field.
    """


class Context(ABC):
    """What an endpoint may do to the outside world."""

    @property
    @abstractmethod
    def address(self) -> str:
        """This endpoint's network address."""

    @abstractmethod
    def now(self) -> float:
        """Current time in seconds (virtual or wall)."""

    @abstractmethod
    def send(self, dest: str, message: Message) -> None:
        """Fire-and-forget message send."""

    @abstractmethod
    def create_future(self) -> Any:
        """A runtime-appropriate awaitable future."""

    @abstractmethod
    def call_later(self, delay: float, callback: Callable[[], None]) -> Any:
        """Schedule a callback; returns a handle with ``.cancel()``."""

    @abstractmethod
    def spawn(self, coro: Coroutine, name: str = "task") -> Any:
        """Run a coroutine concurrently."""

    @abstractmethod
    def sleep(self, delay: float) -> Awaitable[None]:
        """An awaitable that resolves after ``delay`` seconds."""

    # -- defensive-layer bookkeeping (PR 9) --------------------------------
    #
    # Endpoints that quarantine malformed or stale-epoch traffic report
    # it through their context so the counters land on the runtime's
    # shared :class:`NetworkStats` (and from there on the scenarios'
    # :class:`~repro.sim.metrics.MessageLedger`).  The default is a
    # no-op so bare contexts (tests, tools) need not care.

    def note_quarantined(self, count: int = 1) -> None:
        """Record ``count`` messages rejected by receive-path validation."""

    def note_stale_rejected(self, count: int = 1) -> None:
        """Record ``count`` messages rejected as stale-epoch replays."""


#: One row of an endpoint's pending table: what an answer does, what the
#: expiry does, and the timer of its deadline (``None``: no deadline).
PendingRow = namedtuple("PendingRow", "answer expire timer")


def _settles(future: Any, describe: Callable[[], str]):
    """The ``(answer, expire)`` pair of a row that settles ``future`` with
    the answer, or with a :class:`~repro.errors.TransportError` saying
    ``describe()``; a future already done (its waiter was cancelled) is
    left alone."""

    def answer(message: Message) -> None:
        if not future.done():
            future.set_result(message)

    def expire() -> None:
        if not future.done():
            future.set_exception(TransportError(describe()))

    return answer, expire


class Endpoint:
    """A network-addressable participant (server, client, tracked object).

    Subclasses register message handlers with :meth:`on`.  Everything an
    endpoint waits for is a row of its one pending table (``_pending``,
    keyed by request id): :meth:`park` adds a row and arms its deadline
    if it has one, an incoming :class:`Response` whose ``request_id`` names a row runs
    the row's answer instead of a handler, and :meth:`_expire` — the one
    expiry path — runs its expiry when the deadline passes first.  A
    response that names no row (its row expired, or it answers nothing
    asked) is counted in ``late_answers`` and dropped.

    The handler contract: ``handler(message)`` runs inside delivery and
    returns ``None`` when it is done, or the coroutine of the part that
    must wait (a sub-request, a fan-out); only that coroutine is
    spawned.  An ``async def`` handler therefore spawns on every message
    and is kept for handlers whose common path waits.
    """

    def __init__(self, address: str) -> None:
        self.address = address
        self.ctx: Context | None = None
        self._pending: dict[str, PendingRow] = {}
        self._handlers: dict[type, Callable[[Message], Coroutine | None]] = {}
        self._request_counter = itertools.count()
        #: messages delivered that no handler takes
        self.unhandled: list[Message] = []
        #: answers that named no pending row, dropped on arrival
        self.late_answers = 0
        #: optional receive-path validator: ``validator(message)`` returns
        #: a defect string (message quarantined, never dispatched — not
        #: even to a pending row) or ``None`` (clean).  Installed by
        #: endpoints that face adversarial traffic; ``None`` keeps the
        #: delivery hot path free of the walk.
        self.validator: Callable[[Message], str | None] | None = None
        #: messages this endpoint quarantined via ``validator``.
        self.quarantined_count = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, ctx: Context) -> None:
        """Called by the runtime when the endpoint joins a network."""
        self.ctx = ctx
        self.on_attached()

    def on_attached(self) -> None:
        """Hook for subclasses (e.g. to schedule periodic work)."""

    def on(self, message_type: type, handler: Callable[[Message], Coroutine | None]) -> None:
        self._handlers[message_type] = handler

    # -- receive path --------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Runtime entry point for one incoming message.

        The handler runs here, inside the runtime's delivery callback; a
        coroutine it returns is spawned as a task named
        ``{address}:{message type}``.  A handler that raises therefore
        raises out of ``deliver`` into the runtime's receive path (out
        of a ``SimNetwork`` run, into an asyncio callback, out of a TCP
        connection's reader), not into a task.
        """
        if self.validator is not None:
            defect = self.validator(message)
            if defect is not None:
                self.quarantined_count += 1
                if self.ctx is not None:
                    self.ctx.note_quarantined()
                return
        if isinstance(message, Response):
            row = self.unpark(message.request_id)
            if row is None:
                self.late_answers += 1
            else:
                row.answer(message)
            return
        handler = self._handlers.get(type(message))
        if handler is None:
            self.unhandled.append(message)
            return
        assert self.ctx is not None, "endpoint must be attached before delivery"
        waits = handler(message)
        if waits is not None:
            self.ctx.spawn(waits, name=f"{self.address}:{type(message).__name__}")

    # -- send path --------------------------------------------------------------

    def next_request_id(self) -> str:
        return f"{self.address}#{next(self._request_counter)}"

    def send(self, dest: str, message: Message) -> None:
        assert self.ctx is not None, "endpoint must be attached before sending"
        self.ctx.send(dest, message)

    async def request(
        self, dest: str, message: Message, timeout: float | None = None
    ) -> Response:
        """Send a request and await the correlated response.

        The message must carry a ``request_id`` attribute (already set by
        the caller via :meth:`next_request_id`).  Raises
        :class:`~repro.errors.TransportError` when ``timeout`` (if set)
        passes first.
        """
        request_id = getattr(message, "request_id")
        future = self.ctx.create_future()
        self.park(
            request_id,
            timeout,
            *_settles(future, lambda: f"request {request_id} timed out at {self.address}"),
        )
        self.send(dest, message)
        return await future

    async def ask(
        self,
        dest: str,
        make_message: Callable[[str], Message],
        timeout: float | None,
        retries: int,
    ) -> Response:
        """:meth:`resend` awaited: the first answer, or
        :class:`~repro.errors.TransportError` when all ``retries + 1``
        attempts went unanswered."""
        future = self.ctx.create_future()
        answer, fail = _settles(
            future,
            lambda: f"request to {dest} from {self.address} unanswered after "
            f"{retries + 1} attempts",
        )
        self.resend(
            dest, make_message, timeout, retries, answer, lambda left: None if left else fail()
        )
        return await future

    def resend(
        self, dest: str, make_message, timeout: float | None, retries: int, answer, expired
    ) -> None:
        """Request with re-sends: the one recovery over a lossy network.

        Sends ``make_message(request_id)`` now, under a fresh id, and
        parks a row for it.  The first answer runs ``answer(message)``.
        Each expiry runs ``expired(retries_left)`` and, while retries are
        left, sends the next attempt under a fresh id (a late answer to
        an abandoned attempt resolves nothing): up to ``retries``
        re-sends, the last expiry seeing ``0``.
        """

        def expire() -> None:
            expired(retries)
            if retries:
                self.resend(dest, make_message, timeout, retries - 1, answer, expired)

        request_id = self.next_request_id()
        self.park(request_id, timeout, answer, expire)
        self.send(dest, make_message(request_id))

    # -- the pending table ------------------------------------------------------

    def park(self, request_id: str, timeout: float | None, answer, expire) -> None:
        """Add the row for ``request_id``: its answer runs
        ``answer(message)``; ``timeout`` seconds from now (if set) its
        expiry runs ``expire()``."""
        timer = None
        if timeout is not None:
            timer = self.ctx.call_later(timeout, lambda: self._expire(request_id))
        self._pending[request_id] = PendingRow(answer, expire, timer)

    def unpark(self, request_id: str) -> PendingRow | None:
        """Remove the row for ``request_id`` and disarm its deadline."""
        row = self._pending.pop(request_id, None)
        if row is not None and row.timer is not None:
            row.timer.cancel()
        return row

    def _expire(self, request_id: str) -> None:
        row = self._pending.pop(request_id, None)
        if row is not None:
            row.expire()

    @property
    def pending_count(self) -> int:
        return len(self._pending)


@dataclass(slots=True)
class NetworkStats:
    """Counters every runtime keeps; benches and tests read these."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    #: extra deliveries manufactured by fault injection (a duplicated
    #: message counts once here and never in ``messages_sent`` — the
    #: sender only paid for one send, the network invented the rest).
    messages_duplicated: int = 0
    #: fault-injector rule firings (drops, delays, duplicates, severed
    #: links) — distinct from ``messages_dropped``, which also counts
    #: crash- and drop-rate losses.
    faults_injected: int = 0
    dead_letters: int = 0
    #: frames whose bytes failed checksum/framing validation (socket
    #: transports; includes expired UDP partial reassemblies).  The
    #: decoder resynchronises and the protocol lane's retries recover —
    #: corrupt bytes are *detected*, never delivered.
    frames_corrupted: int = 0
    #: decoded messages rejected by receive-path validation (field
    #: mutation, unknown wire types) before reaching any handler/store.
    messages_quarantined: int = 0
    #: messages rejected as stale-epoch replays (epoch far behind the
    #: receiver's topology epoch — outside the legitimate in-flight
    #: window the forwarding machinery heals).
    stale_epoch_rejected: int = 0
    by_type: dict[str, int] = field(default_factory=dict)

    def note_send(self, message: Message) -> None:
        self.messages_sent += 1
        name = type(message).__name__
        self.by_type[name] = self.by_type.get(name, 0) + 1

    def reset(self) -> None:
        """Zero every counter; walks the fields, so none can be missed."""
        for counter in fields(self):
            if counter.name == "by_type":
                self.by_type.clear()
            else:
                setattr(self, counter.name, 0)


def admit_send(
    net, src: str, dst: str, message: Message, known: bool, mutate: bool = True
) -> "tuple[list[Message], float] | None":
    """The fabric's verdict on one send, shared by every runtime.

    ``net`` is any runtime carrying ``stats``, the crashed-address set
    ``_down``, a ``drop_rate`` (and an ``_rng`` where it is above 0) and
    an optional ``fault_injector``; ``known`` says whether ``dst``
    resolves at all.
    The send is counted, then refused as a dead letter (``dst`` unknown),
    dropped (either end crashed, the drop rate, an injected loss), or
    admitted.  An admitted send returns ``(payloads, extra_delay)``: the
    message (field-mutated by a ``corrupt`` rule when ``mutate``), its
    injected copies and any stale-epoch replay, plus the injected extra
    latency.  Copies and the replay count in ``messages_duplicated`` —
    the sender paid for one send, the network invented the rest.  The
    caller schedules the payloads its own way.

    The drop-rate draw happens only when both ends are up, and the
    injector's draws come after it: a seed replays identically.
    """
    stats = net.stats
    stats.note_send(message)
    if not known:
        stats.dead_letters += 1
        return None
    down = net._down
    if dst in down or src in down:
        stats.messages_dropped += 1
        return None
    if net.drop_rate > 0.0 and net._rng.random() < net.drop_rate:
        stats.messages_dropped += 1
        return None
    injector = net.fault_injector
    if injector is None:
        return [message], 0.0
    deliver, extra_delay, copies, message, replay = injector.verdict(
        src, dst, message, mutate=mutate
    )
    if not deliver:
        stats.messages_dropped += 1
        return None
    payloads = [message] * (1 + copies)
    if replay is not None:
        payloads.append(replay)
    stats.messages_duplicated += len(payloads) - 1
    return payloads, extra_delay

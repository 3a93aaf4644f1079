"""Event mechanism (paper Section 1 / Section 8 future work).

"Applications should be able to register for predicates, such as 'more
than five objects are in a certain area' or 'two users of the system
meet', at the location service, which asynchronously informs the
registered applications when the predicate becomes true."

The paper defers this to future work; this module implements it on top
of the query machinery so the reproduction covers the announced
extension.  Subscriptions live at a leaf *entry server*; an evaluator
task re-evaluates each predicate on a configurable interval using the
ordinary distributed query path and pushes an edge-triggered
:class:`EventNotification` when the predicate flips from false to true
(and, if ``notify_on_clear``, back again).

Predicates:

* :class:`AreaOccupancy` — at least ``threshold`` objects inside an
  area (range-query semantics, including reqAcc/reqOverlap filters);
* :class:`Proximity` — two tracked objects' recorded positions within
  ``distance`` of each other ("two users meet").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo import Region
from repro.model import RangeQuery
from repro.runtime.base import Message, Response

# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AreaOccupancy:
    """True when at least ``threshold`` qualifying objects are in ``area``."""

    area: Region
    threshold: int = 1
    req_acc: float = float("inf")
    req_overlap: float = 0.5

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")


@dataclass(frozen=True, slots=True)
class Proximity:
    """True when the recorded positions of two objects are within
    ``distance`` meters of each other."""

    object_a: str
    object_b: str
    distance: float

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise ValueError(f"distance must be non-negative, got {self.distance}")
        if self.object_a == self.object_b:
            raise ValueError("proximity predicate needs two distinct objects")


Predicate = AreaOccupancy | Proximity


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SubscribeReq(Message):
    """Register a predicate at an entry server."""

    request_id: str
    reply_to: str
    predicate: Predicate
    poll_interval: float = 1.0
    notify_on_clear: bool = False


@dataclass(frozen=True, slots=True)
class SubscribeRes(Response):
    request_id: str
    ok: bool
    subscription_id: str | None = None
    error: str | None = None


@dataclass(frozen=True, slots=True)
class UnsubscribeReq(Message):
    request_id: str
    reply_to: str
    subscription_id: str


@dataclass(frozen=True, slots=True)
class UnsubscribeRes(Response):
    request_id: str
    ok: bool


@dataclass(frozen=True, slots=True)
class EventNotification(Message):
    """Pushed to the subscriber on a predicate edge."""

    subscription_id: str
    fired: bool  # True: became true; False: became false (notify_on_clear)
    detail: str = ""
    matched: tuple[str, ...] = ()  # ids of the objects that made it fire


# ---------------------------------------------------------------------------
# Server-side engine
# ---------------------------------------------------------------------------


@dataclass
class _Subscription:
    subscription_id: str
    subscriber: str
    predicate: Predicate
    poll_interval: float
    notify_on_clear: bool
    last_state: bool = False
    evaluations: int = 0
    cancelled: bool = False


class EventEngine:
    """Subscription registry + periodic evaluation, hosted by a leaf server.

    The engine is deliberately decoupled from :class:`LocationServer`
    internals: it is handed two async callables (``eval_range`` and
    ``eval_positions``) that run ordinary distributed queries, so the
    notification semantics match what a polling client would observe.
    """

    def __init__(self, server) -> None:
        self._server = server
        self._subscriptions: dict[str, _Subscription] = {}
        self._counter = 0
        server.on(SubscribeReq, self._on_subscribe)
        server.on(UnsubscribeReq, self._on_unsubscribe)

    @property
    def active_count(self) -> int:
        return sum(1 for s in self._subscriptions.values() if not s.cancelled)

    # -- message handlers -------------------------------------------------

    def _on_subscribe(self, msg: SubscribeReq) -> None:
        server = self._server
        if not server.is_leaf:
            server.send(
                msg.reply_to,
                SubscribeRes(
                    request_id=msg.request_id,
                    ok=False,
                    error="subscriptions must target a leaf entry server",
                ),
            )
            return
        self._counter += 1
        sub = _Subscription(
            subscription_id=f"{server.address}/sub{self._counter}",
            subscriber=msg.reply_to,
            predicate=msg.predicate,
            poll_interval=max(1e-3, msg.poll_interval),
            notify_on_clear=msg.notify_on_clear,
        )
        self._subscriptions[sub.subscription_id] = sub
        server.send(
            msg.reply_to,
            SubscribeRes(
                request_id=msg.request_id, ok=True, subscription_id=sub.subscription_id
            ),
        )
        server.ctx.spawn(self._evaluate_loop(sub), name=f"events:{sub.subscription_id}")

    def _on_unsubscribe(self, msg: UnsubscribeReq) -> None:
        sub = self._subscriptions.pop(msg.subscription_id, None)
        if sub is not None:
            sub.cancelled = True
        self._server.send(
            msg.reply_to, UnsubscribeRes(request_id=msg.request_id, ok=sub is not None)
        )

    # -- evaluation ---------------------------------------------------------

    async def _evaluate_loop(self, sub: _Subscription) -> None:
        server = self._server
        while not sub.cancelled:
            state, matched, detail = await self._evaluate(sub.predicate)
            sub.evaluations += 1
            if state != sub.last_state:
                if state or sub.notify_on_clear:
                    server.send(
                        sub.subscriber,
                        EventNotification(
                            subscription_id=sub.subscription_id,
                            fired=state,
                            detail=detail,
                            matched=tuple(matched),
                        ),
                    )
                sub.last_state = state
            await server.ctx.sleep(sub.poll_interval)

    async def _evaluate(self, predicate: Predicate) -> tuple[bool, list, str]:
        if isinstance(predicate, AreaOccupancy):
            query = RangeQuery(
                predicate.area,
                req_acc=predicate.req_acc,
                req_overlap=predicate.req_overlap,
            )
            (entries,) = await self._server.evaluate_range_many([query])
            ids = [oid for oid, _ in entries]
            return (
                len(ids) >= predicate.threshold,
                ids,
                f"{len(ids)} object(s) in area (threshold {predicate.threshold})",
            )
        descriptor_a = await self._server.evaluate_position(predicate.object_a)
        descriptor_b = await self._server.evaluate_position(predicate.object_b)
        if descriptor_a is None or descriptor_b is None:
            return False, [], "one or both objects are not tracked"
        gap = descriptor_a.pos.distance_to(descriptor_b.pos)
        return (
            gap <= predicate.distance,
            [predicate.object_a, predicate.object_b],
            f"recorded distance {gap:.1f} m (threshold {predicate.distance:.1f} m)",
        )

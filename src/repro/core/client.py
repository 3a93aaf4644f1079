"""Client-side endpoints: query clients and tracked objects.

Both are :class:`~repro.runtime.base.Endpoint` subclasses with async
methods mirroring the paper's Section-3 API (``register``, ``update``,
``posQuery``, ``rangeQuery``, ``neighborQuery``, ...).  A mobile device
typically plays *both* roles — the paper notes a client "may and often
will have both roles, tracked object and client" — so
:class:`TrackedObject` composes the query API as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import messages as m
from repro.errors import LocationServiceError, RegistrationError
from repro.geo import Point, Region
from repro.model import (
    LocationDescriptor,
    NearestNeighborResult,
    ObjectEntry,
    SightingRecord,
)
from repro.runtime.base import Endpoint
from repro.runtime.validation import find_defect


@dataclass(frozen=True, slots=True)
class RangeAnswer:
    """Result of a distributed range query plus execution metadata."""

    entries: tuple[ObjectEntry, ...]
    servers_involved: int


@dataclass(frozen=True, slots=True)
class NeighborAnswer:
    """Result of a distributed nearest-neighbor query plus metadata."""

    result: NearestNeighborResult
    rounds: int
    servers_involved: int


class LocationClient(Endpoint):
    """A query-only client bound to one entry server.

    The paper assumes a lookup service (e.g. Jini) provides the closest
    leaf server; here the entry server is chosen at construction and can
    be changed with :meth:`use_entry_server`.
    """

    def __init__(self, address: str, entry_server: str, timeout: float | None = None) -> None:
        super().__init__(address)
        self.entry_server = entry_server
        self.timeout = timeout
        # A mutated answer (NaN position, emptied id) must not resolve a
        # parked request future; quarantining it degrades to the normal
        # timeout-and-retry path (PR 9).
        self.validator = find_defect
        #: event notifications received for this client's subscriptions
        self.notifications: list = []
        from repro.core import events as ev

        self.on(ev.EventNotification, self._on_event)

    def _on_event(self, msg) -> None:
        self.notifications.append(msg)

    def use_entry_server(self, entry_server: str) -> None:
        self.entry_server = entry_server

    # -- event subscriptions (Section 1 / future-work extension) ------------

    async def subscribe(
        self, predicate, poll_interval: float = 1.0, notify_on_clear: bool = False
    ) -> str:
        """Register a predicate; notifications land in ``notifications``."""
        from repro.core import events as ev

        res = await self.request(
            self.entry_server,
            ev.SubscribeReq(
                request_id=self.next_request_id(),
                reply_to=self.address,
                predicate=predicate,
                poll_interval=poll_interval,
                notify_on_clear=notify_on_clear,
            ),
            timeout=self.timeout,
        )
        assert isinstance(res, ev.SubscribeRes)
        if not res.ok:
            raise LocationServiceError(res.error or "subscription rejected")
        return res.subscription_id

    async def unsubscribe(self, subscription_id: str) -> bool:
        from repro.core import events as ev

        res = await self.request(
            self.entry_server,
            ev.UnsubscribeReq(
                request_id=self.next_request_id(),
                reply_to=self.address,
                subscription_id=subscription_id,
            ),
            timeout=self.timeout,
        )
        assert isinstance(res, ev.UnsubscribeRes)
        return res.ok

    async def pos_query(
        self, object_id: str, req_acc: float | None = None
    ) -> LocationDescriptor | None:
        """``posQuery(o) → ld``; ``None`` when the object is not tracked."""
        res = await self.request(
            self.entry_server,
            m.PosQueryReq(
                request_id=self.next_request_id(),
                reply_to=self.address,
                object_id=object_id,
                req_acc=req_acc,
            ),
            timeout=self.timeout,
        )
        assert isinstance(res, m.PosQueryRes)
        return res.descriptor if res.found else None

    async def range_query(
        self, area: Region, req_acc: float = float("inf"), req_overlap: float = 0.5
    ) -> RangeAnswer:
        """``rangeQuery(a, reqAcc, reqOverlap) → objSet``."""
        res = await self.request(
            self.entry_server,
            m.RangeQueryReq(
                request_id=self.next_request_id(),
                reply_to=self.address,
                area=area,
                req_acc=req_acc,
                req_overlap=req_overlap,
            ),
            timeout=self.timeout,
        )
        assert isinstance(res, m.RangeQueryRes)
        return RangeAnswer(entries=res.entries, servers_involved=res.servers_involved)

    async def neighbor_query(
        self, pos: Point, req_acc: float = float("inf"), near_qual: float = 0.0
    ) -> NeighborAnswer:
        """``neighborQuery(p, reqAcc, nearQual) → (nearestObj, nearObjSet)``."""
        res = await self.request(
            self.entry_server,
            m.NeighborQueryReq(
                request_id=self.next_request_id(),
                reply_to=self.address,
                pos=pos,
                req_acc=req_acc,
                near_qual=near_qual,
            ),
            timeout=self.timeout,
        )
        assert isinstance(res, m.NeighborQueryRes)
        return NeighborAnswer(
            result=res.result, rounds=res.rounds, servers_involved=res.servers_involved
        )


class TrackedObject(LocationClient):
    """A mobile object: registration, position updates and queries.

    Implements the client half of the paper's update protocol: it keeps a
    pointer to its current *agent* (updated on every handover response)
    and reports a new sighting whenever its true position drifts from the
    last reported one by more than the offered accuracy.
    """

    def __init__(
        self,
        object_id: str,
        entry_server: str,
        sensor_acc: float = 10.0,
        timeout: float | None = None,
    ) -> None:
        super().__init__(f"obj:{object_id}", entry_server, timeout=timeout)
        self.object_id = object_id
        self.sensor_acc = sensor_acc
        self.agent: str | None = None
        self.offered_acc: float | None = None
        self.last_reported: Point | None = None
        #: accuracy-change notifications received (``notifyAvailAcc``).
        self.acc_notifications: list[float] = []
        self.deregistered = False
        self.on(m.NotifyAvailAcc, self._on_notify_acc)

    def _on_notify_acc(self, msg: m.NotifyAvailAcc) -> None:
        self.offered_acc = msg.offered_acc
        self.acc_notifications.append(msg.offered_acc)

    def _sighting(self, pos: Point) -> SightingRecord:
        return SightingRecord(
            object_id=self.object_id,
            timestamp=self.ctx.now(),
            pos=pos,
            acc_sens=self.sensor_acc,
        )

    async def register(self, pos: Point, des_acc: float, min_acc: float) -> float:
        """``register(s, desAcc, minAcc) → offeredAcc``.

        Raises:
            RegistrationError: when the LS rejects the accuracy range or
                the position lies outside the service area.
        """
        res = await self.request(
            self.entry_server,
            m.RegisterReq(
                request_id=self.next_request_id(),
                reply_to=self.address,
                sighting=self._sighting(pos),
                des_acc=des_acc,
                min_acc=min_acc,
                registrar=self.address,
            ),
            timeout=self.timeout,
        )
        assert isinstance(res, m.RegisterRes)
        if not res.ok:
            raise RegistrationError(res.error or "registration failed")
        self.agent = res.agent
        self.offered_acc = res.offered_acc
        self.last_reported = pos
        self.deregistered = False
        return res.offered_acc

    async def report(self, pos: Point) -> m.UpdateRes:
        """Send one position update to the current agent (``update(s)``)."""
        if self.agent is None:
            raise LocationServiceError(f"{self.object_id} is not registered")
        res = await self.request(
            self.agent,
            m.UpdateReq(
                request_id=self.next_request_id(),
                reply_to=self.address,
                sighting=self._sighting(pos),
            ),
            timeout=self.timeout,
        )
        assert isinstance(res, m.UpdateRes)
        if res.deregistered:
            # The object left the root service area (Section 4).
            self.agent = None
            self.deregistered = True
        elif res.ok:
            self.agent = res.agent
            self.offered_acc = res.offered_acc
            self.last_reported = pos
        return res

    async def move_to(self, pos: Point) -> bool:
        """Move; report only if drift exceeds the offered accuracy.

        This is the paper's simple distance-based update protocol
        (Section 6.2).  Returns whether an update was sent.
        """
        if self.last_reported is not None and self.offered_acc is not None:
            if pos.distance_to(self.last_reported) <= self.offered_acc - self.sensor_acc:
                return False
        await self.report(pos)
        return True

    async def change_accuracy(self, des_acc: float, min_acc: float) -> float:
        """``changeAcc(o, desAcc, minAcc) → offeredAcc``."""
        if self.agent is None:
            raise LocationServiceError(f"{self.object_id} is not registered")
        res = await self.request(
            self.agent,
            m.ChangeAccReq(
                request_id=self.next_request_id(),
                reply_to=self.address,
                object_id=self.object_id,
                des_acc=des_acc,
                min_acc=min_acc,
            ),
            timeout=self.timeout,
        )
        assert isinstance(res, m.ChangeAccRes)
        if not res.ok:
            raise RegistrationError(res.error or "accuracy change rejected")
        self.offered_acc = res.offered_acc
        return res.offered_acc

    async def deregister(self) -> bool:
        """``deregister(o)``."""
        if self.agent is None:
            return False
        res = await self.request(
            self.agent,
            m.DeregisterReq(
                request_id=self.next_request_id(),
                reply_to=self.address,
                object_id=self.object_id,
            ),
            timeout=self.timeout,
        )
        assert isinstance(res, m.DeregisterRes)
        if res.ok:
            self.agent = None
            self.deregistered = True
        return res.ok

"""Centralized baseline: the whole service area on one server.

The paper motivates the hierarchy with scalability; this baseline is the
obvious alternative it is implicitly compared against — a single
location server holding every sighting.  Semantically identical to the
hierarchical LS (it delegates to the same :class:`LocalDataStore` and
query semantics), so equivalence tests can diff answers directly; the
difference shows up in the ablation bench as lost locality (every client
interaction pays a round trip to the one server, whose CPU serialises
the whole offered load).
"""

from __future__ import annotations

from repro.core import messages as m
from repro.geo import Rect
from repro.model import (
    AccuracyModel,
    NearestNeighborQuery,
    RangeQuery,
)
from repro.runtime.base import Endpoint
from repro.storage import LocalDataStore


class CentralLocationServer(Endpoint):
    """One flat server implementing the full Section-3 API."""

    def __init__(
        self,
        area: Rect,
        address: str = "central",
        accuracy: AccuracyModel | None = None,
        sighting_ttl: float = 300.0,
    ) -> None:
        super().__init__(address)
        self.area = area
        self.accuracy = accuracy if accuracy is not None else AccuracyModel()
        self.store = LocalDataStore(accuracy=self.accuracy, ttl=sighting_ttl)
        self.on(m.RegisterReq, self._on_register)
        self.on(m.UpdateReq, self._on_update)
        self.on(m.DeregisterReq, self._on_deregister)
        self.on(m.PosQueryReq, self._on_pos_query)
        self.on(m.RangeQueryReq, self._on_range_query)
        self.on(m.NeighborQueryReq, self._on_neighbor_query)
        self.on(m.ChangeAccReq, self._on_change_acc)

    def _on_register(self, msg: m.RegisterReq) -> None:
        if not self.area.contains_point(msg.sighting.pos):
            self.send(
                msg.reply_to,
                m.RegisterRes(
                    request_id=msg.request_id,
                    ok=False,
                    error="position outside the service area",
                ),
            )
            return
        offered = self.accuracy.negotiate(msg.des_acc, msg.min_acc)
        if offered is None:
            self.send(
                msg.reply_to,
                m.RegisterRes(
                    request_id=msg.request_id,
                    ok=False,
                    achievable_acc=self.accuracy.achievable,
                    error="requested accuracy range not achievable",
                ),
            )
            return
        self.store.register(
            msg.sighting, msg.des_acc, msg.min_acc, msg.registrar, now=self.ctx.now()
        )
        self.send(
            msg.reply_to,
            m.RegisterRes(
                request_id=msg.request_id, ok=True, agent=self.address, offered_acc=offered
            ),
        )

    def _on_update(self, msg: m.UpdateReq) -> None:
        oid = msg.sighting.object_id
        record = self.store.visitors.leaf_record(oid)
        if record is None:
            self.send(
                msg.reply_to,
                m.UpdateRes(request_id=msg.request_id, ok=False, error="not registered"),
            )
            return
        if not self.area.contains_point(msg.sighting.pos):
            # No hierarchy to hand over to: the object left the service.
            self.store.deregister(oid)
            self.send(
                msg.reply_to,
                m.UpdateRes(request_id=msg.request_id, ok=True, deregistered=True),
            )
            return
        self.store.update(msg.sighting, now=self.ctx.now())
        self.send(
            msg.reply_to,
            m.UpdateRes(
                request_id=msg.request_id,
                ok=True,
                agent=self.address,
                offered_acc=record.offered_acc,
            ),
        )

    def _on_deregister(self, msg: m.DeregisterReq) -> None:
        known = self.store.visitors.leaf_record(msg.object_id) is not None
        if known:
            self.store.deregister(msg.object_id)
        self.send(msg.reply_to, m.DeregisterRes(request_id=msg.request_id, ok=known))

    def _on_pos_query(self, msg: m.PosQueryReq) -> None:
        record = self.store.visitors.leaf_record(msg.object_id)
        sighting = self.store.sightings.get(msg.object_id)
        if record is None or sighting is None:
            self.send(msg.reply_to, m.PosQueryRes(request_id=msg.request_id, found=False))
            return
        self.send(
            msg.reply_to,
            m.PosQueryRes(
                request_id=msg.request_id,
                found=True,
                descriptor=self.store.position_query(msg.object_id),
                agent=self.address,
            ),
        )

    def _on_range_query(self, msg: m.RangeQueryReq) -> None:
        query = RangeQuery(msg.area, req_acc=msg.req_acc, req_overlap=msg.req_overlap)
        entries = tuple(self.store.range_query(query))
        self.send(
            msg.reply_to,
            m.RangeQueryRes(request_id=msg.request_id, entries=entries, servers_involved=1),
        )

    def _on_neighbor_query(self, msg: m.NeighborQueryReq) -> None:
        query = NearestNeighborQuery(msg.pos, req_acc=msg.req_acc, near_qual=msg.near_qual)
        result = self.store.nearest_neighbor_query(query)
        self.send(
            msg.reply_to,
            m.NeighborQueryRes(
                request_id=msg.request_id, result=result, rounds=1, servers_involved=1
            ),
        )

    def _on_change_acc(self, msg: m.ChangeAccReq) -> None:
        try:
            offered = self.store.change_accuracy(msg.object_id, msg.des_acc, msg.min_acc)
        except Exception as exc:  # Unknown object or unachievable accuracy
            self.send(
                msg.reply_to,
                m.ChangeAccRes(request_id=msg.request_id, ok=False, error=str(exc)),
            )
            return
        self.send(
            msg.reply_to,
            m.ChangeAccRes(request_id=msg.request_id, ok=True, offered_acc=offered),
        )

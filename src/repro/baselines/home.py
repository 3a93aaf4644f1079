"""Home-server baseline (GSM HLR style).

The paper's related-work section contrasts its hierarchy with the
location management of Personal Communication Services, where "the
location information of a mobile phone is stored in the Home Location
Register it is assigned to" — i.e. objects are partitioned across
servers by a *hash of their identity*, not by *where they are*.

That scheme answers position queries in one hop (hash the id, ask the
home server) but has no spatial locality at all: a range query must ask
**every** home server, because objects in any geographic area are
scattered across all of them.  Ablation D (``bench_baselines.py``)
quantifies exactly this trade-off against the hierarchy.
"""

from __future__ import annotations

import hashlib

from repro.core import messages as m
from repro.geo import Point, Rect, Region
from repro.model import (
    AccuracyModel,
    NearestNeighborQuery,
    NearestNeighborResult,
    RangeQuery,
    nearest_neighbor,
)
from repro.runtime.base import Endpoint
from repro.runtime.simnet import SimNetwork
from repro.storage import LocalDataStore


def home_of(object_id: str, n_servers: int, prefix: str = "home") -> str:
    """Deterministic id → home-server mapping (stable across runs)."""
    digest = hashlib.sha256(object_id.encode("utf-8")).digest()
    return f"{prefix}-{int.from_bytes(digest[:4], 'big') % n_servers}"


class HomeServer(Endpoint):
    """One HLR-style server holding the objects hashed to it."""

    def __init__(
        self,
        address: str,
        area: Rect,
        accuracy: AccuracyModel | None = None,
    ) -> None:
        super().__init__(address)
        self.area = area
        self.accuracy = accuracy if accuracy is not None else AccuracyModel()
        self.store = LocalDataStore(accuracy=self.accuracy)
        self.on(m.RegisterReq, self._on_register)
        self.on(m.UpdateReq, self._on_update)
        self.on(m.PosQueryReq, self._on_pos_query)
        self.on(m.RangeQueryBatchFwd, self._on_range_fwd)
        self.on(m.NNCandidatesBatchFwd, self._on_nn_fwd)

    async def _on_register(self, msg: m.RegisterReq) -> None:
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

    async def _on_update(self, msg: m.UpdateReq) -> None:
        record = self.store.visitors.leaf_record(msg.sighting.object_id)
        if record is None:
            self.send(
                msg.reply_to,
                m.UpdateRes(request_id=msg.request_id, ok=False, error="not registered"),
            )
            return
        # Home servers never hand over: the object stays hashed here no
        # matter where it moves (that is the point of the baseline).
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

    async def _on_pos_query(self, msg: m.PosQueryReq) -> None:
        record = self.store.visitors.leaf_record(msg.object_id)
        if record is None or self.store.sightings.get(msg.object_id) is None:
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

    async def _on_range_fwd(self, msg: m.RangeQueryBatchFwd) -> None:
        (item,) = msg.items  # the client scatters one query per message
        query = RangeQuery(item.area, req_acc=item.req_acc, req_overlap=item.req_overlap)
        self.send(
            msg.entry_server,
            m.RangeQueryBatchSubRes(
                query_id=msg.query_id,
                # covered area 1.0: the client counts responses instead
                results=((item.index, tuple(self.store.range_query(query)), 1.0),),
                origin=self.address,
                origin_area=self.area,
            ),
        )

    async def _on_nn_fwd(self, msg: m.NNCandidatesBatchFwd) -> None:
        (item,) = msg.items
        query = NearestNeighborQuery(item.pos, req_acc=item.req_acc, near_qual=item.near_qual)
        entries = tuple(self.store.nn_candidates(query, item.dispatch))
        self.send(
            msg.entry_server,
            m.NNCandidatesBatchSubRes(
                query_id=msg.query_id,
                results=((item.index, entries, 1.0),),
                origin=self.address,
                origin_area=self.area,
            ),
        )


class HomeServerClient(Endpoint):
    """Client-side logic of the home-server scheme.

    Point operations hash to one server; spatial queries scatter-gather
    across all servers (no server knows which objects are where).
    """

    def __init__(self, address: str, n_servers: int, area: Rect) -> None:
        super().__init__(address)
        self.n_servers = n_servers
        self.area = area
        self._collect: dict[str, dict] = {}
        self.on(m.RangeQueryBatchSubRes, self._on_sub_res)
        self.on(m.NNCandidatesBatchSubRes, self._on_sub_res)

    def home_of(self, object_id: str) -> str:
        return home_of(object_id, self.n_servers)

    async def register(self, object_id: str, pos: Point, des_acc: float, min_acc: float):
        from repro.model import SightingRecord

        rid = self.next_request_id()
        res = await self.request(
            self.home_of(object_id),
            m.RegisterReq(
                request_id=rid,
                reply_to=self.address,
                sighting=SightingRecord(object_id, self.ctx.now(), pos, 10.0),
                des_acc=des_acc,
                min_acc=min_acc,
                registrar=self.address,
            ),
        )
        return res

    async def update(self, object_id: str, pos: Point):
        from repro.model import SightingRecord

        rid = self.next_request_id()
        return await self.request(
            self.home_of(object_id),
            m.UpdateReq(
                request_id=rid,
                reply_to=self.address,
                sighting=SightingRecord(object_id, self.ctx.now(), pos, 10.0),
            ),
        )

    async def pos_query(self, object_id: str):
        rid = self.next_request_id()
        res = await self.request(
            self.home_of(object_id),
            m.PosQueryReq(request_id=rid, reply_to=self.address, object_id=object_id),
        )
        assert isinstance(res, m.PosQueryRes)
        return res.descriptor if res.found else None

    async def range_query(
        self, area: Region, req_acc: float = float("inf"), req_overlap: float = 0.5
    ):
        """Scatter-gather: every home server must be consulted."""
        query_id = self.next_request_id()
        future = self.ctx.create_future()
        self._collect[query_id] = {"future": future, "pending": self.n_servers, "entries": {}}
        from repro.geo import region_bounds
        from repro.model import RangeQuery, effective_margin

        dispatch = region_bounds(area).enlarged(
            effective_margin(RangeQuery(area, req_acc=req_acc, req_overlap=req_overlap))
        )
        for i in range(self.n_servers):
            self.send(
                f"home-{i}",
                m.RangeQueryBatchFwd(
                    query_id=query_id,
                    items=(
                        m.RangeBatchItem(
                            index=0,
                            area=area,
                            req_acc=req_acc,
                            req_overlap=req_overlap,
                            dispatch=dispatch,
                        ),
                    ),
                    entry_server=self.address,
                    sender=self.address,
                    direct=True,
                ),
            )
        await future
        state = self._collect.pop(query_id)
        return tuple(sorted(state["entries"].items()))

    async def neighbor_query(
        self, pos: Point, req_acc: float = float("inf"), near_qual: float = 0.0
    ) -> NearestNeighborResult:
        """Scatter-gather over the whole service area (single round)."""
        query_id = self.next_request_id()
        future = self.ctx.create_future()
        self._collect[query_id] = {"future": future, "pending": self.n_servers, "entries": {}}
        for i in range(self.n_servers):
            self.send(
                f"home-{i}",
                m.NNCandidatesBatchFwd(
                    query_id=query_id,
                    items=(m.NNBatchItem(0, self.area, req_acc, pos, near_qual),),
                    entry_server=self.address,
                    sender=self.address,
                    direct=True,
                ),
            )
        await future
        state = self._collect.pop(query_id)
        return nearest_neighbor(
            list(state["entries"].items()),
            NearestNeighborQuery(pos, req_acc=req_acc, near_qual=near_qual),
        )

    async def _on_sub_res(self, msg) -> None:
        """One server's answer to the one item of a scatter (either kind)."""
        state = self._collect.get(msg.query_id)
        if state is None:
            return
        for _, entries, _ in msg.results:
            state["entries"].update(entries)
        state["pending"] -= 1
        if state["pending"] == 0 and not state["future"].done():
            state["future"].set_result(None)


def build_home_service(
    area: Rect,
    n_servers: int,
    network: SimNetwork | None = None,
    accuracy: AccuracyModel | None = None,
) -> tuple[SimNetwork, HomeServerClient]:
    """Wire a complete home-server deployment onto a simulated network."""
    net = network if network is not None else SimNetwork()
    for i in range(n_servers):
        net.join(HomeServer(f"home-{i}", area, accuracy=accuracy))
    client = HomeServerClient("home-client", n_servers, area)
    net.join(client)
    return net, client

"""Closed-loop load driver and answer checking.

Two clients (= ``nproc``) pop operations off a shared queue; each sends its
next operation only after the previous one was answered, which is how this
protocol's reporters (wait for the envelope ack) and query clients (wait
for the reply) behave.  A slow system therefore receives less load: the
numbers are latencies and completed work per second at two clients, not a
rate the system was offered.

Answers are checked after the run, outside every timed region, against a
flat ``LocalDataStore`` holding all objects (the ``baselines/central.py``
model): the operation log is replayed in time order, and every query during
whose flight no update was in flight must match the flat store exactly.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass

from repro.core import messages as m
from repro.core.client import LocationClient
from repro.errors import TransportError
from repro.geo import Point, Rect
from repro.model import NearestNeighborQuery, RangeQuery, SightingRecord
from repro.runtime import validation
from repro.runtime.base import Endpoint
from repro.storage import LocalDataStore

from cluster import DES_ACC, MIN_ACC, SENSOR_ACC, Cluster
from quiet import QuietCore
from workloads import REQ_ACC, REQ_OVERLAP, Inputs, Op

CLIENTS = 2
REQUEST_TIMEOUT = 5.0
RESENDS = 2


@dataclass(slots=True)
class Record:
    """What happened to one operation."""

    op: Op
    sent: float
    done: float
    #: answered, acked for every sighting, and (after ``check_answers``)
    #: equal to the flat store's answer.
    ok: bool
    answer: object


@dataclass(slots=True)
class GroupSample:
    """One group: its records (a slice of the log), wall clock and completed
    work — one sample of the workload's throughput."""

    records: list[Record]
    wall: float
    reports: int
    queries: int


class _Reporter(Endpoint):
    """Driver-side endpoint carrying the update envelopes."""

    def __init__(self, address: str = "bench-reporter") -> None:
        super().__init__(address)
        # Looked up at construction, so a traced pass times the ack's
        # validation like any other call into runtime.validation.
        self.validator = validation.find_defect


class Driver:
    def __init__(self, cluster: Cluster, inputs: Inputs, quiet: QuietCore | None = None) -> None:
        self.cluster = cluster
        self.inputs = inputs
        #: consulted at every barrier, where nothing is in flight.
        self.quiet = quiet
        self.epoch = cluster.hierarchy.epoch
        self.reporter = cluster.join(_Reporter())
        first_leaf = inputs.leaves[0][0]
        self.clients = [
            cluster.join(LocationClient(f"bench-client-{n}", first_leaf, timeout=REQUEST_TIMEOUT))
            for n in range(CLIENTS)
        ]
        self.log: list[Record] = []
        self.samples: list[GroupSample] = []
        self.timeouts = 0
        self.retries = 0

    # -- one operation --------------------------------------------------------

    def build_envelope(self, op: Op, request_id: str) -> m.UpdateBatchReq:
        timestamp, indexes, xs, ys = op.arg
        ids = self.inputs.object_ids
        return m.UpdateBatchReq(
            request_id=request_id,
            reply_to=self.reporter.address,
            sightings=tuple(
                SightingRecord(ids[i], timestamp, Point(x, y), SENSOR_ACC)
                for i, x, y in zip(indexes, xs, ys)
            ),
            epoch=self.epoch,
        )

    async def _update(self, op: Op, client: LocationClient):
        reporter = self.reporter
        res = await reporter.request(
            op.entry, self.build_envelope(op, reporter.next_request_id()), timeout=REQUEST_TIMEOUT
        )
        return res.outcomes

    async def _query(self, op: Op, client: LocationClient):
        client.use_entry_server(op.entry)
        if op.kind == "pos":
            return await client.pos_query(self.inputs.object_ids[op.arg])
        if op.kind == "range":
            return await client.range_query(Rect(*op.arg), req_acc=REQ_ACC, req_overlap=REQ_OVERLAP)
        return await client.neighbor_query(Point(*op.arg), req_acc=REQ_ACC)

    async def _execute(self, op: Op, client: LocationClient) -> None:
        call = self._update if op.kind == "update" else self._query
        sent = time.perf_counter()
        answer = None
        for attempt in range(RESENDS + 1):
            try:
                answer = await call(op, client)
                break
            except TransportError:
                self.timeouts += 1
                if attempt < RESENDS:
                    self.retries += 1
        done = time.perf_counter()
        ok = answer is not None
        if ok and op.kind == "update":
            ok = len(answer) == len(op.arg[1]) and all(outcome.ok for outcome in answer)
            answer = None  # checked; a log holding every outcome would only feed the GC
        self.log.append(Record(op, sent, done, ok, answer))

    # -- the closed loop ------------------------------------------------------

    async def _drain(self, queue: deque, client: LocationClient) -> None:
        while queue:
            await self._execute(queue.popleft(), client)

    async def run(self, groups: list[list[Op]]) -> None:
        """Drain ``groups`` in order, both clients meeting after each."""
        for group in groups:
            if self.quiet is not None:
                self.quiet.settle()
            queue = deque(group)
            first = len(self.log)
            started = time.perf_counter()
            await asyncio.gather(*(self._drain(queue, client) for client in self.clients))
            wall = time.perf_counter() - started
            done = self.log[first:]
            self.samples.append(
                GroupSample(
                    done,
                    wall,
                    sum(len(r.op.arg[1]) for r in done if r.ok and r.op.kind == "update"),
                    sum(1 for r in done if r.ok and r.op.kind != "update"),
                )
            )

    def sweep_group(self, limit: int) -> list[Op]:
        """Position queries for ``limit`` evenly spread objects, entering at
        each leaf in turn — for three in four that is not the agent, so the
        answer also proves the forwarding path above it."""
        leaves = [leaf for leaf, _area in self.inputs.leaves]
        count = len(self.inputs.object_ids)
        stride = max(1, count // limit)
        return [
            Op("pos", "sweep", leaves[(i // stride) % len(leaves)], i)
            for i in range(0, count, stride)
        ]


# -- checking, outside every timed region -------------------------------------


def _reference(inputs: Inputs) -> LocalDataStore:
    store = LocalDataStore()
    for oid, x, y in zip(inputs.object_ids, inputs.start_xs, inputs.start_ys):
        store.register(SightingRecord(oid, 0.0, Point(x, y), SENSOR_ACC), DES_ACC, MIN_ACC, "bench")
    return store


def _expected(store: LocalDataStore, inputs: Inputs, op: Op):
    if op.kind == "pos":
        return store.position_query(inputs.object_ids[op.arg])
    if op.kind == "range":
        return store.range_query(RangeQuery(Rect(*op.arg), req_acc=REQ_ACC, req_overlap=REQ_OVERLAP))
    return store.nearest_neighbor_query(NearestNeighborQuery(Point(*op.arg), req_acc=REQ_ACC))


def _matches(op: Op, answer, expected) -> bool:
    if op.kind == "pos":
        return answer == expected
    if op.kind == "range":
        return list(answer.entries) == expected
    return answer.result == expected


def check_answers(
    inputs: Inputs, log: list[Record], sample_every: int = 1, spoil: Record | None = None
) -> tuple[LocalDataStore, int]:
    """Replay ``log`` against a flat store; mark wrong answers ``ok=False``.

    Acked updates are applied at their ack; a query is compared when no
    update was in flight at any time during it (the only case with one
    right answer) — every such position query, and every
    ``sample_every``-th such range/NN query.  ``spoil`` names a record whose
    expected answer is ruined, to prove a mismatch is noticed.  Returns the
    flat store in its final state and how many answers were compared.
    """
    store = _reference(inputs)
    ids = inputs.object_ids
    events = []
    for record in log:
        events.append((record.sent, 0, record))
        events.append((record.done, 1, record))
    events.sort(key=lambda event: (event[0], event[1]))
    updates_in_flight = 0
    open_queries: dict[int, object] = {}  # id(record) -> expected answer
    clean_seen = compared = 0
    for _time, is_done, record in events:
        op = record.op
        if op.kind == "update":
            if not is_done:
                updates_in_flight += 1
                open_queries.clear()  # whatever is open now has no single right answer
                continue
            updates_in_flight -= 1
            if record.ok:
                timestamp, indexes, xs, ys = op.arg
                store.update_many(
                    [
                        SightingRecord(ids[i], timestamp, Point(x, y), SENSOR_ACC)
                        for i, x, y in zip(indexes, xs, ys)
                    ]
                )
        elif not is_done:
            if updates_in_flight == 0 and record.ok:
                if op.kind != "pos":
                    clean_seen += 1
                    if clean_seen % sample_every:
                        continue
                open_queries[id(record)] = None if record is spoil else _expected(store, inputs, op)
        elif id(record) in open_queries:
            compared += 1
            if not _matches(op, record.answer, open_queries.pop(id(record))):
                record.ok = False
    return store, compared


def check_final_state(cluster: Cluster, inputs: Inputs, reference: LocalDataStore) -> list[str]:
    """Every object sits in the leaf its last acked position belongs to, at
    that position, and is counted once."""
    problems = []
    stores = {
        leaf: cluster.servers[leaf].store for leaf in cluster.hierarchy.leaf_ids()
    }
    total = sum(store.sighting_count for store in stores.values())
    if total != len(inputs.object_ids):
        problems.append(f"leaves hold {total} sightings for {len(inputs.object_ids)} objects")
    for oid in inputs.object_ids:
        expected = reference.position_query(oid)
        store = stores[cluster.hierarchy.leaf_for_point(expected.pos)]
        if oid not in store.sightings or store.position_query(oid) != expected:
            problems.append(f"{oid} is not at its last acked position")
            if len(problems) >= 10:
                break
    return problems

"""The simulator's CPU cost model, fixed or measured.

Table 2 prices messages with :func:`default_cost_model`: fixed
per-operation service times for our own data-storage component, not
the paper's SUN Ultra numbers, so the simulated table is the same on
every run and host and its relative structure emerges from the model.
:func:`calibrate` measures this host's costs with a scaled-down Table-1
workload; the Table 2 bench prints them beside the table, and a caller
that wants a host-priced run passes ``calibrate().cost_model()``.

Either way the per-operation costs map onto message types:

=====================  ==========================================
``UpdateReq``          one sighting-DB update
``PosQueryReq/Fwd``    one hash lookup (+ response construction)
``RangeQueryReq``      one spatial-index search over a medium area
``…BatchFwd``          the same, once per item the forward carries
``HandoverBatchReq``   insert + visitor-DB write
other                  a small fixed routing cost
=====================  ==========================================
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.geo import Point, Rect
from repro.model import AccuracyModel, RangeQuery, SightingRecord
from repro.runtime.latency import CostModel
from repro.storage import LocalDataStore


@dataclass(frozen=True, slots=True)
class CalibrationResult:
    """Measured single-node operation costs, seconds per operation."""

    insert_cost: float
    update_cost: float
    pos_query_cost: float
    range_query_cost: float

    def cost_model(self, routing_cost: float | None = None) -> CostModel:
        """Build the simulator's CPU cost model from the measurements."""
        routing = routing_cost if routing_cost is not None else self.pos_query_cost
        return CostModel(
            service={
                "UpdateReq": self.update_cost,
                "PosQueryReq": self.pos_query_cost,
                "PosQueryFwd": self.pos_query_cost,
                "PosQueryDirect": self.pos_query_cost,
                "RangeQueryReq": self.range_query_cost,
                "RangeQueryBatchFwd": self.range_query_cost,
                "NNCandidatesBatchFwd": self.range_query_cost,
                "NeighborQueryReq": self.range_query_cost,
                "HandoverBatchReq": self.insert_cost,
                "RegisterReq": self.insert_cost,
            },
            per_entry=2e-7,
            default=routing,
        )


def calibrate(
    object_count: int = 2000,
    operations: int = 2000,
    area_side: float = 10_000.0,
    range_side: float = 100.0,
    seed: int = 0,
) -> CalibrationResult:
    """Measure the wall-clock cost of the four storage operations.

    Uses a scaled-down version of the Table-1 workload (the default 2 000
    objects keep calibration under a second; costs are per-operation and
    insensitive to the population at these scales).
    """
    rng = random.Random(seed)
    area = Rect(0, 0, area_side, area_side)
    store = LocalDataStore(accuracy=AccuracyModel(sensor_floor=10.0, update_slack=5.0))

    def random_point() -> Point:
        return Point(rng.uniform(0, area_side), rng.uniform(0, area_side))

    ids = [f"cal-{i}" for i in range(object_count)]
    start = time.perf_counter()
    for i, oid in enumerate(ids):
        store.register(
            SightingRecord(oid, 0.0, random_point(), 10.0), 25.0, 100.0, "cal", now=0.0
        )
    insert_cost = (time.perf_counter() - start) / object_count

    start = time.perf_counter()
    for i in range(operations):
        oid = ids[rng.randrange(object_count)]
        store.update(SightingRecord(oid, 1.0, random_point(), 10.0), now=1.0)
    update_cost = (time.perf_counter() - start) / operations

    start = time.perf_counter()
    for i in range(operations):
        store.position_query(ids[rng.randrange(object_count)])
    pos_query_cost = (time.perf_counter() - start) / operations

    start = time.perf_counter()
    for i in range(max(1, operations // 10)):
        center = random_point()
        store.range_query(
            RangeQuery(
                Rect.from_center(center, range_side, range_side),
                req_acc=50.0,
                req_overlap=0.3,
            )
        )
    range_query_cost = (time.perf_counter() - start) / max(1, operations // 10)

    return CalibrationResult(
        insert_cost=insert_cost,
        update_cost=update_cost,
        pos_query_cost=pos_query_cost,
        range_query_cost=range_query_cost,
    )


def default_cost_model() -> CostModel:
    """The fixed cost model every simulated bench prices with, Table 2
    included: the same on every host, so no wall clock steers a
    simulated result."""
    return CalibrationResult(
        insert_cost=40e-6,
        update_cost=30e-6,
        pos_query_cost=4e-6,
        range_query_cost=120e-6,
    ).cost_model()

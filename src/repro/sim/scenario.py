"""Experiment scenarios: the paper's two measured configurations.

* :func:`table1_store` — the data-storage micro-benchmark setup
  (Section 7.1): one in-memory store, 10 km x 10 km service area,
  25 000 tracked objects at random positions.
* :func:`table2_service` — the distributed testbed (Section 7.2 /
  Fig. 8): one root + four quadrant leaves over 1.5 km x 1.5 km with
  10 000 registered objects, a CPU cost model (the Table-2 bench passes
  ``default_cost_model()``) and LAN-like latencies.
* :class:`DistributedHarness` — response-time and throughput measurement
  driver used by the Table-2 bench and the ablation benches.
* :class:`MobilitySimulation` — the batched simulation tick: step all
  walkers, apply one bulk index update, evaluate reporting policies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core import LocationService, build_table2_hierarchy
from repro.core.caching import CacheConfig
from repro.core.hierarchy import Hierarchy
from repro.geo import Point, Rect
from repro.model import AccuracyModel, SightingRecord
from repro.protocols.update_policies import UpdatePolicy
from repro.runtime.latency import CostModel, LatencyModel
from repro.sim.metrics import LatencyRecorder, ThroughputMeter
from repro.sim.mobility import Walker, make_walkers
from repro.sim.workload import scatter_objects
from repro.storage import LocalDataStore

#: Paper Table 1 parameters.
TABLE1_AREA_SIDE = 10_000.0
TABLE1_OBJECTS = 25_000
TABLE1_OPS = 10_000

#: Paper Table 2 / Fig. 8 parameters.
TABLE2_AREA_SIDE = 1_500.0
TABLE2_OBJECTS = 10_000
TABLE2_RANGE_SIDE = 50.0


def table1_store(
    object_count: int = TABLE1_OBJECTS,
    area_side: float = TABLE1_AREA_SIDE,
    index_kind: str = "quadtree",
    seed: int = 0,
    backend: str = "objects",
) -> tuple[LocalDataStore, list[str]]:
    """The Section-7.1 data store with ``object_count`` registered objects."""
    from repro.spatial import make_index

    rng = random.Random(seed)
    store = LocalDataStore(
        accuracy=AccuracyModel(sensor_floor=10.0, update_slack=5.0),
        index=None if backend == "columnar" else make_index(index_kind),
        backend=backend,
    )
    ids = []
    for i in range(object_count):
        oid = f"t1-{i}"
        pos = Point(rng.uniform(0, area_side), rng.uniform(0, area_side))
        store.register(SightingRecord(oid, 0.0, pos, 10.0), 25.0, 100.0, "bench", now=0.0)
        ids.append(oid)
    return store, ids


def table2_service(
    object_count: int = TABLE2_OBJECTS,
    costs: CostModel | None = None,
    latency: LatencyModel | None = None,
    cache_config: CacheConfig | None = None,
    hierarchy: Hierarchy | None = None,
    seed: int = 0,
    nn_initial_radius: float | None = None,
) -> tuple[LocationService, dict[str, str]]:
    """The Fig. 8 testbed, populated with ``object_count`` uniformly
    scattered objects (:func:`populate`).  Returns the service and a map
    of object id → agent leaf.
    """
    h = hierarchy if hierarchy is not None else build_table2_hierarchy(TABLE2_AREA_SIDE)
    if costs is not None:
        # Non-leaf servers only route; charge them routing cost, not a
        # leaf's spatial-scan cost.
        costs.routers = costs.routers | {
            sid for sid in h.server_ids() if not h.config(sid).is_leaf
        }
    svc = LocationService(
        h,
        latency=latency if latency is not None else LatencyModel(base=350e-6, per_entry=1e-6),
        costs=costs,
        cache_config=cache_config,
        sighting_ttl=1e9,  # soft state disabled during measurements
        nn_initial_radius=nn_initial_radius,
    )
    return svc, populate(svc, scatter_objects(h, object_count, seed=seed, prefix="t2"))


def populate(svc: LocationService, placements) -> dict[str, str]:
    """Register ``(object id, position)`` placements *directly into the
    leaf stores* (not via the message protocol) so building a scenario
    is fast, and install the forwarding paths exactly as registration
    would.  Returns object id → agent leaf."""
    h = svc.hierarchy
    homes: dict[str, str] = {}
    for oid, pos in placements:
        leaf_id = h.leaf_for_point(pos)
        svc.servers[leaf_id].store.register(
            SightingRecord(oid, 0.0, pos, 10.0), 25.0, 100.0, "sim", now=0.0
        )
        homes[oid] = leaf_id
        path = h.path_to_root(leaf_id)
        for below, above in zip(path, path[1:]):
            svc.servers[above].visitors.insert_forward(oid, below)
    return homes


@dataclass(frozen=True, slots=True)
class TickStats:
    """Outcome of one :class:`MobilitySimulation` step."""

    time: float
    moved: int
    reported: int
    suppressed: int


class MobilitySimulation:
    """The batched simulation tick over one data store.

    Each :meth:`tick` performs the pipeline the paper's workload implies:
    **step all walkers → one batched index update → policy evaluation**.
    Every walker advances by ``dt``; objects whose reporting policy
    triggers (all of them when no policies are given) contribute one
    sighting, and the whole tick lands in the store through a single
    :meth:`~repro.storage.datastore.LocalDataStore.update_many` — one
    pass over the spatial index's in-place fast paths instead of N
    independent remove+insert calls.

    Args:
        store: the leaf data store; every walker id must be registered.
        walkers: object id → its movement process.
        policies: optional object id → reporting policy (Section 6.2);
            objects without a policy report every tick.
        sensor_acc: sensor accuracy stamped on generated sightings.
    """

    def __init__(
        self,
        store: LocalDataStore,
        walkers: dict[str, Walker],
        policies: dict[str, UpdatePolicy] | None = None,
        sensor_acc: float = 10.0,
    ) -> None:
        self.store = store
        self.walkers = walkers
        self.policies = policies or {}
        self.sensor_acc = sensor_acc
        self.now = 0.0
        self.ticks: list[TickStats] = []

    @classmethod
    def table1(
        cls,
        object_count: int = TABLE1_OBJECTS,
        area_side: float = TABLE1_AREA_SIDE,
        index_kind: str = "quadtree",
        mobility: str = "waypoint",
        seed: int = 0,
        policy_factory=None,
        sensor_acc: float = 10.0,
        backend: str = "objects",
        **walker_kwargs,
    ) -> "MobilitySimulation":
        """The Section-7.1 store populated with a walker per object."""
        from repro.spatial import make_index

        area = Rect(0.0, 0.0, area_side, area_side)
        population = make_walkers(mobility, object_count, area, seed=seed, **walker_kwargs)
        store = LocalDataStore(
            accuracy=AccuracyModel(sensor_floor=10.0, update_slack=5.0),
            index=None if backend == "columnar" else make_index(index_kind),
            backend=backend,
        )
        walkers: dict[str, Walker] = {}
        for i, walker in enumerate(population):
            oid = f"mob-{i}"
            walkers[oid] = walker
            store.register(
                SightingRecord(oid, 0.0, walker.position, sensor_acc),
                25.0,
                100.0,
                "sim",
                now=0.0,
            )
        policies = (
            {oid: policy_factory() for oid in walkers} if policy_factory else None
        )
        return cls(store, walkers, policies, sensor_acc=sensor_acc)

    def tick(self, dt: float) -> TickStats:
        """Advance the world by ``dt`` seconds and flush one update batch."""
        self.now += dt
        now = self.now
        policies = self.policies
        sensor_acc = self.sensor_acc
        sightings: list[SightingRecord] = []
        suppressed = 0
        for oid, walker in self.walkers.items():
            pos = walker.step(dt)
            policy = policies.get(oid)
            if policy is not None:
                if not policy.should_report(now, pos):
                    suppressed += 1
                    continue
                policy.note_report(now, pos)
            sightings.append(SightingRecord(oid, now, pos, sensor_acc))
        if sightings:
            self.store.update_many(sightings, now=now)
        stats = TickStats(now, len(self.walkers), len(sightings), suppressed)
        self.ticks.append(stats)
        return stats

    def run(self, ticks: int, dt: float = 1.0) -> list[TickStats]:
        """Run ``ticks`` steps of ``dt`` seconds each."""
        return [self.tick(dt) for _ in range(ticks)]


class DistributedHarness:
    """Runs operation batches against a service and records metrics."""

    def __init__(self, svc: LocationService, homes: dict[str, str], seed: int = 0) -> None:
        self.svc = svc
        self.homes = homes
        self.latencies = LatencyRecorder()
        self._rng = random.Random(seed)
        self._clients: dict[str, object] = {}
        self._ids = list(homes)

    def client_at(self, leaf_id: str):
        if leaf_id not in self._clients:
            self._clients[leaf_id] = self.svc.new_client(entry_server=leaf_id)
        return self._clients[leaf_id]

    def random_object(self, leaf: str | None = None) -> str:
        if leaf is None:
            return self._rng.choice(self._ids)
        local = [oid for oid, home in self.homes.items() if home == leaf]
        return self._rng.choice(local)

    def point_in(self, leaf_id: str) -> Point:
        area = self.svc.hierarchy.config(leaf_id).area
        return Point(
            self._rng.uniform(area.min_x, area.max_x),
            self._rng.uniform(area.min_y, area.max_y),
        )

    # -- response time: sequential closed loop -------------------------------

    def measure_response_time(self, name: str, coro_factory, count: int) -> None:
        """Issue ``count`` sequential operations, recording each latency."""
        loop = self.svc.loop

        async def run_batch():
            for _ in range(count):
                start = loop.now
                await coro_factory()
                self.latencies.record(name, loop.now - start)

        self.svc.run(run_batch())

    # -- throughput: concurrent load generators ------------------------------

    def measure_throughput(
        self, coro_factory, duration: float, parallelism: int = 12
    ) -> float:
        """Offered-load throughput: ``parallelism`` generators issue
        operations back to back for ``duration`` virtual seconds."""
        loop = self.svc.loop
        meter = ThroughputMeter()
        meter.begin(loop.now)
        deadline = loop.now + duration

        async def generator():
            while loop.now < deadline:
                await coro_factory()
                meter.note(loop.now)

        async def run_all():
            tasks = [loop.create_task(generator(), name=f"gen-{i}") for i in range(parallelism)]
            for task in tasks:
                await task

        self.svc.run(run_all())
        return meter.per_second()

    # -- canned operations matching Table 2's rows -----------------------------

    def op_update_local(self, leaf: str):
        """A position update that stays within the object's leaf area."""
        obj_id = self.random_object(leaf)
        server = self.svc.servers[leaf]
        client = self.client_at(leaf)
        pos = self.point_in(leaf)

        async def op():
            from repro.core import messages as m

            rid = client.next_request_id()
            await client.request(
                leaf,
                m.UpdateReq(
                    request_id=rid,
                    reply_to=client.address,
                    sighting=SightingRecord(obj_id, self.svc.loop.now, pos, 10.0),
                ),
            )

        return op()

    def op_pos_query(self, entry_leaf: str, target_leaf: str):
        """Position query issued at ``entry_leaf`` for an object homed at
        ``target_leaf`` (equal leaves = the paper's "local" case)."""
        client = self.client_at(entry_leaf)
        obj_id = self.random_object(target_leaf)
        return client.pos_query(obj_id)

    def op_range_query(self, entry_leaf: str, span_leaves: list[str], side: float):
        """Range query issued at ``entry_leaf`` over an area spanning the
        given leaves (1, 2 or 4 of them, as in Table 2)."""
        area = self._range_area_spanning(span_leaves, side)
        client = self.client_at(entry_leaf)
        return client.range_query(area, req_acc=50.0, req_overlap=0.3)

    def _range_area_spanning(self, span_leaves: list[str], side: float) -> Rect:
        """An area of the given size positioned to overlap exactly the
        requested leaf service areas."""
        h = self.svc.hierarchy
        areas = [h.config(leaf).area for leaf in span_leaves]
        if len(areas) == 1:
            center = areas[0].center
        else:
            # Center on the shared corner/edge of the spanned leaves.
            min_x = min(a.min_x for a in areas)
            min_y = min(a.min_y for a in areas)
            max_x = max(a.max_x for a in areas)
            max_y = max(a.max_y for a in areas)
            center = Rect(min_x, min_y, max_x, max_y).center
        half = side / 2.0
        if len(areas) == 2:
            # Straddle the boundary between the two leaves.
            return Rect(center.x - half, center.y - half, center.x + half, center.y + half)
        if len(areas) == 4:
            return Rect(center.x - half, center.y - half, center.x + half, center.y + half)
        # Single leaf: jitter the center inside the leaf, away from edges.
        area = areas[0]
        cx = self._rng.uniform(area.min_x + side, area.max_x - side)
        cy = self._rng.uniform(area.min_y + side, area.max_y - side)
        return Rect(cx - half, cy - half, cx + half, cy + half)

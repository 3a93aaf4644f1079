"""The million-object streaming lane: columnar store + array workload.

ROADMAP direction 3 asks for 10^6 tracked objects on one leaf store.
The object path tops out two orders of magnitude earlier, because every
tick builds N ``SightingRecord`` objects, N ``Point`` objects and walks
N dict entries.  This module wires the pieces that avoid all of that:

* :class:`~repro.sim.workload.StreamingWalkers` advances the population
  as coordinate arrays,
* :class:`~repro.storage.columnar_db.ColumnarSightingDB` (behind
  ``LocalDataStore(backend="columnar")``) lands each tick as one
  vectorized scatter through a pre-resolved slot handle, and
* the :class:`~repro.cluster.load.LoadMonitor` heavy-hitter sketch
  ingests the per-tick slot arrays so rate-weighted split cuts keep
  working with constant memory.

:func:`columnar_benchmark_payload` is the BENCH_PR10 acceptance
harness: it drives the columnar lane *and* the object-path baseline
from identically-seeded twin populations (identical trajectories, so
both stores hold bit-identical positions at every checkpoint), measures
tick throughput on both, and cross-checks query answers — counts,
rect contents, position lookups and nearest-neighbor probes must match
exactly, or the payload says so and the CI gate fails.
"""

from __future__ import annotations

import time

from repro.geo import Point, Rect
from repro.model import AccuracyModel, SightingRecord
from repro.sim.workload import StreamingWalkers
from repro.storage import LocalDataStore

#: Registration parameters shared by both lanes (one homogeneous
#: population; the columnar lane negotiates once for the whole batch).
_DES_ACC = 25.0
_MIN_ACC = 100.0
_SENSOR_ACC = 10.0


class StreamingMobilitySimulation:
    """Array-in, array-through mobility ticks over one leaf store.

    The streaming counterpart of
    :class:`~repro.sim.scenario.MobilitySimulation`: the population is a
    :class:`StreamingWalkers` instance and each :meth:`tick` is

    * ``backend="columnar"`` — one vectorized position scatter through
      the store's slot handle (no per-walker objects at any point);
    * ``backend="objects"`` — materialize one ``SightingRecord`` per
      walker and land them through ``store.update_many``, which *is* the
      existing object hot path: this lane exists so the benchmark's
      baseline pays exactly the cost every pre-columnar scenario pays.

    Args:
        objects: population size.
        area_side: square service-area side length (meters).
        backend: ``columnar`` or ``objects`` (see above).
        seed: trajectory seed — two simulations built with the same
            ``objects``/``area_side``/``seed`` trace
            identical walker paths regardless of backend.
        monitor: optional :class:`~repro.cluster.load.LoadMonitor` whose
            per-object window is fed each tick (the columnar lane feeds
            the vectorized sketch lane and requires
            ``object_rate_mode="sketch"``).
    """

    def __init__(
        self,
        objects: int,
        area_side: float = 10_000.0,
        backend: str = "columnar",
        seed: int = 0,
        monitor=None,
        ttl: float = 300.0,
    ) -> None:
        self.backend = backend
        self.area = Rect(0.0, 0.0, area_side, area_side)
        self.walkers = StreamingWalkers(objects, self.area, seed=seed)
        self.monitor = monitor
        self.now = 0.0
        self.store = LocalDataStore(
            accuracy=AccuracyModel(sensor_floor=10.0, update_slack=5.0),
            backend=backend,
            ttl=ttl,
        )
        ids = self.walkers.object_ids
        if backend == "columnar":
            self.handle = self.store.bulk_register_arrays(
                ids,
                self.walkers.xs,
                self.walkers.ys,
                des_acc=_DES_ACC,
                min_acc=_MIN_ACC,
                registrar="stream",
                now=0.0,
            )
            self._slot_array = self.handle.slots
        else:
            self.handle = None
            records = [
                SightingRecord(oid, 0.0, self.walkers.position_of(i), _SENSOR_ACC)
                for i, oid in enumerate(ids)
            ]
            self.store.sightings.bulk_insert(records, now=0.0)
            from repro.model import RegistrationInfo

            reg_info = RegistrationInfo("stream", _DES_ACC, _MIN_ACC)
            offered = self.store.accuracy.negotiate(_DES_ACC, _MIN_ACC)
            insert_leaf = self.store.visitors.insert_leaf
            for oid in ids:
                insert_leaf(oid, offered, reg_info)

    def tick(self, dt: float = 30.0) -> None:
        """Advance every walker and land the whole tick in the store."""
        self.now += dt
        xs, ys = self.walkers.step(dt)
        if self.backend == "columnar":
            self.store.update_positions(self.handle, xs, ys, now=self.now)
            if self.monitor is not None:
                ids = self.walkers.object_ids
                self.monitor.record_object_updates_array(
                    self._slot_array, lambda pos: [ids[p] for p in pos]
                )
        else:
            walkers = self.walkers
            records = [
                SightingRecord(
                    oid, self.now, Point(float(xs[i]), float(ys[i])), _SENSOR_ACC
                )
                for i, oid in enumerate(walkers.object_ids)
            ]
            self.store.update_many(records, now=self.now)
            if self.monitor is not None:
                self.monitor.record_object_updates(walkers.object_ids)


def _sorted_rect_answers(store: LocalDataStore, rects: list[Rect]):
    """Rect contents as sorted ``(id, x, y)`` triples per rect."""
    return [
        sorted((oid, p.x, p.y) for oid, p in hits)
        for hits in store.sightings.positions_in_rects(rects)
    ]


def _checkpoint_rects(area: Rect, count: int) -> list[Rect]:
    """A deterministic grid of probe rects spanning the service area."""
    import math

    per_side = max(1, int(math.isqrt(count)))
    rects = []
    w = area.width / (per_side + 1)
    h = area.height / (per_side + 1)
    for i in range(per_side):
        for j in range(per_side):
            if len(rects) == count:
                break
            x0 = area.min_x + (i + 0.5) * w
            y0 = area.min_y + (j + 0.5) * h
            rects.append(Rect(x0, y0, x0 + w, y0 + h))
    return rects


def columnar_benchmark_payload(
    objects: int = 1_000_000,
    ticks: int = 5,
    baseline_objects: int | None = None,
    area_side: float = 10_000.0,
    seed: int = 0,
    count_rects: int = 32,
    content_rects: int = 8,
    nn_probes: int = 4,
    sample_ids: int = 64,
) -> dict:
    """The BENCH_PR10 artifact: columnar vs object hot path at scale.

    Drives twin populations (identical trajectories) through both
    backends and reports:

    * ``tick_speedup`` — object-path per-tick wall time over columnar
      per-tick wall time, normalized per object when the baseline runs a
      smaller population (``baseline_objects``, default: full size up to
      100k — at 10^6 the object path alone would take minutes per tick,
      so the baseline measures its per-object cost on a population large
      enough to amortize constants and scales linearly, which *favors*
      the baseline: its dict/allocation costs grow superlinearly with
      population pressure).
    * ``answers_identical`` — equality of count probes, rect contents,
      sampled position lookups and nearest-neighbor answers across the
      two stores after every measured tick.
    * ``load_monitor_bounded`` — the sketch-mode monitor's footprint
      stays at its geometry bound while ingesting every columnar tick.
    """
    from types import SimpleNamespace

    from repro.cluster import LoadMonitor

    if baseline_objects is None:
        baseline_objects = min(objects, 100_000)

    monitor = LoadMonitor(half_life=10.0, object_rate_mode="sketch")
    stub_service = SimpleNamespace(servers={}, retired_servers={})
    monitor.sample(stub_service, 0.0)

    columnar = StreamingMobilitySimulation(
        objects, area_side=area_side, backend="columnar", seed=seed, monitor=monitor
    )
    baseline = StreamingMobilitySimulation(
        baseline_objects, area_side=area_side, backend="objects", seed=seed
    )
    # The equivalence twin: the object backend at the *same* population
    # and trajectories as the columnar lane, used only for answer
    # comparison when the baseline is scaled down.  At very large sizes
    # its per-tick cost is the reason the timed baseline is smaller, so
    # cross-checks run against it but its ticks are not timed.
    if baseline_objects == objects:
        twin = baseline
    else:
        check_objects = min(objects, 200_000)
        twin = StreamingMobilitySimulation(
            check_objects, area_side=area_side, backend="objects", seed=seed
        )
        check_columnar = StreamingMobilitySimulation(
            check_objects, area_side=area_side, backend="columnar", seed=seed
        )

    area = columnar.area
    rects = _checkpoint_rects(area, count_rects)
    probe_points = [Point(r.min_x, r.min_y) for r in rects[:nn_probes]]

    columnar_seconds = 0.0
    baseline_seconds = 0.0
    answers_identical = True
    mismatches: list[str] = []

    def check(sim_a: StreamingMobilitySimulation, sim_b: StreamingMobilitySimulation):
        nonlocal answers_identical
        store_a, store_b = sim_a.store, sim_b.store
        if store_a.sightings.counts_in_rects(rects) != store_b.sightings.counts_in_rects(rects):
            answers_identical = False
            mismatches.append("counts_in_rects")
        if _sorted_rect_answers(store_a, rects[:content_rects]) != _sorted_rect_answers(
            store_b, rects[:content_rects]
        ):
            answers_identical = False
            mismatches.append("query_rect_many")
        ids = sim_a.walkers.object_ids
        stride = max(1, len(ids) // sample_ids)
        for oid in ids[::stride][:sample_ids]:
            if store_a.position_query(oid) != store_b.position_query(oid):
                answers_identical = False
                mismatches.append(f"position_query:{oid}")
                break
        for probe in probe_points:
            hits_a = store_a.sightings._index.nearest(probe, k=3)
            hits_b = store_b.sightings._index.nearest(probe, k=3)
            if hits_a != hits_b:
                answers_identical = False
                mismatches.append("nearest")
                break

    for _ in range(ticks):
        t0 = time.perf_counter()
        columnar.tick(30.0)
        columnar_seconds += time.perf_counter() - t0
        monitor.sample(stub_service, columnar.now)

        t0 = time.perf_counter()
        baseline.tick(30.0)
        baseline_seconds += time.perf_counter() - t0

        if baseline_objects == objects:
            check(columnar, baseline)
        else:
            check_columnar.tick(30.0)
            twin.tick(30.0)
            check(check_columnar, twin)

    footprint = monitor.object_rate_footprint()
    sketch = monitor._sketch
    load_monitor_bounded = (
        footprint["tracked_rates"] <= 2 * sketch.top_k
        and footprint["pending_entries"] <= 2 * sketch.top_k
        and footprint["sketch_bytes"] == sketch.depth * sketch.width * 8
    )

    columnar_per_tick = columnar_seconds / ticks
    baseline_per_tick = baseline_seconds / ticks
    # Normalize per object when the baseline population is smaller.
    columnar_per_object = columnar_per_tick / objects
    baseline_per_object = baseline_per_tick / baseline_objects
    tick_speedup = (
        baseline_per_object / columnar_per_object if columnar_per_object > 0 else 0.0
    )

    return {
        "bench": "columnar hot path: 1M-object tick vs object backend",
        "objects": objects,
        "baseline_objects": baseline_objects,
        "ticks": ticks,
        "area_side_m": area_side,
        "seed": seed,
        "tick_speedup": tick_speedup,
        "answers_identical": answers_identical,
        "load_monitor_bounded": load_monitor_bounded,
        "columnar": {
            "seconds_per_tick": columnar_per_tick,
            "updates_per_second": objects / columnar_per_tick if columnar_per_tick else 0.0,
            "store_memory_bytes": columnar.store.sightings._index.memory_bytes(),
        },
        "object_baseline": {
            "seconds_per_tick": baseline_per_tick,
            "updates_per_second": (
                baseline_objects / baseline_per_tick if baseline_per_tick else 0.0
            ),
        },
        "equivalence": {
            "count_rects": count_rects,
            "content_rects": content_rects,
            "nn_probes": nn_probes,
            "sampled_ids": sample_ids,
            "mismatches": mismatches,
        },
        "load_monitor": {
            "mode": "sketch",
            **footprint,
            "heavy_hitters_tracked": len(monitor.object_rates()),
        },
    }

"""Elastic-cluster simulation driver and the scenario kernel.

:class:`ElasticHarness` glues the :mod:`repro.cluster` subsystem to a
running :class:`~repro.core.service.LocationService`: it feeds position
reports through the batched server tick (falling back to the full
update/handover protocol for reports that cross service areas or race a
migration), samples per-server load, and runs observe → plan → migrate
rounds.  There is one kind of round: every tick with a migration in
flight copies one fixed-size chunk
(:meth:`ElasticHarness.advance_migrations`), and
:meth:`ElasticHarness.rebalance` cuts over finished copies, plans around
the migrations still in flight and begins the new plans.  Traffic never
stops for a rebalance, and no wall-clock reading steers a decision: a
scenario's result is one value per seed apart from its ``timing``
sub-dict, the wall-clock numbers it only reports.

A scenario is data: a :class:`ScenarioWorkload` holds the placements, a
crowd that moves every tick and a background that reports every
:data:`BACKGROUND_PERIOD`-th tick, and its
:meth:`~ScenarioWorkload.positions_at` is the one motion loop.  Four
builders, each ``(objects, ticks, seed)``, make the acceptance
workloads:

* :func:`flash_crowd_workload` — most of the population concentrates in
  a small hotspot inside one leaf area (a stadium filling up);
* :func:`commuter_rush_workload` — a hot wavefront sweeps west→east
  (splits as it arrives, merges behind it);
* :func:`festival_surge_workload` — sustained churn between stages;
* :func:`hot_object_skew_workload` — hot *objects* rather than hot
  areas, the rate-weighted planner's case.

:class:`ScenarioRun` builds one world for a workload (the Fig.-8
testbed, placements, harness, motion rng) and runs one tick; the fault
scenarios of :mod:`repro.sim.chaos` subclass it.  :func:`run_scenario`
runs a workload static or elastic and measures before/after
per-server load, query latency and the zero-loss property; the
``BENCH_PR2/4/5.json`` bodies (:func:`elastic_benchmark_payload`,
:func:`zero_stall_benchmark_payload`,
:func:`planner_v2_benchmark_payload`) are its runs at the builders'
default sizes, one argument each: the seed.
"""

from __future__ import annotations

import gc
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.cluster import (
    LoadMonitor,
    LoadSample,
    MergePlan,
    MigrationExecutor,
    MigrationReport,
    PlannerConfig,
    RebalancePlanner,
    SplitPlan,
)
from repro.cluster.migration import COPY_CHUNK
from repro.core import CacheConfig, LocationService
from repro.core.hierarchy import Hierarchy
from repro.core.service import Reporter
from repro.geo import Point, Rect
from repro.sim.metrics import LatencyRecorder, MessageLedger
from repro.sim.scenario import TABLE2_AREA_SIDE, populate, table2_service
from repro.sim.workload import HotspotSpec, hotspot_positions, wavefront_area


@dataclass
class TickLoad:
    """Per-server operation deltas for one harness tick."""

    time: float
    deltas: dict[str, int] = field(default_factory=dict)


class ElasticHarness:
    """Observe → plan → migrate driver over one location service."""

    def __init__(
        self,
        service: LocationService,
        homes: dict[str, str],
        monitor: LoadMonitor | None = None,
        planner: RebalancePlanner | None = None,
    ) -> None:
        self.svc = service
        #: object id → the leaf currently believed to be its agent; kept
        #: in sync from update acknowledgements and migration reports.
        self.homes = dict(homes)
        self.monitor = monitor if monitor is not None else LoadMonitor()
        self.planner = planner if planner is not None else RebalancePlanner()
        self.executor = MigrationExecutor(service, monitor=self.monitor)
        self.migrations: list[MigrationReport] = []
        self.tick_loads: list[TickLoad] = []
        self.latencies = LatencyRecorder()
        #: observe → plan → migrate rounds run so far.
        self.rebalance_rounds = 0
        #: rounds whose plans included at least one split.
        self.split_rounds = 0
        #: ordinal (1-based) of the last round that planned a split — the
        #: "migration rounds to reach balance" number ``BENCH_PR5.json``
        #: gates.
        self.last_split_round = 0
        # Per-object update rates feed the planner's weighted cut costing;
        # in-area applies and handover admissions both report through the
        # leaf update listeners.
        service.set_update_listener(self.monitor.record_object_updates)
        self._reporter = Reporter("elastic-reporter")
        service.network.join(self._reporter)
        self._clients: dict[str, object] = {}

    # -- workload application ------------------------------------------------

    def apply_reports(
        self,
        reports: list[tuple[str, Point]],
        envelope_timeout: float | None = None,
        envelope_sub_timeout: float | None = None,
    ) -> dict[str, int]:
        """Apply one tick of position reports through the facade's report
        lane (:meth:`~repro.core.service.LocationService.report_many`),
        sent from this harness's own ``elastic-reporter`` address — fault
        rules and partitions name addresses.

        Reports whose object stays inside its believed agent's area are
        applied at that leaf; the rest — area crossings, or objects whose
        believed agent was split or merged away since the last tick — go
        through the full update protocol, one envelope per believed
        agent, whose acknowledgements re-point the home map.  Envelope
        recovery is :meth:`~repro.core.service.LocationService.
        update_many`'s.  Returns ``{"fast": n, "protocol": k}``.
        """
        homes = self.homes

        def fold(outcomes) -> None:
            for outcome in outcomes:
                if not outcome.ok:
                    continue
                if outcome.deregistered:
                    homes.pop(outcome.object_id, None)
                elif outcome.agent is not None:
                    homes[outcome.object_id] = outcome.agent

        fast = len(
            self.svc.report_many(
                ((oid, pos, 10.0, homes.get(oid)) for oid, pos in reports),
                self._reporter,
                fold,
                envelope_timeout=envelope_timeout,
                envelope_sub_timeout=envelope_sub_timeout,
            )
        )
        return {"fast": fast, "protocol": len(reports) - fast}

    # -- probes --------------------------------------------------------------

    def _client_at(self, leaf_id: str):
        if leaf_id not in self._clients:
            self._clients[leaf_id] = self.svc.new_client(entry_server=leaf_id)
        return self._clients[leaf_id]

    def probe_queries(self, rng: random.Random, phase: str, range_area: Rect) -> None:
        """Issue four position queries and one range query over
        ``range_area`` from random entry leaves, recording latencies
        under ``pos_query:<phase>`` / ``range_query:<phase>``."""
        svc = self.svc
        leaves = svc.hierarchy.leaf_ids()
        oids = list(self.homes)
        loop = svc.loop
        for _ in range(4):
            client = self._client_at(rng.choice(leaves))
            oid = rng.choice(oids)
            start = loop.now
            svc.run(client.pos_query(oid))
            self.latencies.record(f"pos_query:{phase}", loop.now - start)
        client = self._client_at(rng.choice(leaves))
        start = loop.now
        svc.run(client.range_query(range_area, req_acc=100.0, req_overlap=0.3))
        self.latencies.record(f"range_query:{phase}", loop.now - start)

    # -- observe / rebalance ------------------------------------------------

    def sample(self) -> dict[str, LoadSample]:
        """Fold current counters into the load window; logs tick deltas."""
        samples = self.monitor.sample(self.svc, self.svc.loop.now)
        self.tick_loads.append(
            TickLoad(
                time=self.svc.loop.now,
                deltas={sid: s.delta for sid, s in samples.items()},
            )
        )
        return samples

    def tick(
        self, reports: list[tuple[str, Point]]
    ) -> tuple[dict[str, int], float, bool]:
        """One harness tick: apply the reports, then copy one chunk of
        every in-flight migration (:meth:`advance_migrations`).

        Returns the :meth:`apply_reports` counts, the tick's wall clock
        (reported, never an input) and whether a migration was in flight.
        """
        migrating = bool(self.executor.in_flight)
        start = time.perf_counter()
        counts = self.apply_reports(reports)
        if migrating:
            self.advance_migrations()
        return counts, time.perf_counter() - start, migrating

    def advance_migrations(self) -> int:
        """Advance every in-flight migration's copy by one chunk of
        :data:`~repro.cluster.migration.COPY_CHUNK` entries.

        The bulk copy's index-build cost spreads across ticks in chunked
        slices instead of landing on a single tick, which is what keeps
        reports/s during migration near steady state.  Returns objects
        staged.
        """
        return sum(
            self.executor.step(migration, COPY_CHUNK)
            for migration in self.executor.in_flight
        )

    def rebalance(self) -> list[MigrationReport]:
        """One plan → migrate round; updates the home map.

        First cuts over every in-flight migration whose chunked copy
        has finished — its staged stores have tracked live traffic
        through the dual-write mirrors since :meth:`advance_migrations`
        drained the snapshot — then plans against the new topology
        (skipping servers an in-flight migration still touches) and
        opens the copy + dual-write window for the fresh plans.
        Traffic keeps flowing throughout: stale-epoch envelopes re-route
        through forwarding state and racing fan-out collectors re-issue
        on the epoch bump.  Returns the reports of the cutovers.
        """
        reports = self._record(
            self.executor.cutover(migration)
            for migration in list(self.executor.in_flight)
            if migration.copy_done
        )
        plans = self.planner.plan(
            self.svc,
            self.monitor.rates(),
            busy=self.executor.busy_server_ids(),
            object_rates=self.monitor.object_rates(),
            surge_rates=self.monitor.instant_rates(),
        )
        self._note_round(plans)
        for plan in plans:
            self.executor.begin(plan)
        return reports

    def cutover_all(self) -> list[MigrationReport]:
        """Cut over every migration still in flight (the end of a run),
        staging whatever its copy has left first."""
        return self._record(self.executor.cutover_all())

    def _record(self, reports) -> list[MigrationReport]:
        reports = list(reports)
        for report in reports:
            self.homes.update(report.new_homes)
        self.migrations.extend(reports)
        return reports

    def _note_round(self, plans) -> None:
        """Round accounting for the rounds-to-balance measurement."""
        self.rebalance_rounds += 1
        if any(isinstance(plan, SplitPlan) for plan in plans):
            self.split_rounds += 1
            self.last_split_round = self.rebalance_rounds

    # -- verification ---------------------------------------------------------

    def verify(self, expected_tracked: int) -> dict[str, object]:
        """The zero-loss / invariant check the acceptance criteria demand."""
        svc = self.svc
        svc.settle()
        tracked = svc.total_tracked()
        svc.check_consistency()
        svc.hierarchy.validate()
        return {
            "tracked": tracked,
            "lost_sightings": expected_tracked - tracked,
            "consistency_ok": True,
            "hierarchy_valid": True,
        }

    # -- aggregate metrics ----------------------------------------------------

    def sustained_loads(self, last_ticks: int) -> dict[str, float]:
        """Per-server ops/s sustained over the last ``last_ticks`` ticks."""
        window = self.tick_loads[-last_ticks:]
        if len(window) < 2:
            return {}
        duration = window[-1].time - window[0].time
        if duration <= 0.0:
            return {}
        totals: dict[str, int] = {}
        for tick in window[1:]:  # deltas cover the interval since the prior tick
            for sid, delta in tick.deltas.items():
                totals[sid] = totals.get(sid, 0) + delta
        return {sid: total / duration for sid, total in totals.items()}

    def split_count(self) -> int:
        return sum(1 for r in self.migrations if isinstance(r.plan, SplitPlan))

    def merge_count(self) -> int:
        return sum(1 for r in self.migrations if isinstance(r.plan, MergePlan))


# ---------------------------------------------------------------------------
# Scenarios: one workload record, one world, one runner
# ---------------------------------------------------------------------------

ROOT_SIDE = TABLE2_AREA_SIDE
#: The Fig.-8 testbed's root service area.
ROOT_AREA = Rect(0.0, 0.0, ROOT_SIDE, ROOT_SIDE)
#: Virtual seconds one scenario tick advances the clock.
DT = 1.0
#: An elastic run plans one rebalance round every this many ticks.
REBALANCE_EVERY = 2
#: Background objects report every this-many-th tick, staggered by index.
BACKGROUND_PERIOD = 4


def _jittering(radius: float, bounds: Rect):
    """The move ``(rng, pos) → Point``: up to ``radius`` metres along
    each axis, clamped to ``bounds``."""

    def move(rng: random.Random, pos: Point) -> Point:
        return Point(
            min(max(pos.x + rng.uniform(-radius, radius), bounds.min_x), bounds.max_x),
            min(max(pos.y + rng.uniform(-radius, radius), bounds.min_y), bounds.max_y),
        )

    return move


async def _advance(svc: LocationService, dt: float) -> None:
    await svc.loop.sleep(dt)


def _aged(hierarchy: Hierarchy, epoch: int) -> Hierarchy:
    """The same servers at topology epoch ``epoch``."""
    return Hierarchy(
        {sid: hierarchy.config(sid) for sid in hierarchy.server_ids()}, epoch=epoch
    )


@dataclass(frozen=True)
class ScenarioWorkload:
    """One scenario's objects and their motion, apart from any runtime.

    :func:`run_scenario`, the fault scenarios of :mod:`repro.sim.chaos`
    and the socket-cluster driver (:func:`repro.net.scenario.
    drive_workload`) all consume this record, so "the festival surge
    over real UDP sockets" is the festival-surge workload — same
    placements, same motion, same seeds — under a different transport.
    The record is never mutated: every run keeps its own positions.
    """

    objects: int
    ticks: int
    #: ``[(object id, Point)]`` at registration, crowd first.
    placements: list
    #: The first ``crowd`` placements move and report every tick.
    crowd: int
    #: ``crowd_step(tick, progress)`` → the tick's crowd move
    #: ``(rng, pos) → Point``.
    crowd_step: Callable
    #: Seed of the rng every move (and every probe query) draws from.
    motion_seed: int
    #: The other objects' move ``(rng, pos) → Point``; each reports every
    #: :data:`BACKGROUND_PERIOD`-th tick.
    background_step: Callable | None = None
    #: ``probe_area_at(progress)`` → the currently hot :class:`Rect`.
    probe_area_at: Callable | None = None
    #: Sustained per-server load is read over this many final ticks.
    measure_ticks: int = 0
    #: §6.5 cache configuration the service runs with (None = default).
    cache_config: CacheConfig | None = None

    def progress(self, tick: int) -> float:
        """``tick`` as a fraction of the run, 0 to 1."""
        return tick / max(self.ticks - 1, 1)

    def positions_at(
        self, rng: random.Random, positions: dict[str, Point], tick: int
    ) -> list[tuple[str, Point]]:
        """Move the tick's reporters: the one motion loop.

        ``positions`` (object id → Point, in placement order) is the
        caller's own copy and is updated in place.  Returns the tick's
        ``[(object id, Point)]`` reports.
        """
        crowd_move = self.crowd_step(tick, self.progress(tick))
        reports = []
        for i, (oid, pos) in enumerate(positions.items()):
            if i < self.crowd:
                new_pos = crowd_move(rng, pos)
            elif (i + tick) % BACKGROUND_PERIOD == 0:
                new_pos = self.background_step(rng, pos)
            else:
                continue  # background objects report sparsely
            positions[oid] = new_pos
            reports.append((oid, new_pos))
        return reports


def _crowd_workload(
    prefix: str, area: Rect, hotspot: HotspotSpec, objects: int, ticks: int, seed: int,
    **motion,
) -> ScenarioWorkload:
    """``hotspot.fraction`` of the objects placed in ``hotspot.area`` as
    the crowd, the rest uniformly over ``area``; moves seeded ``seed + 1``."""
    return ScenarioWorkload(
        objects=objects,
        ticks=ticks,
        placements=hotspot_positions(area, hotspot, objects, seed=seed, prefix=prefix),
        crowd=round(hotspot.fraction * objects),
        motion_seed=seed + 1,
        **motion,
    )


def flash_crowd_workload(
    objects: int = 1200, ticks: int = 24, seed: int = 0
) -> ScenarioWorkload:
    """A flash crowd inside one leaf of the Fig.-8 testbed.

    85 % of the objects pack into a 240 m square in the south-west
    quadrant and report every tick; background objects jitter over the
    whole area.  Static hierarchy: that leaf takes nearly all update
    load.  Elastic: it splits (recursively, while still hot).
    """
    hotspot = Rect(260.0, 260.0, 500.0, 500.0)
    crowd_move = _jittering(15.0, hotspot)
    return _crowd_workload(
        "fc", ROOT_AREA, HotspotSpec(area=hotspot, fraction=0.85), objects, ticks, seed,
        crowd_step=lambda tick, progress: crowd_move,
        background_step=_jittering(30.0, ROOT_AREA),
        probe_area_at=lambda progress: hotspot,
        measure_ticks=8,
    )


def commuter_rush_workload(
    objects: int = 1000, ticks: int = 36, seed: int = 0
) -> ScenarioWorkload:
    """A commuter-rush wavefront sweeping west→east across the area.

    80 % of the objects ride a hot 300 m vertical band that crosses the
    whole service area over the run, handing over between leaves as they
    go; the band heats leaves in sequence (splits) and leaves cold
    regions behind (merges).
    """
    width = 300.0

    def crowd_step(tick: int, progress: float):
        band = wavefront_area(ROOT_AREA, progress, width)

        def ride(rng: random.Random, pos: Point) -> Point:
            # Track the band's x-range, keep own lane.
            return Point(
                rng.uniform(band.min_x, band.max_x),
                min(max(pos.y + rng.uniform(-20.0, 20.0), ROOT_AREA.min_y), ROOT_AREA.max_y),
            )

        return ride

    return _crowd_workload(
        "cr",
        ROOT_AREA,
        HotspotSpec(area=wavefront_area(ROOT_AREA, 0.0, width), fraction=0.8),
        objects, ticks, seed,
        crowd_step=crowd_step,
        background_step=_jittering(30.0, ROOT_AREA),
        probe_area_at=lambda progress: wavefront_area(ROOT_AREA, progress, width),
        measure_ticks=10,
    )


def festival_surge_workload(
    objects: int = 1200, ticks: int = 36, seed: int = 0
) -> ScenarioWorkload:
    """Sustained churn: a festival crowd surging between three stages.

    85 % of the objects report **every tick** (heavy sustained load)
    while stampeding between stage areas in different quadrants: each
    act packs the crowd into one stage (splitting its leaf,
    recursively), and at every act change the crowd crosses the service
    area to the next stage — handovers en masse, the abandoned stage's
    children merging back.  Rebalancing never stops being needed while
    traffic never stops flowing: the case the phased migration pipeline
    exists for.
    """
    stages = [
        Rect.from_center(center, 280.0, 280.0)
        for center in (
            Point(380.0, 380.0),  # south-west quadrant
            Point(1120.0, 1120.0),  # north-east quadrant
            Point(1120.0, 380.0),  # south-east quadrant
        )
    ]
    act_length = max(ticks // len(stages), 1)

    def stage_at(tick: int) -> Rect:
        return stages[min(tick // act_length, len(stages) - 1)]

    def crowd_step(tick: int, progress: float):
        stage = stage_at(tick)
        settle, drift = _jittering(15.0, stage), _jittering(25.0, ROOT_AREA)

        def surge(rng: random.Random, pos: Point) -> Point:
            if stage.contains_point(pos):
                return settle(rng, pos)
            # Act change: festival-goers drift to the new stage over a
            # few ticks (~30% arrive per tick) instead of teleporting en
            # masse — so no single tick is a handover storm, the
            # sustained-load shape the zero-stall measurement is about.
            if rng.random() < 0.3:
                return Point(
                    rng.uniform(stage.min_x, stage.max_x),
                    rng.uniform(stage.min_y, stage.max_y),
                )
            return drift(rng, pos)

        return surge

    return _crowd_workload(
        "fs", ROOT_AREA, HotspotSpec(area=stages[0], fraction=0.85), objects, ticks, seed,
        crowd_step=crowd_step,
        background_step=_jittering(30.0, ROOT_AREA),
        probe_area_at=lambda progress: stage_at(
            min(int(progress * (ticks - 1)), ticks - 1) if ticks > 1 else 0
        ),
        measure_ticks=10,
        # §6.5 caches on: the crowd's act-change handovers exercise the
        # direct dispatch path, and the cutover invalidation broadcasts
        # are what keeps it from paying healing hops through the old
        # addresses.
        cache_config=CacheConfig.all_enabled(),
    )


def hot_object_skew_workload(
    objects: int = 1200, ticks: int = 28, seed: int = 0
) -> ScenarioWorkload:
    """Hot *objects*, not just a hot area — the rate-weighting workload.

    The whole population lives inside the south-west quadrant leaf, but
    the load is carried by a slice of it: 25 % of the objects pack into
    a 300 m block in the leaf's corner and report **every tick**, while
    the dormant majority spreads over the rest of the leaf and reports
    every fourth tick.  Balancing *object counts* across a cut therefore
    says almost nothing about balancing *load*: a count-median cut
    strands most of the hot block on one side, while rate-weighted k-way
    cuts place every line inside the hot mass and settle in one round.
    """
    half = ROOT_SIDE / 2
    leaf_area = Rect(0.0, 0.0, half, half)
    hot_block = Rect(40.0, 40.0, 340.0, 340.0)
    crowd_move = _jittering(12.0, hot_block)
    return _crowd_workload(
        "ho",
        # Placed strictly inside the leaf: its far edges belong to the
        # neighbouring leaves.
        Rect(0.0, 0.0, half - 1e-6, half - 1e-6),
        HotspotSpec(area=hot_block, fraction=0.25),
        objects, ticks, seed,
        crowd_step=lambda tick, progress: crowd_move,
        background_step=_jittering(10.0, leaf_area),
        probe_area_at=lambda progress: hot_block,
        measure_ticks=8,
    )


class ScenarioRun:
    """One scenario's world and its tick.

    The world is the Fig.-8 testbed (with the workload's §6.5 cache
    configuration; aged to topology ``epoch`` when non-zero), the
    workload's placements registered straight into the leaf stores, an
    :class:`ElasticHarness` with its load monitor (and ``planner``), and
    the rng seeded ``workload.motion_seed`` every move draws from.
    """

    def __init__(
        self,
        workload: ScenarioWorkload,
        *,
        epoch: int = 0,
        planner: RebalancePlanner | None = None,
    ) -> None:
        svc, _ = table2_service(0, cache_config=workload.cache_config)
        if epoch:
            svc.adopt_hierarchy(_aged(svc.hierarchy, epoch))
        self.svc = svc
        self.workload = workload
        self.harness = ElasticHarness(
            svc,
            populate(svc, workload.placements),
            monitor=LoadMonitor(half_life=5.0),
            planner=planner,
        )
        self.rng = random.Random(workload.motion_seed)
        self.positions = dict(workload.placements)
        #: Index of the tick running (the count of finished ticks).
        self.tick_index = 0

    def tick(self, apply=None):
        """One tick: the workload moves its reporters, ``apply`` lands
        the reports (default: the harness's unbounded lane), the virtual
        clock advances :data:`DT` and the monitor samples.  Returns what
        ``apply`` returned."""
        reports = self.workload.positions_at(self.rng, self.positions, self.tick_index)
        landed = (apply or self.harness.apply_reports)(reports)
        self.svc.run(_advance(self.svc, DT))
        self.harness.sample()
        self.tick_index += 1
        return landed


def _scenario_planner() -> RebalancePlanner:
    """Planner thresholds shared by the scenarios: split beyond 400
    ops/s, merge sibling sets whose decayed total drops under 80 ops/s
    (above the background noise floor, far below the split thresholds)."""
    return RebalancePlanner(
        PlannerConfig(split_load=400.0, hot_min_load=150.0, merge_load=80.0)
    )


def run_scenario(
    workload: ScenarioWorkload,
    *,
    elastic: bool = True,
    planner: RebalancePlanner | None = None,
) -> dict[str, object]:
    """Run ``workload`` for its ticks and measure it.

    With ``elastic=False`` the hierarchy stays static (the baseline the
    acceptance criteria compare against); otherwise every
    :data:`REBALANCE_EVERY`-th tick ends in a rebalance round of
    ``planner`` (default: the shared scenario planner).  Every migration
    phases copy → dual-write → cutover across rounds with traffic
    flowing throughout.  A tick counts as a *migration tick* when a
    migration is in flight during it or is in flight (or cut over) after
    the rebalance round at its end; the per-tick throughput split
    compares reports/s during migration against steady state
    (``BENCH_PR4.json``).  Those wall-clock numbers are the result's
    ``timing`` sub-dict; nothing else in it reads a clock.  Every result
    records per-server sustained load and query latency, and verifies
    the zero-loss property: every sighting present before a rebalance is
    reachable after it.
    """
    run = ScenarioRun(
        workload, planner=planner if planner is not None else _scenario_planner()
    )
    svc, harness = run.svc, run.harness
    ledger = MessageLedger(svc.network.stats)
    fast = protocol = 0
    tick_wall = 0.0
    protocol_messages = 0
    topology_messages = 0
    protocol_by_type: dict[str, int] = {}
    tick_records: list[dict[str, object]] = []

    def apply(reports) -> tuple[int, float, bool]:
        """The tick's reports through the harness with their protocol
        traffic counted, then the tick's probe queries."""
        nonlocal fast, protocol, protocol_messages
        ledger.rebase()  # count only the tick's own protocol traffic
        counts, apply_wall, in_flight_during_tick = harness.tick(reports)
        fast += counts["fast"]
        protocol += counts["protocol"]
        tick_delta = ledger.protocol_delta()
        protocol_messages += sum(tick_delta.values())
        for name, count in tick_delta.items():
            protocol_by_type[name] = protocol_by_type.get(name, 0) + count
        phase = "post" if harness.migrations else "pre"
        harness.probe_queries(
            run.rng, phase, workload.probe_area_at(workload.progress(run.tick_index))
        )
        return len(reports), apply_wall, in_flight_during_tick

    for tick in range(workload.ticks):
        reports, apply_wall, in_flight_during_tick = run.tick(apply)
        rebalance_wall = 0.0
        did_migrate = False
        if elastic and (tick + 1) % REBALANCE_EVERY == 0:
            rebalance_start = time.perf_counter()
            round_reports = harness.rebalance()
            did_migrate = bool(round_reports) or bool(harness.executor.in_flight)
            rebalance_wall = time.perf_counter() - rebalance_start
        # Read after the rebalance step: the §6.5 invalidation broadcasts
        # (the topology lane) are sent at cutover, inside that step.
        topology_messages += ledger.topology_messages()
        tick_wall += apply_wall
        tick_records.append(
            {
                "reports": reports,
                "wall": apply_wall + rebalance_wall,
                "migration": did_migrate or in_flight_during_tick,
            }
        )
    # Close any dual-write window still open at the end of the run.
    harness.cutover_all()
    invariants = harness.verify(expected_tracked=workload.objects)
    sustained = harness.sustained_loads(workload.measure_ticks)
    lat = harness.latencies

    def _ms(name: str) -> float | None:
        summary = lat.summary(name)
        return summary.mean * 1e3 if summary.count else None

    def _rate(records: list[dict[str, object]]) -> float | None:
        """Aggregate reports/s over a tick bucket.

        Caveat for readers of the ratio: migration windows correlate
        with the workload's churn phases (load shifts are what trigger
        plans), so part of any gap between the buckets is the workload
        being protocol-heavier during migrations, not migration
        overhead itself; only a tick-matched control run would separate
        the two.
        """
        total_reports = sum(r["reports"] for r in records)
        total_wall = sum(r["wall"] for r in records)
        return total_reports / total_wall if total_wall > 0 else None

    migration_ticks = [r for r in tick_records if r["migration"]]
    steady_ticks = [r for r in tick_records if not r["migration"]]
    steady_rate = _rate(steady_ticks)
    migration_rate = _rate(migration_ticks)
    all_servers = list(svc.servers.values()) + list(svc.retired_servers.values())
    return {
        "objects": workload.objects,
        "ticks": workload.ticks,
        "dt_s": DT,
        "fast_reports": fast,
        "protocol_reports": protocol,
        "protocol_messages": protocol_messages,
        "protocol_messages_per_tick": round(protocol_messages / workload.ticks, 2),
        "protocol_message_types": dict(sorted(protocol_by_type.items())),
        "topology_messages": topology_messages,
        "leaf_count_final": len(svc.hierarchy.leaf_ids()),
        "splits": harness.split_count(),
        "merges": harness.merge_count(),
        "migrated_objects": sum(r.moved for r in harness.migrations),
        "rebalance_rounds": harness.rebalance_rounds,
        "split_rounds": harness.split_rounds,
        "rounds_to_balance": harness.last_split_round,
        "migration_tick_count": len(migration_ticks),
        "timing": {
            "tick_wall_clock_s": round(tick_wall, 4),
            "reports_per_s_steady": (
                round(steady_rate) if steady_rate is not None else None
            ),
            "reports_per_s_migration": (
                round(migration_rate) if migration_rate is not None else None
            ),
            "migration_throughput_ratio": (
                round(migration_rate / steady_rate, 3)
                if steady_rate is not None
                and steady_rate > 0
                and migration_rate is not None
                else None
            ),
        },
        "topology_epoch": svc.hierarchy.epoch,
        "stale_epoch_messages": sum(
            s.stats.stale_epoch_messages for s in all_servers
        ),
        "epoch_retries": sum(s.stats.epoch_retries for s in all_servers),
        "invalidations_sent": sum(r.invalidations_sent for r in harness.migrations),
        "dual_writes": sum(r.dual_writes for r in harness.migrations),
        # Fault accounting (the service is fresh per scenario, so the raw
        # network counters are per-scenario totals; zero in fault-free
        # runs — the chaos scenarios in repro.sim.chaos light them up).
        "faults_injected": svc.network.stats.faults_injected,
        "dropped_deliveries": svc.network.stats.messages_dropped,
        "duplicated_deliveries": svc.network.stats.messages_duplicated,
        "max_sustained_load_ops_per_s": max(sustained.values(), default=0.0),
        "per_server_sustained_ops_per_s": {
            sid: round(rate, 2) for sid, rate in sorted(sustained.items())
        },
        "query_latency_ms": {
            "pos_pre": _ms("pos_query:pre"),
            "pos_post": _ms("pos_query:post"),
            "range_pre": _ms("range_query:pre"),
            "range_post": _ms("range_query:post"),
        },
        "invariants": invariants,
    }


def _without_gc(run):
    """``run()`` with the cyclic collector off after one full collection.

    The migration throughput ratio compares ~10 ms tick walls; a GC pause
    inside one migrating tick would swing it (standard bench hygiene).
    """
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        return run()
    finally:
        if gc_was_enabled:
            gc.enable()


def _zero_lost(result: dict[str, object]) -> bool:
    return (
        result["invariants"]["lost_sightings"] == 0
        and result["invariants"]["consistency_ok"]
    )


def planner_v2_benchmark_payload(seed: int = 0) -> dict[str, object]:
    """Rate-weighted k-way planning on the hot-object-skewed workload —
    the ``BENCH_PR5.json`` body.

    One lane runs :func:`hot_object_skew_workload` under a planner with
    rate-weighted cuts and up to 8-way fan-out.  The acceptance numbers:

    * ``rounds_to_balance_v2 <= 4`` — the last rebalance round that
      still planned a split is round four or earlier;
    * ``migration_throughput_ratio >= 0.8`` — the k-way migration and the
      chunked copy keep reports/s during migration within 20% of steady
      state (the lane's ``timing`` value, repeated at the top level);
    * zero lost sightings and full consistency.
    """
    planner = RebalancePlanner(
        PlannerConfig(
            split_load=120.0, hot_min_load=150.0, merge_load=30.0, max_split_children=8
        )
    )
    lane = _without_gc(
        lambda: run_scenario(hot_object_skew_workload(seed=seed), planner=planner)
    )
    return {
        "bench": "rate-weighted k-way splits on hot objects: rounds to balance",
        "scenario": "hot_object_skew",
        "lanes": {"v2_rate_kway": lane},
        "rounds_to_balance_v2": lane["rounds_to_balance"],
        "migration_throughput_ratio": lane["timing"]["migration_throughput_ratio"],
        "zero_lost_all_lanes": _zero_lost(lane),
    }


def elastic_benchmark_payload(seed: int = 0) -> dict[str, object]:
    """Flash crowd and commuter rush, static + elastic; the
    ``BENCH_PR2.json`` body.

    The acceptance criterion lives in
    ``scenarios.flash_crowd.load_drop_factor``: static max sustained
    per-server load over elastic max, required to be ≥ 2.
    """
    scenarios: dict[str, object] = {}
    for name, workload in (
        ("flash_crowd", flash_crowd_workload(seed=seed)),
        ("commuter_rush", commuter_rush_workload(seed=seed)),
    ):
        static = run_scenario(workload, elastic=False)
        dynamic = run_scenario(workload)
        static_max = static["max_sustained_load_ops_per_s"]
        dynamic_max = dynamic["max_sustained_load_ops_per_s"]
        scenarios[name] = {
            "static": static,
            "elastic": dynamic,
            "load_drop_factor": (
                round(static_max / dynamic_max, 3) if dynamic_max > 0 else None
            ),
        }
    return {
        "bench": "elastic cluster layer: load-aware split/merge + migration",
        "scenarios": scenarios,
    }


def zero_stall_benchmark_payload(seed: int = 0) -> dict[str, object]:
    """Phased migration under sustained churn — the ``BENCH_PR4.json``
    body.

    One lane runs the festival-surge workload (the crowd stampedes
    between stages every act, so splits and merges never stop being
    needed while every crowd member reports every tick).  The acceptance
    numbers:

    * ``migration_throughput_ratio >= 0.8`` — reports/s through ticks
      with a migration in flight stays within 20% of steady state;
    * ``invariants.lost_sightings == 0`` and ``consistency_ok`` — the
      copy → dual-write → cutover pipeline loses nothing even with the
      protocol lane racing it.
    """
    lane = _without_gc(lambda: run_scenario(festival_surge_workload(seed=seed)))
    return {
        "bench": "zero-stall elasticity: phased migration under sustained churn",
        "scenario": "festival_surge",
        "lanes": {"overlapped": lane},
        "migration_throughput_ratio": lane["timing"]["migration_throughput_ratio"],
        "zero_lost_all_lanes": _zero_lost(lane),
    }

"""Elastic-cluster simulation driver and rebalance scenarios.

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

Two scenarios drive a rebalance end to end and are the acceptance
measurement for the elastic layer (recorded in ``BENCH_PR2.json``):

* :func:`flash_crowd_scenario` — most of the population concentrates in
  a small hotspot inside one leaf area (a stadium filling up).  Static
  hierarchy: that leaf takes nearly all update load.  Elastic: the hot
  leaf splits (recursively, while still hot) and the crowd's load
  spreads over the new children.
* :func:`commuter_rush_scenario` — a hot wavefront sweeps west→east
  across the service area (the morning commute).  Leaves split as the
  wave arrives and the cold sibling sets left behind merge back,
  exercising split *and* merge plus object migration under motion.

Two more measure the migration pipeline and the planner:
:func:`festival_surge_scenario` (sustained churn; reports/s during
migration against steady state, ``BENCH_PR4.json``) and
:func:`hot_object_skew_scenario` (hot *objects* rather than hot areas;
rounds until the rate-weighted k-way planner settles,
``BENCH_PR5.json``).

All scenarios record before/after per-server sustained load and query
latency, and verify the zero-loss property: every sighting present
before the rebalance is reachable after it.
"""

from __future__ import annotations

import gc
import random
import time
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
        envelope_retries: int = 3,
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
                envelope_timeout,
                envelope_retries,
                envelope_sub_timeout,
            )
        )
        return {"fast": fast, "protocol": len(reports) - fast}

    # -- probes --------------------------------------------------------------

    def _client_at(self, leaf_id: str):
        if leaf_id not in self._clients:
            self._clients[leaf_id] = self.svc.new_client(entry_server=leaf_id)
        return self._clients[leaf_id]

    def probe_queries(
        self,
        rng: random.Random,
        phase: str,
        pos_queries: int = 4,
        range_area: Rect | None = None,
    ) -> None:
        """Issue a few queries from random entry leaves, recording
        latencies under ``pos_query:<phase>`` / ``range_query:<phase>``."""
        svc = self.svc
        leaves = svc.hierarchy.leaf_ids()
        oids = list(self.homes)
        loop = svc.loop
        for _ in range(pos_queries):
            client = self._client_at(rng.choice(leaves))
            oid = rng.choice(oids)
            start = loop.now
            svc.run(client.pos_query(oid))
            self.latencies.record(f"pos_query:{phase}", loop.now - start)
        if range_area is not None:
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
# Scenario plumbing
# ---------------------------------------------------------------------------

ROOT_SIDE = TABLE2_AREA_SIDE


def _jitter(rng: random.Random, pos: Point, radius: float, bounds: Rect) -> Point:
    return Point(
        min(max(pos.x + rng.uniform(-radius, radius), bounds.min_x), bounds.max_x),
        min(max(pos.y + rng.uniform(-radius, radius), bounds.min_y), bounds.max_y),
    )


async def _advance(svc: LocationService, dt: float) -> None:
    await svc.loop.sleep(dt)


def _scenario_planner() -> RebalancePlanner:
    """Planner thresholds shared by both scenarios: split beyond 400
    ops/s, merge sibling sets whose decayed total drops under 80 ops/s
    (above the background noise floor, far below the split thresholds)."""
    return RebalancePlanner(
        PlannerConfig(split_load=400.0, hot_min_load=150.0, merge_load=80.0)
    )


def _run_scenario(
    *,
    objects: int,
    ticks: int,
    dt: float,
    elastic: bool,
    rebalance_every: int,
    measure_ticks: int,
    seed: int,
    placements,
    positions_at,
    probe_area_at,
    cache_config=None,
    planner: RebalancePlanner | None = None,
) -> dict[str, object]:
    """Common scenario loop; the scenarios differ only in their
    placement and per-tick position generators.

    Every migration phases copy → dual-write → cutover across rounds
    with traffic flowing throughout.  A tick counts as a *migration
    tick* when a migration is in flight during it or is in flight (or
    cut over) after the rebalance round at its end; the per-tick
    throughput split compares reports/s during migration against
    steady state (``BENCH_PR4.json``).  Those wall-clock numbers are
    the result's ``timing`` sub-dict; nothing else in it reads a clock.
    """
    svc, _ = table2_service(0, cache_config=cache_config)
    harness = ElasticHarness(
        svc,
        populate(svc, placements),
        monitor=LoadMonitor(half_life=5.0),
        planner=planner if planner is not None else _scenario_planner(),
    )
    rng = random.Random(seed)
    ledger = MessageLedger(svc.network.stats)
    fast = protocol = 0
    tick_wall = 0.0
    protocol_messages = 0
    topology_messages = 0
    protocol_by_type: dict[str, int] = {}
    tick_records: list[dict[str, object]] = []
    for tick in range(ticks):
        progress = tick / max(ticks - 1, 1)
        reports = positions_at(rng, tick, progress)
        ledger.rebase()  # count only the tick's own protocol traffic
        counts, apply_wall, in_flight_during_tick = harness.tick(reports)
        fast += counts["fast"]
        protocol += counts["protocol"]
        tick_delta = ledger.protocol_delta()
        protocol_messages += sum(tick_delta.values())
        for name, count in tick_delta.items():
            protocol_by_type[name] = protocol_by_type.get(name, 0) + count
        phase = "post" if harness.migrations else "pre"
        harness.probe_queries(rng, phase, range_area=probe_area_at(progress))
        svc.run(_advance(svc, dt))
        harness.sample()
        rebalance_wall = 0.0
        did_migrate = False
        if elastic and (tick + 1) % rebalance_every == 0:
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
                "reports": len(reports),
                "wall": apply_wall + rebalance_wall,
                "migration": did_migrate or in_flight_during_tick,
            }
        )
    # Close any dual-write window still open at the end of the run.
    harness.cutover_all()
    invariants = harness.verify(expected_tracked=objects)
    sustained = harness.sustained_loads(measure_ticks)
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
        "objects": objects,
        "ticks": ticks,
        "dt_s": dt,
        "fast_reports": fast,
        "protocol_reports": protocol,
        "protocol_messages": protocol_messages,
        "protocol_messages_per_tick": round(protocol_messages / ticks, 2),
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


def flash_crowd_scenario(
    objects: int = 1200,
    ticks: int = 24,
    dt: float = 1.0,
    hot_fraction: float = 0.85,
    elastic: bool = True,
    rebalance_every: int = 2,
    measure_ticks: int = 8,
    seed: int = 0,
) -> dict[str, object]:
    """A flash crowd inside one leaf of the Fig.-8 testbed.

    ``hot_fraction`` of the objects pack into a 240 m square in the
    south-west quadrant and report every tick; background objects report
    every fourth tick.  With ``elastic=False`` the hierarchy stays
    static (the baseline the acceptance criteria compare against).
    """
    root = Rect(0, 0, ROOT_SIDE, ROOT_SIDE)
    hotspot = Rect(260.0, 260.0, 500.0, 500.0)
    spec = HotspotSpec(area=hotspot, fraction=hot_fraction)
    placements = hotspot_positions(root, spec, objects, seed=seed, prefix="fc")
    hot_count = round(hot_fraction * objects)
    base_positions = dict(placements)

    def positions_at(
        rng: random.Random, tick: int, progress: float
    ) -> list[tuple[str, Point]]:
        reports = []
        for i, (oid, pos) in enumerate(base_positions.items()):
            if i < hot_count:
                new_pos = _jitter(rng, pos, 15.0, hotspot)
            else:
                if (i + tick) % 4 != 0:
                    continue  # background objects report sparsely
                new_pos = _jitter(rng, pos, 30.0, root)
            base_positions[oid] = new_pos
            reports.append((oid, new_pos))
        return reports

    return _run_scenario(
        objects=objects,
        ticks=ticks,
        dt=dt,
        elastic=elastic,
        rebalance_every=rebalance_every,
        measure_ticks=measure_ticks,
        seed=seed + 1,
        placements=placements,
        positions_at=positions_at,
        probe_area_at=lambda progress: hotspot,
    )


@dataclass
class ScenarioWorkload:
    """One scenario's placement + movement generators, decoupled from
    the driving harness.

    The simulated :func:`_run_scenario` loop, the asyncio integration
    tests, and the socket-cluster driver
    (:mod:`repro.net.scenario`) all consume the same record, so "the
    festival-surge scenario over real UDP sockets" is *literally* the
    festival-surge workload — same placements, same per-tick movement
    closures, same seeds — under a different transport.
    """

    name: str
    objects: int
    ticks: int
    placements: list
    #: ``positions_at(rng, tick, progress)`` → ``[(object_id, Point)]``.
    positions_at: object
    #: ``probe_area_at(progress)`` → the currently hot :class:`Rect`.
    probe_area_at: object
    #: §6.5 cache configuration the scenario runs with (None = default).
    cache_config: object = None


def commuter_rush_workload(
    objects: int = 1000,
    ticks: int = 36,
    commuter_fraction: float = 0.8,
    wave_width: float = 300.0,
    seed: int = 0,
) -> ScenarioWorkload:
    """The commuter-rush wavefront as a transport-agnostic workload."""
    root = Rect(0, 0, ROOT_SIDE, ROOT_SIDE)
    commuter_count = round(commuter_fraction * objects)
    initial_band = wavefront_area(root, 0.0, wave_width)
    placements = hotspot_positions(
        root,
        HotspotSpec(area=initial_band, fraction=commuter_fraction),
        objects,
        seed=seed,
        prefix="cr",
    )
    base_positions = dict(placements)

    def positions_at(
        rng: random.Random, tick: int, progress: float
    ) -> list[tuple[str, Point]]:
        band = wavefront_area(root, progress, wave_width)
        reports = []
        for i, (oid, pos) in enumerate(base_positions.items()):
            if i < commuter_count:
                # Ride the wave: track the band's x-range, keep own lane.
                new_pos = Point(
                    rng.uniform(band.min_x, band.max_x),
                    min(max(pos.y + rng.uniform(-20.0, 20.0), root.min_y), root.max_y),
                )
            else:
                if (i + tick) % 4 != 0:
                    continue
                new_pos = _jitter(rng, pos, 30.0, root)
            base_positions[oid] = new_pos
            reports.append((oid, new_pos))
        return reports

    return ScenarioWorkload(
        name="commuter_rush",
        objects=objects,
        ticks=ticks,
        placements=placements,
        positions_at=positions_at,
        probe_area_at=lambda progress: wavefront_area(root, progress, wave_width),
    )


def commuter_rush_scenario(
    objects: int = 1000,
    ticks: int = 36,
    dt: float = 1.0,
    commuter_fraction: float = 0.8,
    wave_width: float = 300.0,
    elastic: bool = True,
    rebalance_every: int = 2,
    measure_ticks: int = 10,
    seed: int = 0,
) -> dict[str, object]:
    """A commuter-rush wavefront sweeping west→east across the area.

    Commuters ride a hot vertical band that crosses the whole service
    area over the run, handing over between leaves as they go; the band
    heats leaves in sequence (splits) and leaves cold regions behind
    (merges).  Background objects report sparsely, as in the flash-crowd
    scenario.
    """
    workload = commuter_rush_workload(
        objects=objects,
        ticks=ticks,
        commuter_fraction=commuter_fraction,
        wave_width=wave_width,
        seed=seed,
    )
    return _run_scenario(
        objects=objects,
        ticks=ticks,
        dt=dt,
        elastic=elastic,
        rebalance_every=rebalance_every,
        measure_ticks=measure_ticks,
        seed=seed + 1,
        placements=workload.placements,
        positions_at=workload.positions_at,
        probe_area_at=workload.probe_area_at,
    )


def festival_surge_scenario(
    objects: int = 1200,
    ticks: int = 36,
    dt: float = 1.0,
    crowd_fraction: float = 0.85,
    stage_count: int = 3,
    elastic: bool = True,
    rebalance_every: int = 2,
    measure_ticks: int = 10,
    seed: int = 0,
) -> dict[str, object]:
    """Sustained churn: a festival crowd surging between stages.

    ``crowd_fraction`` of the objects report **every tick** (heavy
    sustained load) while stampeding between ``stage_count`` stage
    areas in different quadrants: each act packs the crowd into one
    stage (splitting its leaf, recursively), and at every act change
    the crowd crosses the service area to the next stage — handovers en
    masse, the abandoned stage's children merging back.  Rebalancing
    therefore never stops being needed while traffic never stops
    flowing, which is exactly the case the phased migration pipeline
    exists for.
    """
    workload = festival_surge_workload(
        objects=objects,
        ticks=ticks,
        crowd_fraction=crowd_fraction,
        stage_count=stage_count,
        seed=seed,
    )
    return _run_scenario(
        objects=objects,
        ticks=ticks,
        dt=dt,
        elastic=elastic,
        rebalance_every=rebalance_every,
        measure_ticks=measure_ticks,
        seed=seed + 1,
        placements=workload.placements,
        positions_at=workload.positions_at,
        probe_area_at=workload.probe_area_at,
        cache_config=workload.cache_config,
    )


def festival_surge_workload(
    objects: int = 1200,
    ticks: int = 36,
    crowd_fraction: float = 0.85,
    stage_count: int = 3,
    seed: int = 0,
) -> ScenarioWorkload:
    """The festival-surge crowd as a transport-agnostic workload."""
    root = Rect(0, 0, ROOT_SIDE, ROOT_SIDE)
    stage_side = 280.0
    stage_centers = [
        Point(380.0, 380.0),      # south-west quadrant
        Point(1120.0, 1120.0),    # north-east quadrant
        Point(1120.0, 380.0),     # south-east quadrant
        Point(380.0, 1120.0),     # north-west quadrant
    ]
    stages = [
        Rect.from_center(center, stage_side, stage_side)
        for center in stage_centers[: max(2, min(stage_count, 4))]
    ]
    act_length = max(ticks // len(stages), 1)
    crowd_count = round(crowd_fraction * objects)
    placements = hotspot_positions(
        root,
        HotspotSpec(area=stages[0], fraction=crowd_fraction),
        objects,
        seed=seed,
        prefix="fs",
    )
    base_positions = dict(placements)

    def stage_at(tick: int) -> Rect:
        return stages[min(tick // act_length, len(stages) - 1)]

    def positions_at(
        rng: random.Random, tick: int, progress: float
    ) -> list[tuple[str, Point]]:
        stage = stage_at(tick)
        reports = []
        for i, (oid, pos) in enumerate(base_positions.items()):
            if i < crowd_count:
                if not stage.contains_point(pos):
                    # Act change: festival-goers drift to the new stage
                    # over a few ticks (~30% arrive per tick) instead of
                    # teleporting en masse — so no single tick is a
                    # handover storm, the sustained-load shape the
                    # zero-stall measurement is about.
                    if rng.random() < 0.3:
                        new_pos = Point(
                            rng.uniform(stage.min_x, stage.max_x),
                            rng.uniform(stage.min_y, stage.max_y),
                        )
                    else:
                        new_pos = _jitter(rng, pos, 25.0, root)
                else:
                    new_pos = _jitter(rng, pos, 15.0, stage)
            else:
                if (i + tick) % 4 != 0:
                    continue  # background objects report sparsely
                new_pos = _jitter(rng, pos, 30.0, root)
            base_positions[oid] = new_pos
            reports.append((oid, new_pos))
        return reports

    return ScenarioWorkload(
        name="festival_surge",
        objects=objects,
        ticks=ticks,
        placements=placements,
        positions_at=positions_at,
        probe_area_at=lambda progress: stage_at(
            min(int(progress * (ticks - 1)), ticks - 1) if ticks > 1 else 0
        ),
        # §6.5 caches on: the crowd's act-change handovers exercise the
        # direct dispatch path, and the cutover invalidation broadcasts
        # are what keeps it from paying healing hops through the old
        # addresses.
        cache_config=CacheConfig.all_enabled(),
    )


def hot_object_skew_scenario(
    objects: int = 1200,
    ticks: int = 28,
    dt: float = 1.0,
    hot_fraction: float = 0.25,
    hot_side: float = 300.0,
    dormant_period: int = 4,
    elastic: bool = True,
    rebalance_every: int = 2,
    measure_ticks: int = 8,
    seed: int = 0,
    planner: RebalancePlanner | None = None,
) -> dict[str, object]:
    """Hot *objects*, not just a hot area — the rate-weighting workload.

    The whole population lives inside one quadrant leaf, but the load is
    carried by a small slice of it: ``hot_fraction`` of the objects pack
    into a ``hot_side``-square block in the leaf's corner and report
    **every tick**, while the dormant majority spreads over the rest of
    the leaf and reports only every ``dormant_period``-th tick.  Balancing *object
    counts* across a cut therefore says almost nothing about balancing
    *load*: a count-median cut strands most of the hot block on one
    side, and binary count-costed splits need a cascade of migration
    rounds to spread the update load, while rate-weighted k-way cuts
    place every line inside the hot mass and settle in one.
    ``planner`` defaults to the shared scenario planner.
    """
    # The south-west quadrant leaf (area [0, 750]^2 of the Fig.-8
    # testbed); the hot block sits in its corner.
    leaf_area = Rect(0.0, 0.0, ROOT_SIDE / 2, ROOT_SIDE / 2)
    hot_block = Rect(40.0, 40.0, 40.0 + hot_side, 40.0 + hot_side)
    hot_count = round(hot_fraction * objects)
    rng0 = random.Random(seed)
    placements = []
    for i in range(objects):
        if i < hot_count:
            pos = Point(
                rng0.uniform(hot_block.min_x, hot_block.max_x),
                rng0.uniform(hot_block.min_y, hot_block.max_y),
            )
        else:
            pos = Point(
                rng0.uniform(leaf_area.min_x, leaf_area.max_x - 1e-6),
                rng0.uniform(leaf_area.min_y, leaf_area.max_y - 1e-6),
            )
        placements.append((f"ho-{i}", pos))
    base_positions = dict(placements)

    def positions_at(
        rng: random.Random, tick: int, progress: float
    ) -> list[tuple[str, Point]]:
        reports = []
        for i, (oid, pos) in enumerate(base_positions.items()):
            if i < hot_count:
                new_pos = _jitter(rng, pos, 12.0, hot_block)
            else:
                if (i + tick) % dormant_period != 0:
                    continue  # dormant objects barely report
                new_pos = _jitter(rng, pos, 10.0, leaf_area)
            base_positions[oid] = new_pos
            reports.append((oid, new_pos))
        return reports

    return _run_scenario(
        objects=objects,
        ticks=ticks,
        dt=dt,
        elastic=elastic,
        rebalance_every=rebalance_every,
        measure_ticks=measure_ticks,
        seed=seed + 1,
        placements=placements,
        positions_at=positions_at,
        probe_area_at=lambda progress: hot_block,
        planner=planner,
    )


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


def planner_v2_benchmark_payload(
    objects: int = 1200,
    ticks: int | None = None,
    seed: int = 0,
) -> dict[str, object]:
    """Rate-weighted k-way planning on the hot-object-skewed workload —
    the ``BENCH_PR5.json`` body.

    One lane runs :func:`hot_object_skew_scenario` under a planner with
    rate-weighted cuts and up to 8-way fan-out.  The acceptance numbers:

    * ``rounds_to_balance_v2 <= 4`` — the last rebalance round that
      still planned a split is round four or earlier;
    * ``migration_throughput_ratio >= 0.8`` — the k-way migration and the
      chunked copy keep reports/s during migration within 20% of steady
      state (the lane's ``timing`` value, repeated at the top level);
    * zero lost sightings and full consistency.
    """
    kwargs: dict[str, object] = {"objects": objects}
    if ticks is not None:
        kwargs["ticks"] = ticks
    planner = RebalancePlanner(
        PlannerConfig(
            split_load=120.0, hot_min_load=150.0, merge_load=30.0, max_split_children=8
        )
    )
    lane = _without_gc(
        lambda: hot_object_skew_scenario(
            elastic=True, seed=seed, planner=planner, **kwargs
        )
    )
    return {
        "bench": "rate-weighted k-way splits on hot objects: rounds to balance",
        "scenario": "hot_object_skew",
        "lanes": {"v2_rate_kway": lane},
        "rounds_to_balance_v2": lane["rounds_to_balance"],
        "migration_throughput_ratio": lane["timing"]["migration_throughput_ratio"],
        "zero_lost_all_lanes": _zero_lost(lane),
    }


def elastic_benchmark_payload(
    objects: int = 1200,
    ticks: int | None = None,
    seed: int = 0,
) -> dict[str, object]:
    """Run both scenarios static + elastic; the ``BENCH_PR2.json`` body.

    The acceptance criterion lives in
    ``scenarios.flash_crowd.load_drop_factor``: static max sustained
    per-server load over elastic max, required to be ≥ 2.
    """
    scenarios: dict[str, object] = {}
    for name, runner, kwargs in (
        ("flash_crowd", flash_crowd_scenario, {"objects": objects}),
        ("commuter_rush", commuter_rush_scenario, {"objects": max(objects * 5 // 6, 100)}),
    ):
        if ticks is not None:
            kwargs["ticks"] = ticks
        static = runner(elastic=False, seed=seed, **kwargs)
        dynamic = runner(elastic=True, seed=seed, **kwargs)
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


def zero_stall_benchmark_payload(
    objects: int = 1200,
    ticks: int | None = None,
    seed: int = 0,
) -> dict[str, object]:
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
    kwargs: dict[str, object] = {"objects": objects}
    if ticks is not None:
        kwargs["ticks"] = ticks
    lane = _without_gc(
        lambda: festival_surge_scenario(elastic=True, seed=seed, **kwargs)
    )
    return {
        "bench": "zero-stall elasticity: phased migration under sustained churn",
        "scenario": "festival_surge",
        "lanes": {"overlapped": lane},
        "migration_throughput_ratio": lane["timing"]["migration_throughput_ratio"],
        "zero_lost_all_lanes": _zero_lost(lane),
    }

"""Chaos scenario family: the paper's availability story, adversarially.

Three scenario families exercise the :mod:`repro.chaos` layer end to
end over the table-2 service, each reporting the same invariant block —
zero lost sightings, zero duplicated sightings, consistency, and a
topology epoch every live server agrees on — plus family-specific
recovery measurements:

* :func:`leaf_crash_scenario` — a leaf is killed **mid-tick** (half the
  tick's reports land, then the process dies).  The
  :class:`~repro.chaos.RecoveryCoordinator` detects the death with
  backoff probes and re-homes the region (merge-with-WAL-replay by
  default, in-place restart optionally); the scenario measures
  detection attempts/time and how many ticks of ordinary position
  reports rebuild every sighting.
* :func:`partition_scenario` — one leaf is severed from every other
  *server* (devices keep reaching their local leaf, as in the paper's
  deployment model) and later healed.  Measures the cache-staleness
  window (ticks during which live leaves' §6.5 caches held routes into
  the unreachable subtree) and the reconvergence ticks until every
  object is tracked at the leaf containing it again.
* :func:`migration_crash_scenario` — a server dies in each phased-
  migration phase (``copy``, ``dual_write``, ``cutover``), proving the
  epoch machinery's exactness: pre-cutover crashes *discard* (abort +
  WAL-replay restart at an unchanged epoch, then a clean re-run),
  post-cutover crashes *roll forward* (the staged store's WAL is the
  new server's durable state).

* :func:`root_partition_scenario` — the *apex* is severed from every
  other endpoint, so re-routing has no healthy root to lean on.
  Leaf-local traffic keeps flowing (devices talk to leaves, never the
  apex); :meth:`~repro.chaos.RecoveryCoordinator.recover_apex` promotes
  a standby root from the severed apex's surviving visitor WAL, cross-
  subtree queries resume through it while the partition still stands,
  and the scenario measures reconvergence ticks after the heal.

Every scenario (and the simulated Byzantine lane of
:mod:`repro.sim.byzantine`) builds its world and runs its ticks through
one :class:`_FaultRun`: the elastic scenarios' world and tick
(:class:`~repro.sim.elastic.ScenarioRun`, every object jittering each
tick of :data:`~repro.sim.elastic.DT` virtual seconds) plus a fault
injector.  :func:`chaos_benchmark_payload` folds the five
leaf, partition and migration runs into ``BENCH_PR6.json``; the
root-partition run rides in ``BENCH_PR9.json``.  Both are gated by
``scripts/bench_check.py``.
"""

from __future__ import annotations

from repro.chaos import FaultInjector, RecoveryCoordinator, inject_crash
from repro.cluster.planner import SplitPlan
from repro.core.caching import CacheConfig
from repro.errors import LocationServiceError, TransportError
from repro.geo import Rect
from repro.sim.elastic import (
    DT,
    ROOT_AREA,
    ROOT_SIDE,
    ScenarioRun,
    ScenarioWorkload,
    _jittering,
)
from repro.sim.workload import HotspotSpec, hotspot_positions

__all__ = [
    "chaos_benchmark_payload",
    "leaf_crash_scenario",
    "migration_crash_scenario",
    "partition_scenario",
    "root_partition_scenario",
]

#: Envelope bounds used whenever faults may be live: a crashed or
#: partitioned destination turns into bounded NACKs (items kept at
#: their old agent for the next tick) instead of an unbounded wait.
_FAULT_TIMEOUTS = {"envelope_timeout": 1.0, "envelope_sub_timeout": 0.4}

_QUARTER = ROOT_SIDE / 4  # 375 m — the split cut inside root.0
_HALF = ROOT_SIDE / 2  # 750 m — the root.0 quadrant side
#: Where a crowd packs: most of root.0, the south-west quadrant.
_CROWD_AREA = Rect(40.0, 40.0, 710.0, 710.0)


def _root0_x_split(child_prefix: str, reason: str) -> SplitPlan:
    """root.0 cut in two at x = 375 m; ``children[0]`` is the west half."""
    return SplitPlan(
        leaf_id="root.0",
        axis="x",
        cuts=(_QUARTER,),
        children=(
            (f"root.0/{child_prefix}.0", Rect(0.0, 0.0, _QUARTER, _HALF)),
            (f"root.0/{child_prefix}.1", Rect(_QUARTER, 0.0, _HALF, _HALF)),
        ),
        reason=reason,
    )


class _FaultRun(ScenarioRun):
    """One fault scenario's :class:`~repro.sim.elastic.ScenarioRun`.

    ``objects`` seeded placements — a ``crowd`` share of them packed
    into root.0, the rest uniform — each taking a ``radius``-metre
    jitter step every tick, moves seeded ``seed + rng_offset``; §6.5
    caches on when ``caches``.  Adds a :class:`FaultInjector` on the
    network and the bounded apply lanes and checks every fault scenario
    shares.
    """

    def __init__(
        self,
        objects: int,
        seed: int,
        prefix: str,
        *,
        crowd: float = 0.0,
        caches: bool = False,
        epoch: int = 0,
        rng_offset: int = 1,
        radius: float = 40.0,
    ) -> None:
        move = _jittering(radius, ROOT_AREA)
        workload = ScenarioWorkload(
            objects=objects,
            ticks=0,
            placements=hotspot_positions(
                ROOT_AREA,
                HotspotSpec(area=_CROWD_AREA, fraction=crowd),
                objects,
                seed=seed,
                prefix=prefix,
            ),
            crowd=objects,
            crowd_step=lambda tick, progress: move,
            motion_seed=seed + rng_offset,
            cache_config=CacheConfig.all_enabled() if caches else None,
        )
        super().__init__(workload, epoch=epoch)
        self.injector = FaultInjector(self.svc.network, seed=seed)

    def bounded(self, reports) -> None:
        """Apply reports with envelope timeouts (faults may be live)."""
        self.harness.apply_reports(reports, **_FAULT_TIMEOUTS)

    def guarded(self, reports) -> int:
        """Apply a tick's reports while a server may be down.

        Reports whose believed agent is a downed address are *deferred* —
        the device's send would time out; it retries next tick once
        recovery has re-homed the region — and the rest run with bounded
        envelope timeouts.  Returns the deferred count.
        """
        homes, network = self.harness.homes, self.svc.network
        live = [
            (oid, pos)
            for oid, pos in reports
            if (home := homes.get(oid)) is None or not network.is_down(home)
        ]
        self.bounded(live)
        return len(reports) - len(live)

    def recover(self, ticks: int, *, homed: bool = False, after_first=None):
        """Run ``ticks`` bounded ticks; returns the first (1-based) after
        which every object is tracked — and, when ``homed``, agented by
        the leaf containing it in a consistent hierarchy — or ``None``.
        ``after_first`` runs once, after the first tick and its check."""
        svc = self.svc
        recovered = None
        for tick in range(ticks):
            self.tick(self.bounded)
            if recovered is None:
                svc.settle()
                if svc.total_tracked() == self.workload.objects and (
                    not homed or (self._fully_homed() and self._consistency_ok())
                ):
                    recovered = tick + 1
            if tick == 0 and after_first is not None:
                after_first()
        return recovered

    def _fully_homed(self) -> bool:
        """Every object is agented by the leaf containing its position —
        the state a fault-free tick always restores before it ends."""
        for oid, pos in self.positions.items():
            home = self.harness.homes.get(oid)
            server = self.svc.servers.get(home) if home is not None else None
            if server is None or not server.is_leaf or not server.config.contains(pos):
                return False
        return True

    def _consistency_ok(self) -> bool:
        try:
            self.svc.check_consistency()
        except LocationServiceError:
            return False
        return True

    def invariants(self) -> dict:
        """The shared invariant payload (raises on broken consistency)."""
        svc = self.svc
        invariants = self.harness.verify(expected_tracked=self.workload.objects)
        tracked = invariants["tracked"]
        stats = svc.network.stats
        epoch = svc.hierarchy.epoch
        return {
            "invariants": invariants,
            "lost_sightings": max(0, self.workload.objects - tracked),
            "duplicated_sightings": max(0, tracked - self.workload.objects),
            "epoch_consistent": all(
                server.topology_epoch == epoch for server in svc.servers.values()
            ),
            "topology_epoch": epoch,
            "faults_injected": stats.faults_injected,
            "dropped_deliveries": stats.messages_dropped,
            "duplicated_deliveries": stats.messages_duplicated,
        }


def _detection(recovery) -> dict:
    return {
        "attempts": recovery.detection_attempts,
        "time_s": round(recovery.detection_time_s, 3),
    }


# ---------------------------------------------------------------------------
# Scenario 1 — leaf killed mid-tick
# ---------------------------------------------------------------------------


def leaf_crash_scenario(
    objects: int = 400,
    warm_ticks: int = 3,
    post_ticks: int = 5,
    seed: int = 0,
    strategy: str = "merge",
) -> dict:
    """Kill a leaf halfway through a tick; detect, recover, re-track."""
    run = _FaultRun(objects, seed, "lc", crowd=0.6)
    svc, harness = run.svc, run.harness
    # Split root.0 in two first so its crash recovery is non-degenerate
    # (depth grows to 2; the merge path has a real parent to fold into).
    plan = _root0_x_split("c", "chaos prep")
    harness.homes.update(harness.executor.execute(plan).new_homes)
    victim = plan.children[0][0]
    # Subscribed *before* the kill: the coordinator learns about the
    # death from the protocol lane's own envelope exhaustion, not from
    # this scenario telling it which server it crashed.
    coordinator = RecoveryCoordinator(
        svc, executor=harness.executor, monitor=harness.monitor
    ).watch()
    for _ in range(warm_ticks):
        run.tick()

    # The mid-tick kill: half this tick's reports land, then the
    # process dies; the rest of the tick runs against a dead agent —
    # the devices don't know it died, so their envelope burns its whole
    # retry budget and surfaces the victim as a suspect.
    def kill_midtick(reports) -> int:
        half = len(reports) // 2
        harness.apply_reports(reports[:half])
        inject_crash(svc, victim)
        try:
            run.bounded(reports[half:])
        except TransportError:
            return sum(1 for oid, _ in reports[half:] if harness.homes.get(oid) == victim)
        return 0

    deferred = run.tick(kill_midtick)
    assert victim in coordinator.suspects, "envelope exhaustion did not flag the victim"
    recovery = coordinator.process_suspects(strategy=strategy).get(victim)
    assert recovery is not None, "crashed leaf answered a liveness probe"
    harness.homes.update(recovery.new_homes)

    return {
        "scenario": "leaf_crash_midtick",
        "objects": objects,
        "strategy": strategy,
        "victim": victim,
        "warm_ticks": warm_ticks,
        "post_ticks": post_ticks,
        "dt_s": DT,
        "deferred_reports": deferred,
        "detection": _detection(recovery),
        "replayed_records": recovery.replayed_records,
        "moved": recovery.moved,
        "new_home": recovery.new_home,
        "recovery_ticks": run.recover(post_ticks),
        **run.invariants(),
    }


# ---------------------------------------------------------------------------
# Scenario 2 — subtree partitioned, then healed
# ---------------------------------------------------------------------------


def partition_scenario(
    objects: int = 400,
    warm_ticks: int = 3,
    partition_ticks: int = 4,
    heal_ticks: int = 6,
    seed: int = 0,
) -> dict:
    """Sever one leaf from every other server; measure staleness and
    reconvergence after the heal.  §6.5 caches run fully enabled so the
    staleness window is real cached state, not a vacuous zero."""
    run = _FaultRun(objects, seed, "pt", caches=True, radius=60.0)
    svc, harness = run.svc, run.harness
    isolated = "root.0"
    # Warm phase: ordinary traffic plus targeted queries so live leaves
    # cache routes into the soon-to-be-isolated subtree.
    prober = svc.new_client(entry_server="root.1")
    probed = [oid for oid, home in harness.homes.items() if home == isolated][:4]

    def report_and_probe(reports) -> None:
        harness.apply_reports(reports)
        for oid in probed:
            svc.run(prober.pos_query(oid))

    for _ in range(warm_ticks):
        run.tick(report_and_probe)

    others = [sid for sid in svc.hierarchy.server_ids() if sid != isolated]
    severed_links = run.injector.partition([isolated], others)

    def report_and_look_for_stale_routes(reports) -> tuple[int, bool]:
        deferred = run.guarded(reports)
        return deferred, any(
            svc.servers[sid].caches.holds_route_to(isolated)
            for sid in svc.hierarchy.leaf_ids()
            if sid != isolated and sid in svc.servers
        )

    cache_staleness_ticks = deferred = 0
    for _ in range(partition_ticks):
        tick_deferred, stale = run.tick(report_and_look_for_stale_routes)
        deferred += tick_deferred
        cache_staleness_ticks += stale
    unresolved_at_heal = sum(
        1
        for oid, pos in run.positions.items()
        if (home := harness.homes.get(oid)) is None
        or not svc.servers[home].config.contains(pos)
    )
    healed_links = run.injector.heal_partition()

    return {
        "scenario": "partition_heal",
        "objects": objects,
        "isolated": isolated,
        "warm_ticks": warm_ticks,
        "partition_ticks": partition_ticks,
        "heal_ticks": heal_ticks,
        "dt_s": DT,
        "severed_links": severed_links,
        "healed_links": healed_links,
        "deferred_reports": deferred,
        "unresolved_crossings_at_heal": unresolved_at_heal,
        "cache_staleness_ticks": cache_staleness_ticks,
        "reconvergence_ticks": run.recover(heal_ticks, homed=True),
        **run.invariants(),
    }


# ---------------------------------------------------------------------------
# Scenario 2b — the *apex* partitioned: standby promotion
# ---------------------------------------------------------------------------


def root_partition_scenario(
    objects: int = 400,
    warm_ticks: int = 3,
    outage_ticks: int = 3,
    heal_ticks: int = 6,
    seed: int = 0,
) -> dict:
    """Sever the hierarchy root from everything; promote a standby apex.

    :func:`partition_scenario` isolates a *leaf* — the tree above it
    re-routes.  Here the apex itself is unreachable, so there is no
    healthy root to re-route through: cross-subtree handovers and
    queries stall (bounded NACKs, items kept at their old agent) while
    leaf-local reports keep landing.  The coordinator's
    :meth:`~repro.chaos.RecoveryCoordinator.recover_apex` then promotes
    a standby root (WAL-replayed forwarding log, re-parented children,
    epoch bump); the scenario proves queries flow again **before** the
    heal, and measures reconvergence ticks after it.
    """
    run = _FaultRun(objects, seed, "rp", caches=True, radius=60.0)
    svc, harness = run.svc, run.harness
    coordinator = RecoveryCoordinator(
        svc, executor=harness.executor, monitor=harness.monitor
    )
    for _ in range(warm_ticks):
        run.tick()

    root_id = svc.hierarchy.root_id
    # Full apex isolation: every existing endpoint — servers, reporters,
    # the coordinator's prober — loses its links to the root.
    others = [addr for addr in svc.network.addresses() if addr != root_id]
    severed_links = run.injector.partition([root_id], others)

    # Outage phase: no apex, yet devices keep reporting to their leaf
    # agents; cross-subtree handovers NACK and defer to the next tick.
    tracked_during_outage = []
    for _ in range(outage_ticks):
        run.tick(run.guarded)
        tracked_during_outage.append(svc.total_tracked())

    promotion = coordinator.recover_apex()
    assert promotion is not None, "severed apex answered a liveness probe"

    # Cross-subtree queries flow through the standby apex while the old
    # root is *still severed*: query a root.0-homed object from root.1.
    prober = svc.new_client(entry_server="root.1", timeout=2.0)
    cross_oids = [
        oid for oid, home in harness.homes.items() if home.startswith("root.0")
    ][:5]
    queries_ok = 0
    for oid in cross_oids:
        try:
            answer = svc.run(prober.pos_query(oid))
        except TransportError:
            continue
        if answer is not None:
            queries_ok += 1

    healed_links = run.injector.heal_partition()
    return {
        "scenario": "root_partition_promote",
        "objects": objects,
        "severed_apex": root_id,
        "promoted_apex": promotion.new_home,
        "warm_ticks": warm_ticks,
        "outage_ticks": outage_ticks,
        "heal_ticks": heal_ticks,
        "dt_s": DT,
        "severed_links": severed_links,
        "healed_links": healed_links,
        "detection": _detection(promotion),
        "replayed_records": promotion.replayed_records,
        "tracked_during_outage_min": min(tracked_during_outage),
        "cross_queries_before_heal": len(cross_oids),
        "cross_queries_answered_before_heal": queries_ok,
        "reconvergence_ticks": run.recover(heal_ticks, homed=True),
        **run.invariants(),
    }


# ---------------------------------------------------------------------------
# Scenario 3 — server crashed in each migration phase
# ---------------------------------------------------------------------------


def migration_crash_scenario(
    phase: str = "copy",
    objects: int = 400,
    warm_ticks: int = 2,
    post_ticks: int = 5,
    seed: int = 0,
) -> dict:
    """Crash a server inside one phased-migration phase and recover.

    ``copy`` and ``dual_write`` crash the *source* leaf before cutover:
    recovery aborts the migration (discard — the epoch is untouched and
    nothing staged was routable), WAL-replays the source in place, and
    then re-runs the same plan cleanly.  ``cutover`` crashes a freshly
    spawned child *after* the epoch bump: recovery rolls forward by
    replaying the staged store's WAL.  Either way the report stream
    rebuilds every sighting — zero lost, zero duplicated.
    """
    if phase not in ("copy", "dual_write", "cutover"):
        raise ValueError(f"unknown migration phase {phase!r}")
    run = _FaultRun(objects, seed, f"mc-{phase}", crowd=0.55, rng_offset=2)
    svc, harness = run.svc, run.harness
    executor = harness.executor
    for _ in range(warm_ticks):
        run.tick()

    plan = _root0_x_split("s", f"chaos {phase}")
    epoch_before = svc.hierarchy.epoch
    migration = executor.begin(plan)
    if phase == "copy":
        # Crash mid-copy: only part of the snapshot is staged.
        executor.step(migration, max_objects=25)
        victim = plan.leaf_id
    elif phase == "dual_write":
        # Copy complete, dual-write window open across one live tick.
        executor.step(migration)
        run.tick()
        victim = plan.leaf_id
    else:  # cutover — the epoch has bumped; crash a new child after it
        executor.step(migration)
        harness.homes.update(executor.cutover(migration).new_homes)
        victim = plan.children[0][0]
    inject_crash(svc, victim)

    coordinator = RecoveryCoordinator(svc, executor=executor, monitor=harness.monitor)
    # In-place WAL-replay restart for every phase: pre-cutover it is
    # the *abort* (inside recover_leaf) that makes recovery exact,
    # post-cutover the staged WAL rolls the new topology forward.
    recovery = coordinator.recover_dead_leaf(victim, strategy="restart")
    assert recovery is not None, "crashed server answered a liveness probe"
    epoch_after_recovery = svc.hierarchy.epoch
    discarded = phase != "cutover"

    rerun_moved = 0

    def rerun() -> None:
        # The discard left clean state at the old epoch — prove it by
        # re-running the identical plan to completion.
        nonlocal rerun_moved
        report = executor.execute(plan)
        harness.homes.update(report.new_homes)
        rerun_moved = report.moved

    recovery_ticks = run.recover(post_ticks, after_first=rerun if discarded else None)
    return {
        "scenario": f"migration_crash_{phase}",
        "objects": objects,
        "phase": phase,
        "victim": victim,
        "warm_ticks": warm_ticks,
        "post_ticks": post_ticks,
        "dt_s": DT,
        "copied_before_crash": migration.copied,
        "detection": _detection(recovery),
        "replayed_records": recovery.replayed_records,
        "discarded": discarded,
        "rolled_forward": not discarded,
        "rerun_moved": rerun_moved,
        "epoch_before": epoch_before,
        "epoch_after_recovery": epoch_after_recovery,
        "epoch_unchanged_by_discard": (
            epoch_after_recovery == epoch_before if discarded else None
        ),
        "recovery_ticks": recovery_ticks,
        **run.invariants(),
    }


# ---------------------------------------------------------------------------
# Bench payload (BENCH_PR6.json)
# ---------------------------------------------------------------------------


def chaos_benchmark_payload(objects: int = 400, seed: int = 0) -> dict:
    """All five injected fault classes, one artifact.

    The acceptance numbers are ``max_recovery_ticks``,
    ``reconvergence_ticks`` and each scenario's invariant block; their
    thresholds are rows of ``scripts/bench_check.py``, set well under
    the scenarios' post-fault tick budgets so a recovery that merely
    limps to the deadline fails the gate.
    """
    scenarios = {
        "leaf_crash_midtick": leaf_crash_scenario(objects=objects, seed=seed),
        "partition_heal": partition_scenario(objects=objects, seed=seed),
        "migration_crash_copy": migration_crash_scenario(
            "copy", objects=objects, seed=seed
        ),
        "migration_crash_dual_write": migration_crash_scenario(
            "dual_write", objects=objects, seed=seed
        ),
        "migration_crash_cutover": migration_crash_scenario(
            "cutover", objects=objects, seed=seed
        ),
    }
    recovery_ticks = [
        result["recovery_ticks"]
        for result in scenarios.values()
        if result.get("recovery_ticks") is not None
    ]
    detection_times = [
        result["detection"]["time_s"]
        for result in scenarios.values()
        if "detection" in result
    ]
    return {
        "bench": "chaos: fault injection, crash-exact recovery, partition reconvergence",
        "objects": objects,
        "seed": seed,
        "scenarios": scenarios,
        "zero_lost_all_scenarios": all(
            result["lost_sightings"] == 0 for result in scenarios.values()
        ),
        "zero_duplicated_all_scenarios": all(
            result["duplicated_sightings"] == 0 for result in scenarios.values()
        ),
        "epoch_consistent_all_scenarios": all(
            result["epoch_consistent"] for result in scenarios.values()
        ),
        "max_recovery_ticks": max(recovery_ticks) if recovery_ticks else None,
        "max_detection_time_s": (
            round(max(detection_times), 3) if detection_times else None
        ),
        "cache_staleness_ticks": scenarios["partition_heal"]["cache_staleness_ticks"],
        "reconvergence_ticks": scenarios["partition_heal"]["reconvergence_ticks"],
        "faults_injected_total": sum(
            result["faults_injected"] for result in scenarios.values()
        ),
    }

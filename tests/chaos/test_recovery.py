"""Tests for the chaos layer's detection + recovery control plane.

Exercises :class:`RetryPolicy` backoff arithmetic, the probe-based
dead-leaf detector on the virtual clock, and both recovery strategies
(in-place WAL restart; merge re-homing with WAL replay into the
staging store).
"""

import random

import pytest

from repro.chaos import FaultInjector, RecoveryCoordinator, inject_crash
from repro.cluster import MigrationExecutor, SplitPlan
from repro.core import messages as m
from repro.core.service import RetryPolicy
from repro.errors import LocationServiceError
from repro.geo import Point, Rect
from repro.model import SightingRecord
from repro.runtime.base import Endpoint
from repro.sim.scenario import table2_service


class Reporter(Endpoint):
    """Minimal device stand-in for protocol-level assertions."""

    _counter = 0

    def __init__(self):
        type(self)._counter += 1
        super().__init__(f"chaos-test-reporter-{type(self)._counter}")

    async def send_update(self, agent: str, oid: str, pos: Point) -> m.UpdateRes:
        res = await self.request(
            agent,
            m.UpdateReq(
                request_id=self.next_request_id(),
                reply_to=self.address,
                sighting=SightingRecord(oid, 0.0, pos, 10.0),
            ),
        )
        assert isinstance(res, m.UpdateRes)
        return res


def split_sw_quadrant(svc):
    """Split root.0 in two so merge recovery has a real parent to fold
    into; returns (executor, report, child ids)."""
    children = (
        ("root.0/t.0", Rect(0.0, 0.0, 375.0, 750.0)),
        ("root.0/t.1", Rect(375.0, 0.0, 750.0, 750.0)),
    )
    plan = SplitPlan(
        leaf_id="root.0",
        axis="x",
        cuts=(375.0,),
        children=children,
        reason="test prep",
    )
    executor = MigrationExecutor(svc)
    report = executor.execute(plan)
    return executor, report, tuple(child for child, _ in children)


class TestRetryPolicy:
    def test_of_normalizes_plain_int(self):
        policy = RetryPolicy.of(5)
        assert policy.retries == 5
        assert policy.base_delay == 0.0

    def test_of_passes_policy_through(self):
        policy = RetryPolicy(retries=2, base_delay=0.5)
        assert RetryPolicy.of(policy) is policy

    def test_default_policy_never_waits(self):
        policy = RetryPolicy()
        assert [policy.delay_before(n) for n in range(4)] == [0.0] * 4

    def test_first_attempt_never_waits(self):
        policy = RetryPolicy(base_delay=1.0)
        assert policy.delay_before(0) == 0.0

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(
            retries=6, base_delay=0.1, backoff_factor=2.0, max_delay=0.5
        )
        delays = [policy.delay_before(n) for n in range(1, 6)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])


class TestDetection:
    def test_probe_alive_on_live_server(self):
        svc, _ = table2_service(object_count=20, seed=0)
        coordinator = RecoveryCoordinator(svc)
        assert coordinator.probe_alive("root.0")

    def test_probe_dead_after_crash(self):
        svc, _ = table2_service(object_count=20, seed=0)
        coordinator = RecoveryCoordinator(svc)
        svc.crash_server("root.0")
        assert not coordinator.probe_alive("root.0")

    def test_confirm_dead_answers_quickly_for_live_server(self):
        svc, _ = table2_service(object_count=20, seed=0)
        coordinator = RecoveryCoordinator(svc)
        dead, attempts, elapsed = coordinator.confirm_dead("root.1")
        assert not dead
        assert attempts == 1
        assert elapsed < coordinator.probe_timeout

    def test_confirm_dead_exhausts_backoff_schedule(self):
        svc, _ = table2_service(object_count=20, seed=0)
        coordinator = RecoveryCoordinator(svc)
        svc.crash_server("root.0")
        dead, attempts, elapsed = coordinator.confirm_dead("root.0")
        assert dead
        policy = coordinator.probe_policy
        assert attempts == policy.retries + 1
        # Every probe burns its full timeout; backoff sleeps in between.
        backoff = sum(
            policy.delay_before(n) for n in range(1, policy.retries + 1)
        )
        expected = attempts * coordinator.probe_timeout + backoff
        assert elapsed == pytest.approx(expected)

    def test_recover_dead_leaf_declines_live_server(self):
        svc, _ = table2_service(object_count=20, seed=0)
        coordinator = RecoveryCoordinator(svc)
        assert coordinator.recover_dead_leaf("root.2") is None
        assert coordinator.reports == []


class TestRestartRecovery:
    def test_wal_replay_restores_registrations(self):
        svc, homes = table2_service(object_count=120, seed=1)
        local = [oid for oid, home in homes.items() if home == "root.0"]
        assert local
        coordinator = RecoveryCoordinator(svc)
        inject_crash(svc, "root.0")

        report = coordinator.recover_dead_leaf("root.0", strategy="restart")
        assert report is not None
        assert report.strategy == "restart"
        assert report.new_home == "root.0"
        assert report.moved == 0
        assert report.replayed_records == len(local)
        assert report.detection_attempts == coordinator.probe_policy.retries + 1
        # Registrations are back; sightings are soft state, rebuilt by
        # the next position report.
        server = svc.servers["root.0"]
        for oid in local:
            assert oid in server.store.visitors
        reporter = Reporter()
        svc.network.join(reporter)
        pos = server.config.area.center
        svc.run(reporter.send_update("root.0", local[0], pos))
        descriptor = svc.pos_query(local[0], entry_server="root.3")
        assert descriptor is not None
        assert descriptor.pos == pos
        svc.check_consistency()

    def test_restart_rejoins_at_current_epoch(self):
        svc, _ = table2_service(object_count=60, seed=2)
        coordinator = RecoveryCoordinator(svc)
        svc.crash_server("root.1")
        # The topology moves on while root.1 is down.
        split_sw_quadrant(svc)
        coordinator.recover_leaf("root.1", strategy="restart")
        assert svc.servers["root.1"].topology_epoch == svc.hierarchy.epoch

    def test_recover_leaf_refuses_live_server(self):
        svc, _ = table2_service(object_count=20, seed=0)
        coordinator = RecoveryCoordinator(svc)
        with pytest.raises(LocationServiceError, match="not down"):
            coordinator.recover_leaf("root.0", strategy="restart")

    def test_recover_leaf_refuses_unknown_server(self):
        svc, _ = table2_service(object_count=20, seed=0)
        coordinator = RecoveryCoordinator(svc)
        with pytest.raises(LocationServiceError, match="not a live leaf"):
            coordinator.recover_leaf("nope", strategy="restart")

    def test_unknown_strategy_rejected(self):
        svc, _ = table2_service(object_count=20, seed=0)
        coordinator = RecoveryCoordinator(svc)
        svc.crash_server("root.0")
        with pytest.raises(LocationServiceError, match="unknown recovery strategy"):
            coordinator.recover_leaf("root.0", strategy="pray")


class TestMergeRecovery:
    def test_dead_child_folds_into_parent_via_wal(self):
        svc, homes = table2_service(object_count=200, seed=3)
        executor, split_report, (victim, sibling) = split_sw_quadrant(svc)
        homes.update(split_report.new_homes)
        dead_oids = [oid for oid, home in homes.items() if home == victim]
        live_oids = [oid for oid, home in homes.items() if home == sibling]
        assert dead_oids and live_oids

        coordinator = RecoveryCoordinator(svc, executor=executor)
        inject_crash(svc, victim)
        report = coordinator.recover_dead_leaf(victim, strategy="merge")

        assert report.strategy == "merge"
        assert report.new_home == "root.0"
        assert report.replayed_records == len(dead_oids)
        parent = svc.servers["root.0"]
        assert parent.is_leaf
        # Every object — dead child's included — has exactly one agent.
        for oid in dead_oids + live_oids:
            assert oid in parent.store.visitors
            assert report.new_homes[oid] == "root.0"
        # The dead alias is garbage-collected, not left to dead-letter.
        assert victim not in svc.servers
        assert victim not in svc.retired_servers
        svc.hierarchy.validate()
        svc.check_consistency()

    def test_sightings_rebuild_from_reports_after_merge(self):
        svc, homes = table2_service(object_count=200, seed=4)
        executor, split_report, (victim, _) = split_sw_quadrant(svc)
        homes.update(split_report.new_homes)
        dead_oids = [oid for oid, home in homes.items() if home == victim]

        coordinator = RecoveryCoordinator(svc, executor=executor)
        inject_crash(svc, victim)
        coordinator.recover_dead_leaf(victim, strategy="merge")

        reporter = Reporter()
        svc.network.join(reporter)
        pos = svc.servers["root.0"].config.area.center
        for oid in dead_oids:
            res = svc.run(reporter.send_update("root.0", oid, pos))
            assert res.ok
        assert svc.total_tracked() == len(homes)
        svc.check_consistency()

    def test_merge_refuses_interior_sibling(self):
        svc, _ = table2_service(object_count=60, seed=5)
        split_sw_quadrant(svc)  # root.0 is interior now
        coordinator = RecoveryCoordinator(svc)
        svc.crash_server("root.1")
        with pytest.raises(LocationServiceError, match="not all leaves"):
            coordinator.recover_leaf("root.1", strategy="merge")

    def test_abort_in_flight_discards_windows_touching_the_dead(self):
        svc, homes = table2_service(object_count=150, seed=6)
        children = (
            ("root.0/t.0", Rect(0.0, 0.0, 375.0, 750.0)),
            ("root.0/t.1", Rect(375.0, 0.0, 750.0, 750.0)),
        )
        plan = SplitPlan(
            leaf_id="root.0",
            axis="x",
            cuts=(375.0,),
            children=children,
            reason="test prep",
        )
        executor = MigrationExecutor(svc)
        migration = executor.begin(plan)
        executor.step(migration, max_objects=10)  # crash mid-copy
        coordinator = RecoveryCoordinator(svc, executor=executor)
        epoch_before = svc.hierarchy.epoch

        inject_crash(svc, "root.0")
        report = coordinator.recover_dead_leaf("root.0", strategy="restart")

        assert report is not None
        assert list(executor.in_flight) == []
        # Pre-cutover discard is exact: the epoch never moved and the
        # same plan re-runs cleanly afterwards once the next position
        # reports have rebuilt the (soft-state) sightings the crash wiped.
        assert svc.hierarchy.epoch == epoch_before
        reporter = Reporter()
        svc.network.join(reporter)
        rng = random.Random(6)
        local = [oid for oid, home in homes.items() if home == "root.0"]
        for oid in local:
            pos = Point(rng.uniform(0.0, 750.0), rng.uniform(0.0, 750.0))
            svc.run(reporter.send_update("root.0", oid, pos))
        rerun = executor.execute(plan)
        assert rerun.moved == len(local)
        svc.hierarchy.validate()
        svc.check_consistency()

    def test_faults_injected_accounting_via_injector(self):
        svc, _ = table2_service(object_count=20, seed=0)
        injector = FaultInjector(svc.network)
        inject_crash(svc, "root.0")
        injector.note_fault()
        assert svc.network.stats.faults_injected == 2

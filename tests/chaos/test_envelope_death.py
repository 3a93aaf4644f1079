"""Protocol-lane death detection: an envelope that exhausts its
retry budget notifies the service's envelope-death listeners, and a
watching ``RecoveryCoordinator`` confirms and recovers the suspect —
no harness-side liveness polling anywhere."""

import pytest

from repro.chaos import RecoveryCoordinator, inject_crash
from repro.cluster.planner import SplitPlan
from repro.core import LocationService, build_table2_hierarchy
from repro.core.service import drive_update_envelope
from repro.errors import TransportError
from repro.geo import Point, Rect
from repro.model import SightingRecord


def _service():
    return LocationService(build_table2_hierarchy(), sighting_ttl=1e9)


def _drive_batch(svc, dest, sightings, timeout=0.5, retries=2):
    reporter = svc._reporter()
    return svc.run(
        drive_update_envelope(
            reporter,
            svc,
            dest,
            [(s.object_id, s.pos, s.acc_sens) for s in sightings],
            timeout,
            retries,
        )
    )


class TestEnvelopeDeathListener:
    def test_exhaustion_notifies_with_dest_and_attempts(self):
        svc = _service()
        svc.register("o1", Point(100, 100))
        deaths = []
        svc.add_envelope_death_listener(
            lambda dest, what, attempts: deaths.append((dest, what, attempts))
        )
        inject_crash(svc, "root.0")
        with pytest.raises(TransportError):
            _drive_batch(
                svc, "root.0", [SightingRecord("o1", 1.0, Point(110, 110), 10.0)]
            )
        assert deaths == [("root.0", "update", 3)]

    def test_answered_envelope_stays_silent(self):
        svc = _service()
        svc.register("o1", Point(100, 100))
        deaths = []
        svc.add_envelope_death_listener(lambda *a: deaths.append(a))
        _drive_batch(
            svc, "root.0", [SightingRecord("o1", 1.0, Point(110, 110), 10.0)]
        )
        assert deaths == []

    def test_add_listener_is_idempotent(self):
        svc = _service()
        listener = lambda *a: None  # noqa: E731
        svc.add_envelope_death_listener(listener)
        svc.add_envelope_death_listener(listener)
        assert svc._envelope_death_listeners == [listener]


class TestCoordinatorWatch:
    def _crashed_leaf_fixture(self):
        """A depth-2 corner (so merge recovery has a parent), an object
        homed there, and the leaf crashed."""
        svc = _service()
        svc.register("o1", Point(100, 100))
        from repro.cluster.migration import MigrationExecutor

        executor = MigrationExecutor(svc)
        children = (
            ("root.0/c.0", Rect(0.0, 0.0, 375.0, 750.0)),
            ("root.0/c.1", Rect(375.0, 0.0, 750.0, 750.0)),
        )
        report = executor.execute(
            SplitPlan(
                leaf_id="root.0",
                axis="x",
                cuts=(375.0,),
                children=children,
                reason="test prep",
            )
        )
        victim = report.new_homes["o1"]
        coordinator = RecoveryCoordinator(svc, executor=executor).watch()
        inject_crash(svc, victim)
        return svc, coordinator, victim

    def test_suspect_recorded_on_exhaustion(self):
        svc, coordinator, victim = self._crashed_leaf_fixture()
        with pytest.raises(TransportError):
            _drive_batch(
                svc, victim, [SightingRecord("o1", 1.0, Point(101, 101), 10.0)]
            )
        assert coordinator.suspects == {victim: 1}

    def test_process_suspects_confirms_then_recovers(self):
        svc, coordinator, victim = self._crashed_leaf_fixture()
        with pytest.raises(TransportError):
            _drive_batch(
                svc, victim, [SightingRecord("o1", 1.0, Point(101, 101), 10.0)]
            )
        results = coordinator.process_suspects(strategy="merge")
        assert victim in results
        report = results[victim]
        assert report is not None and report.strategy == "merge"
        assert report.detection_attempts >= 1
        assert coordinator.suspects == {}
        # The region re-homed; sightings are soft state, so the next
        # ordinary position report makes the object queryable again.
        _drive_batch(
            svc,
            report.new_home,
            [SightingRecord("o1", 2.0, Point(102, 102), 10.0)],
        )
        svc.settle()
        assert svc.pos_query("o1") is not None

    def test_live_suspect_survives_confirmation(self):
        """A destination that was merely slow (transient loss) answers a
        probe and is not recovered."""
        svc = _service()
        svc.register("o1", Point(100, 100))
        coordinator = RecoveryCoordinator(svc).watch()
        coordinator._on_envelope_death("root.0", "update", 3)  # false alarm
        results = coordinator.process_suspects()
        assert results == {"root.0": None}
        assert "root.0" in svc.servers  # untouched

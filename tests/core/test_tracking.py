"""Tests for stationary tracking systems (Active-Badge-style registrars)."""

import pytest

from repro.core import LocationService, SensorCell, StationaryTracker, build_table2_hierarchy
from repro.errors import LocationServiceError
from repro.geo import Point, Rect


def make_tracker(svc, cells=None, **kwargs):
    cells = cells or [
        SensorCell("lobby", Rect(0, 0, 20, 20)),
        SensorCell("lab", Rect(20, 0, 40, 20)),
        SensorCell("corridor", Rect(0, 20, 40, 30)),
    ]
    tracker = StationaryTracker("building-A", cells, entry_server="root.0", **kwargs)
    svc.network.join(tracker)
    return tracker


@pytest.fixture
def svc(lane):
    return LocationService(build_table2_hierarchy(), **lane)


class TestSensorCell:
    def test_position_is_center(self):
        cell = SensorCell("room", Rect(0, 0, 20, 10))
        assert cell.position == Point(10, 5)

    def test_accuracy_is_circumradius(self):
        cell = SensorCell("room", Rect(0, 0, 6, 8))
        assert cell.accuracy == pytest.approx(5.0)


class TestTrackerConstruction:
    def test_needs_cells(self, svc):
        with pytest.raises(LocationServiceError):
            StationaryTracker("t", [], entry_server="root.0")

    def test_duplicate_cells_rejected(self, svc):
        cells = [
            SensorCell("a", Rect(0, 0, 10, 10)),
            SensorCell("a", Rect(10, 0, 20, 10)),
        ]
        with pytest.raises(LocationServiceError):
            StationaryTracker("t", cells, entry_server="root.0")

    def test_default_accuracy_from_coarsest_cell(self, svc):
        tracker = make_tracker(svc)
        # The corridor (40 x 10) has the largest circumradius.
        corridor = SensorCell("corridor", Rect(0, 20, 40, 30))
        assert tracker.des_acc == pytest.approx(corridor.accuracy)


class TestSightings:
    def test_first_sighting_registers(self, svc):
        tracker = make_tracker(svc)
        offered = svc.run(tracker.sight("badge-1", "lobby"))
        assert offered >= 10.0
        assert tracker.tracked_count == 1
        ld = svc.pos_query("badge-1")
        assert ld.pos == Point(10, 10)  # lobby center

    def test_subsequent_sightings_update(self, svc):
        tracker = make_tracker(svc)
        svc.run(tracker.sight("badge-1", "lobby"))
        svc.run(tracker.sight("badge-1", "lab"))
        ld = svc.pos_query("badge-1")
        assert ld.pos == Point(30, 10)  # lab center
        assert tracker.tracked_count == 1

    def test_unknown_cell_rejected(self, svc):
        tracker = make_tracker(svc)
        with pytest.raises(LocationServiceError):
            svc.run(tracker.sight("badge-1", "roof"))

    def test_many_badges(self, svc):
        tracker = make_tracker(svc)
        for i in range(10):
            svc.run(tracker.sight(f"badge-{i}", "lobby" if i % 2 else "lab"))
        assert tracker.tracked_count == 10
        answer = svc.range_query(
            Rect(0, 0, 40, 30), req_acc=100.0, req_overlap=0.2, entry_server="root.1"
        )
        assert len(answer.entries) == 10

    def test_badge_lost_deregisters(self, svc):
        tracker = make_tracker(svc)
        svc.run(tracker.sight("badge-1", "lobby"))
        assert svc.run(tracker.badge_lost("badge-1"))
        assert tracker.tracked_count == 0
        svc.settle()
        assert svc.pos_query("badge-1") is None
        assert svc.total_tracked() == 0

    def test_badge_lost_unknown(self, svc):
        tracker = make_tracker(svc)
        assert not svc.run(tracker.badge_lost("ghost"))


class TestRegistrarRole:
    def test_tracker_receives_acc_notifications(self):
        """After a handover the notifyAvailAcc goes to the *tracker* —
        the registering instance — not to the (networkless) badge."""
        svc = LocationService(build_table2_hierarchy())
        # A second installation in another quadrant, so a badge can move
        # between cells that live under different leaf servers.
        cells = [
            SensorCell("west", Rect(700, 95, 740, 135)),
            SensorCell("east", Rect(760, 95, 800, 135)),
        ]
        tracker = StationaryTracker(
            "campus", cells, entry_server="root.0", des_acc=40.0, min_acc=500.0
        )
        svc.network.join(tracker)
        svc.run(tracker.sight("badge-1", "west"))
        agent_before = tracker.badges["badge-1"][0]
        svc.run(tracker.sight("badge-1", "east"))  # crosses into root.1
        svc.settle()
        agent_after = tracker.badges["badge-1"][0]
        assert agent_before == "root.0"
        assert agent_after == "root.1"
        svc.check_consistency()

    def test_sighting_after_crash_recovers_state(self, svc):
        tracker = make_tracker(svc)
        svc.run(tracker.sight("badge-1", "lobby"))
        svc.servers["root.0"].simulate_crash_recovery()
        assert svc.pos_query("badge-1") is None
        svc.run(tracker.sight("badge-1", "lab"))
        assert svc.pos_query("badge-1").pos == Point(30, 10)

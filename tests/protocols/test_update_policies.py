"""Tests for the update-reporting policies ([15], Section 6.2)."""

import pytest

from repro.geo import Point, Rect
from repro.protocols import (
    DeadReckoningPolicy,
    DistancePolicy,
    TimePolicy,
    simulate_policy,
)
from repro.sim.mobility import RandomWaypointWalker


def linear_trajectory(speed=2.0, duration=100.0, dt=1.0):
    return [(t * dt, Point(t * dt * speed, 0.0)) for t in range(int(duration / dt) + 1)]


class TestTimePolicy:
    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            TimePolicy(0.0)

    def test_reports_at_fixed_interval(self):
        policy = TimePolicy(interval=10.0)
        result = simulate_policy(policy, linear_trajectory(duration=100.0))
        # t=0 plus every 10 s.
        assert result["updates"] == 11

    def test_reports_even_when_stationary(self):
        policy = TimePolicy(interval=10.0)
        trajectory = [(float(t), Point(0, 0)) for t in range(101)]
        result = simulate_policy(policy, trajectory)
        assert result["updates"] == 11

    def test_interval_boundary_is_inclusive(self):
        policy = TimePolicy(interval=10.0)
        assert policy.should_report(0.0, Point(0, 0))  # nothing reported yet
        policy.note_report(0.0, Point(0, 0))
        assert not policy.should_report(9.999, Point(0, 0))
        assert policy.should_report(10.0, Point(0, 0))


class TestDistancePolicy:
    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            DistancePolicy(-1.0)

    def test_reports_on_drift(self):
        policy = DistancePolicy(threshold=25.0)
        result = simulate_policy(policy, linear_trajectory(speed=2.0, duration=100.0))
        # 200 m of travel at 25 m threshold: ~8 reports plus the first.
        assert 7 <= result["updates"] <= 10
        assert result["max_deviation"] <= 25.0 + 2.0  # threshold + one step

    def test_threshold_boundary_is_exclusive(self):
        policy = DistancePolicy(threshold=25.0)
        policy.note_report(0.0, Point(0, 0))
        assert not policy.should_report(1.0, Point(15.0, 20.0))  # exactly 25 m
        assert policy.should_report(1.0, Point(15.0, 20.001))

    def test_estimate_is_last_reported_position(self):
        policy = DistancePolicy(threshold=25.0)
        assert policy.estimate(0.0) is None
        policy.note_report(0.0, Point(3, 4))
        assert policy.estimate(100.0) == Point(3, 4)
        assert policy.reports_sent == 1

    def test_no_reports_when_stationary(self):
        policy = DistancePolicy(threshold=25.0)
        trajectory = [(float(t), Point(0, 0)) for t in range(100)]
        result = simulate_policy(policy, trajectory)
        assert result["updates"] == 1  # only the initial report

    def test_deviation_bounded_by_threshold(self):
        walker = RandomWaypointWalker(
            Rect(0, 0, 1000, 1000), seed=3, min_speed=1.0, max_speed=3.0
        )
        trajectory = walker.trajectory(duration=500.0, dt=1.0)
        policy = DistancePolicy(threshold=30.0)
        result = simulate_policy(policy, trajectory)
        # Between samples the object can exceed the threshold by at most
        # one step's travel (3 m/s * 1 s).
        assert result["max_deviation"] <= 33.0


class TestDeadReckoning:
    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            DeadReckoningPolicy(0.0)

    def test_linear_motion_needs_few_updates(self):
        # Perfectly linear motion: after the second report the velocity
        # estimate is exact, so no further updates are ever needed.
        policy = DeadReckoningPolicy(threshold=25.0)
        result = simulate_policy(policy, linear_trajectory(speed=2.0, duration=500.0))
        distance_result = simulate_policy(
            DistancePolicy(threshold=25.0), linear_trajectory(speed=2.0, duration=500.0)
        )
        assert result["updates"] <= 3
        assert distance_result["updates"] > 10 * result["updates"]

    def test_turning_motion_triggers_updates(self):
        # A sharp turn invalidates the extrapolation: the first report
        # (t = 0) extrapolates exactly until the turn, which costs one more.
        out = [(float(t), Point(2.0 * t, 0.0)) for t in range(51)]
        back = [(50.0 + t, Point(100.0 - 2.0 * t, 0.0)) for t in range(1, 51)]
        policy = DeadReckoningPolicy(threshold=10.0)
        result = simulate_policy(policy, out + back)
        assert result["updates"] == 2

    def test_a_report_at_time_zero_extrapolates(self):
        policy = DeadReckoningPolicy(threshold=10.0)
        policy.note_report(0.0, Point(0.0, 0.0))
        policy.observe(0.0, Point(0.0, 0.0))
        policy.observe(1.0, Point(3.0, 0.0))
        assert policy.estimate(4.0) == Point(12.0, 0.0)

    def test_deviation_bounded(self):
        walker = RandomWaypointWalker(
            Rect(0, 0, 1000, 1000), seed=5, min_speed=1.0, max_speed=3.0
        )
        trajectory = walker.trajectory(duration=300.0, dt=1.0)
        policy = DeadReckoningPolicy(threshold=30.0)
        result = simulate_policy(policy, trajectory)
        # Extrapolation drift between samples: threshold + one step at
        # (true + estimated) speed.
        assert result["max_deviation"] <= 30.0 + 6.0 + 1e-6


class TestSimulatePolicy:
    def test_empty_trajectory(self):
        result = simulate_policy(DistancePolicy(threshold=10.0), [])
        assert result == {
            "updates": 0,
            "samples": 0,
            "mean_deviation": 0.0,
            "max_deviation": 0.0,
        }

    def test_first_sample_has_no_estimate_to_deviate_from(self):
        trajectory = [(0.0, Point(0, 0)), (1.0, Point(4, 0)), (2.0, Point(8, 0))]
        result = simulate_policy(DistancePolicy(threshold=10.0), trajectory)
        assert result["updates"] == 1
        assert result["samples"] == 2
        assert result["mean_deviation"] == pytest.approx(6.0)
        assert result["max_deviation"] == pytest.approx(8.0)


class TestPolicyComparison:
    def test_dead_reckoning_beats_distance_on_waypoint_motion(self):
        """The DOMINO trade-off: fewer updates at comparable accuracy."""
        area = Rect(0, 0, 2000, 2000)
        totals = {"distance": 0, "dead_reckoning": 0}
        for seed in range(5):
            walker = RandomWaypointWalker(area, seed=seed, min_speed=1.0, max_speed=2.0)
            trajectory = walker.trajectory(duration=600.0, dt=1.0)
            totals["distance"] += simulate_policy(
                DistancePolicy(threshold=25.0), trajectory
            )["updates"]
            walker2 = RandomWaypointWalker(area, seed=seed, min_speed=1.0, max_speed=2.0)
            trajectory2 = walker2.trajectory(duration=600.0, dt=1.0)
            totals["dead_reckoning"] += simulate_policy(
                DeadReckoningPolicy(threshold=25.0), trajectory2
            )["updates"]
        assert totals["dead_reckoning"] < totals["distance"]

"""Position-update reporting policies ([15], paper Section 6.2).

A tracked object continuously compares its sensed position with what it
last reported and decides when to send an update.  The paper's prototype
uses the simple *distance-based* policy ("if these positions differ by
more than the distance defined by the offered accuracy"); its companion
technical report [15] compares that against time-based reporting and
dead reckoning.  All three are implemented here; the update-protocol
ablation bench measures the updates-sent vs. accuracy-kept trade-off.

Each policy is a small state machine::

    policy = DistancePolicy(threshold=25.0)
    if policy.should_report(now, true_pos):
        policy.note_report(now, true_pos)
        # ... send update(s) to the agent ...

``estimate(now)`` returns where the *server* believes the object is
under this policy, so the simulation can measure the true deviation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.geo import Point, Vector


class UpdatePolicy(ABC):
    """Decides when a tracked object reports, and what the LS then knows."""

    def __init__(self) -> None:
        self.reports_sent = 0
        self._last_report_time: float | None = None
        self._last_report_pos: Point | None = None

    @abstractmethod
    def should_report(self, now: float, pos: Point) -> bool:
        """Whether the object must send an update right now."""

    def note_report(self, now: float, pos: Point) -> None:
        """Record that an update was sent."""
        self.reports_sent += 1
        self._last_report_time = now
        self._last_report_pos = pos

    def estimate(self, now: float) -> Point | None:
        """The server-side position estimate under this policy."""
        return self._last_report_pos


class TimePolicy(UpdatePolicy):
    """Report every ``interval`` seconds, regardless of movement."""

    def __init__(self, interval: float) -> None:
        super().__init__()
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval

    def should_report(self, now: float, pos: Point) -> bool:
        if self._last_report_time is None:
            return True
        return now - self._last_report_time >= self.interval


class DistancePolicy(UpdatePolicy):
    """Report when the position drifted more than ``threshold`` meters.

    This is the paper's own protocol (Section 6.2) with the threshold
    normally set to the offered accuracy minus the sensor accuracy.
    """

    def __init__(self, threshold: float) -> None:
        super().__init__()
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.threshold = threshold

    def should_report(self, now: float, pos: Point) -> bool:
        if self._last_report_pos is None:
            return True
        return pos.distance_to(self._last_report_pos) > self.threshold


class DeadReckoningPolicy(UpdatePolicy):
    """Report position *and velocity*; report again when the linear
    extrapolation drifts more than ``threshold`` meters from the truth.

    For straight-line movement this slashes update counts versus the
    distance policy at equal accuracy — the DOMINO trade-off [24] the
    paper cites.
    """

    def __init__(self, threshold: float) -> None:
        super().__init__()
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.threshold = threshold
        self._velocity = Vector(0.0, 0.0)
        self._prev_time: float | None = None
        self._prev_pos: Point | None = None

    def observe(self, now: float, pos: Point) -> None:
        """Feed a sensor sample so velocity can be estimated."""
        if self._prev_time is not None and now > self._prev_time:
            dt = now - self._prev_time
            delta = pos - self._prev_pos
            self._velocity = Vector(delta.dx / dt, delta.dy / dt)
        self._prev_time = now
        self._prev_pos = pos

    def should_report(self, now: float, pos: Point) -> bool:
        self.observe(now, pos)
        estimate = self.estimate(now)
        if estimate is None:
            return True
        return pos.distance_to(estimate) > self.threshold

    def estimate(self, now: float) -> Point | None:
        if self._last_report_pos is None:
            return None
        dt = now - self._last_report_time
        return self._last_report_pos + self._velocity.scaled(dt)


def simulate_policy(
    policy: UpdatePolicy,
    trajectory: list[tuple[float, Point]],
) -> dict:
    """Replay a trajectory through a policy.

    Returns a summary: updates sent, mean and max deviation between the
    server estimate and the true position (sampled at every trajectory
    point *before* any triggered report — the deviation a concurrent
    query would observe).
    """
    deviations = []
    for now, pos in trajectory:
        estimate = policy.estimate(now)
        if estimate is not None:
            deviations.append(pos.distance_to(estimate))
        if policy.should_report(now, pos):
            policy.note_report(now, pos)
    return {
        "updates": policy.reports_sent,
        "samples": len(deviations),
        "mean_deviation": sum(deviations) / len(deviations) if deviations else 0.0,
        "max_deviation": max(deviations) if deviations else 0.0,
    }

"""Mobility models for tracked objects.

The paper's evaluation registers objects at random positions; its
future-work section asks how *moving patterns* influence performance.
These models generate synthetic movement for the update/handover path
and the ablation benches:

* :class:`RandomWaypointWalker` — the classic MANET model: pick a
  destination and speed, travel, pause, repeat.
* :class:`RandomWalkWalker` — heading-persistent random walk
  (Gauss-Markov flavored), reflecting at the area borders.
* :class:`ManhattanWalker` — movement constrained to a street grid,
  turning at intersections; models the city deployments the paper's
  introduction motivates.

All walkers are deterministic given their seed.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod

from repro.errors import LocationServiceError
from repro.geo import Point, Rect


class Walker(ABC):
    """A single object's movement process."""

    def __init__(self, area: Rect, position: Point) -> None:
        if not area.contains_point(position):
            raise LocationServiceError(f"start position {position} outside {area}")
        self.area = area
        self.position = position

    @abstractmethod
    def step(self, dt: float) -> Point:
        """Advance ``dt`` seconds; returns (and records) the new position."""

    def trajectory(self, duration: float, dt: float) -> list[tuple[float, Point]]:
        """Sampled positions at ``dt`` intervals, starting at t=0.

        Timestamps are computed as ``i * dt`` rather than by accumulating
        ``t += dt``, so they carry one rounding error each instead of a
        drift that grows with the sample count (visible as skipped or
        duplicated samples on long durations).
        """
        samples = [(0.0, self.position)]
        i = 0
        while i * dt < duration - 1e-9:
            i += 1
            samples.append((i * dt, self.step(dt)))
        return samples


class RandomWaypointWalker(Walker):
    """Travel to uniformly random waypoints at uniformly random speeds."""

    def __init__(
        self,
        area: Rect,
        seed: int = 0,
        min_speed: float = 0.5,
        max_speed: float = 2.0,
        pause: float = 0.0,
        start: Point | None = None,
    ) -> None:
        if not 0 < min_speed <= max_speed:
            raise LocationServiceError(
                f"need 0 < min_speed <= max_speed, got [{min_speed}, {max_speed}]"
            )
        self._rng = random.Random(seed)
        position = start if start is not None else self._random_point(area)
        super().__init__(area, position)
        self.min_speed = min_speed
        self.max_speed = max_speed
        self.pause = pause
        self._pause_left = 0.0
        self._pick_waypoint()

    def _random_point(self, area: Rect) -> Point:
        return Point(
            self._rng.uniform(area.min_x, area.max_x),
            self._rng.uniform(area.min_y, area.max_y),
        )

    def _pick_waypoint(self) -> None:
        self._target = self._random_point(self.area)
        self._speed = self._rng.uniform(self.min_speed, self.max_speed)

    def step(self, dt: float) -> Point:
        remaining = dt
        while remaining > 1e-12:
            if self._pause_left > 0.0:
                used = min(self._pause_left, remaining)
                self._pause_left -= used
                remaining -= used
                continue
            distance_to_target = self.position.distance_to(self._target)
            travel = self._speed * remaining
            if travel >= distance_to_target:
                # Arrive, pause, pick the next waypoint.
                self.position = self._target
                remaining -= distance_to_target / self._speed
                self._pause_left = self.pause
                self._pick_waypoint()
            else:
                direction = (self._target - self.position).normalized()
                self.position = self.position + direction.scaled(travel)
                remaining = 0.0
        return self.position


class RandomWalkWalker(Walker):
    """Heading-persistent random walk, reflecting at the borders."""

    def __init__(
        self,
        area: Rect,
        seed: int = 0,
        speed: float = 1.5,
        speed_sigma: float = 0.3,
        turn_sigma: float = 0.4,
        start: Point | None = None,
    ) -> None:
        self._rng = random.Random(seed)
        position = start if start is not None else Point(
            self._rng.uniform(area.min_x, area.max_x),
            self._rng.uniform(area.min_y, area.max_y),
        )
        super().__init__(area, position)
        self.mean_speed = speed
        self.speed_sigma = speed_sigma
        self.turn_sigma = turn_sigma
        self._heading = self._rng.uniform(0.0, 2.0 * math.pi)

    def step(self, dt: float) -> Point:
        self._heading += self._rng.gauss(0.0, self.turn_sigma)
        speed = max(0.0, self._rng.gauss(self.mean_speed, self.speed_sigma))
        x = self.position.x + speed * dt * math.cos(self._heading)
        y = self.position.y + speed * dt * math.sin(self._heading)
        x, bounced_x = _reflect(x, self.area.min_x, self.area.max_x)
        y, bounced_y = _reflect(y, self.area.min_y, self.area.max_y)
        if bounced_x:
            self._heading = math.pi - self._heading
        if bounced_y:
            self._heading = -self._heading
        self.position = Point(x, y)
        return self.position


class ManhattanWalker(Walker):
    """Movement along a regular street grid, turning at intersections."""

    def __init__(
        self,
        area: Rect,
        seed: int = 0,
        block: float = 100.0,
        speed: float = 1.5,
        turn_probability: float = 0.4,
    ) -> None:
        if block <= 0:
            raise LocationServiceError(f"block size must be positive, got {block}")
        self._rng = random.Random(seed)
        self.block = block
        self.speed = speed
        self.turn_probability = turn_probability
        # Start at a random intersection strictly inside the area.
        cols = max(1, int(area.width / block))
        rows = max(1, int(area.height / block))
        start = Point(
            area.min_x + self._rng.randint(0, cols) * block,
            area.min_y + self._rng.randint(0, rows) * block,
        )
        start = Point(min(start.x, area.max_x), min(start.y, area.max_y))
        super().__init__(area, start)
        self._direction = self._rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])

    def _at_intersection(self) -> bool:
        fx = (self.position.x - self.area.min_x) % self.block
        fy = (self.position.y - self.area.min_y) % self.block
        near = lambda v: v < 1e-6 or self.block - v < 1e-6
        return near(fx) and near(fy)

    def step(self, dt: float) -> Point:
        remaining = self.speed * dt
        while remaining > 1e-9:
            if self._at_intersection() and self._rng.random() < self.turn_probability:
                self._direction = self._rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
            dx, dy = self._direction
            # Distance to the next intersection along the heading.
            if dx != 0:
                offset = (self.position.x - self.area.min_x) % self.block
                gap = self.block - offset if dx > 0 else (offset if offset > 1e-9 else self.block)
            else:
                offset = (self.position.y - self.area.min_y) % self.block
                gap = self.block - offset if dy > 0 else (offset if offset > 1e-9 else self.block)
            travel = min(remaining, gap)
            x = self.position.x + dx * travel
            y = self.position.y + dy * travel
            # Turn around at the border instead of leaving the area.
            if not self.area.contains_point(Point(x, y)):
                self._direction = (-dx, -dy)
                continue
            self.position = Point(x, y)
            remaining -= travel
        return self.position


def _reflect(value: float, low: float, high: float) -> tuple[float, bool]:
    """Mirror ``value`` back into ``[low, high]``; returns (value, bounced)."""
    bounced = False
    # A large excursion may need several reflections.
    while value < low or value > high:
        bounced = True
        if value < low:
            value = 2.0 * low - value
        else:
            value = 2.0 * high - value
    return value, bounced


def make_walkers(
    kind: str,
    count: int,
    area: Rect,
    seed: int = 0,
    **kwargs,
) -> list[Walker]:
    """A population of independently seeded walkers."""
    factories = {
        "waypoint": RandomWaypointWalker,
        "walk": RandomWalkWalker,
        "manhattan": ManhattanWalker,
    }
    try:
        factory = factories[kind]
    except KeyError:
        raise ValueError(f"unknown mobility model {kind!r}; choose from {sorted(factories)}")
    return [factory(area, seed=seed * 1_000_003 + i, **kwargs) for i in range(count)]

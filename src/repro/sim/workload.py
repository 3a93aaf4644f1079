"""Workload generation: operation mixes and query locality.

The paper's future work names "the concrete mix of different types of
queries and their degree of locality" as the key workload parameters.
A :class:`WorkloadSpec` captures both; :class:`WorkloadGenerator`
produces a deterministic operation stream against a hierarchy:

* **locality** ``p`` — with probability ``p`` an operation targets the
  issuing client's own leaf service area ("objects in their vicinity"),
  otherwise a uniformly random spot in the root area.
* the mix assigns probabilities to position updates, position queries,
  range queries and nearest-neighbor queries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from repro.core.hierarchy import Hierarchy
from repro.geo import Point, Rect


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Operation mix and locality for one experiment."""

    update_fraction: float = 0.6
    pos_query_fraction: float = 0.25
    range_query_fraction: float = 0.1
    nn_query_fraction: float = 0.05
    locality: float = 0.8
    range_size_m: float = 50.0
    req_acc: float = 50.0
    req_overlap: float = 0.3

    def __post_init__(self) -> None:
        total = (
            self.update_fraction
            + self.pos_query_fraction
            + self.range_query_fraction
            + self.nn_query_fraction
        )
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"operation mix must sum to 1, got {total}")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError(f"locality must be in [0, 1], got {self.locality}")


@dataclass(frozen=True, slots=True)
class Operation:
    """One generated operation.

    ``kind`` is one of ``update``, ``pos_query``, ``range_query``,
    ``nn_query``.  ``entry_leaf`` is the leaf the issuing client is
    attached to; ``object_id`` is set for update/pos_query; ``area`` for
    range queries; ``pos`` for updates and NN queries.
    """

    kind: str
    entry_leaf: str
    object_id: str | None = None
    pos: Point | None = None
    area: Rect | None = None


class WorkloadGenerator:
    """Deterministic operation stream over a hierarchy and object set."""

    def __init__(
        self,
        hierarchy: Hierarchy,
        object_ids: list[str],
        object_home_leaf: dict[str, str],
        spec: WorkloadSpec,
        seed: int = 0,
    ) -> None:
        if not object_ids:
            raise ValueError("workload needs at least one object")
        self.hierarchy = hierarchy
        self.spec = spec
        self.object_ids = list(object_ids)
        self.object_home_leaf = dict(object_home_leaf)
        self.leaves = hierarchy.leaf_ids()
        self._rng = random.Random(seed)
        self._by_leaf: dict[str, list[str]] = {}
        for oid, leaf in object_home_leaf.items():
            self._by_leaf.setdefault(leaf, []).append(oid)

    # -- sampling helpers ---------------------------------------------------

    def _point_in(self, area: Rect) -> Point:
        return Point(
            self._rng.uniform(area.min_x, area.max_x),
            self._rng.uniform(area.min_y, area.max_y),
        )

    def _target_area(self, entry_leaf: str) -> Rect:
        if self._rng.random() < self.spec.locality:
            return self.hierarchy.config(entry_leaf).area
        return self.hierarchy.root_area()

    def _pick_object(self, entry_leaf: str) -> str:
        if self._rng.random() < self.spec.locality:
            local = self._by_leaf.get(entry_leaf)
            if local:
                return self._rng.choice(local)
        return self._rng.choice(self.object_ids)

    # -- generation -------------------------------------------------------------

    def next_operation(self) -> Operation:
        entry_leaf = self._rng.choice(self.leaves)
        roll = self._rng.random()
        spec = self.spec
        if roll < spec.update_fraction:
            # Updates go to the object's own agent and stay local to its
            # leaf area (the paper's updates are "always local").
            oid = self._pick_object(entry_leaf)
            home = self.object_home_leaf[oid]
            return Operation(
                kind="update",
                entry_leaf=home,
                object_id=oid,
                pos=self._point_in(self.hierarchy.config(home).area),
            )
        roll -= spec.update_fraction
        if roll < spec.pos_query_fraction:
            return Operation(
                kind="pos_query", entry_leaf=entry_leaf, object_id=self._pick_object(entry_leaf)
            )
        roll -= spec.pos_query_fraction
        if roll < spec.range_query_fraction:
            target = self._target_area(entry_leaf)
            center = self._point_in(target)
            half = spec.range_size_m / 2.0
            root = self.hierarchy.root_area()
            area = Rect(
                max(root.min_x, center.x - half),
                max(root.min_y, center.y - half),
                min(root.max_x, center.x + half),
                min(root.max_y, center.y + half),
            )
            return Operation(kind="range_query", entry_leaf=entry_leaf, area=area)
        return Operation(
            kind="nn_query",
            entry_leaf=entry_leaf,
            pos=self._point_in(self._target_area(entry_leaf)),
        )

    def operations(self, count: int):
        """A finite generator of ``count`` operations."""
        for _ in range(count):
            yield self.next_operation()

# ---------------------------------------------------------------------------
# Skewed spatial distributions (elastic-cluster scenarios)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class HotspotSpec:
    """A concentration of activity: ``fraction`` of the population lives
    (and keeps reporting) inside ``area``; the rest spreads uniformly
    over the root service area.  This is the *flash crowd* shape — a
    stadium, a festival — that saturates whichever leaf server owns
    ``area`` under a static hierarchy."""

    area: Rect
    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")


def hotspot_positions(
    root: Rect, spec: HotspotSpec, count: int, seed: int = 0, prefix: str = "obj"
) -> list[tuple[str, Point]]:
    """Object placements skewed into a hotspot.

    The first ``round(fraction * count)`` objects land uniformly inside
    the hotspot area, the rest uniformly over the root area — a
    deterministic split so scenario runs can tell crowd members from
    background objects by index.
    """
    rng = random.Random(seed)
    hot_count = round(spec.fraction * count)
    placements = []
    for i in range(count):
        area = spec.area if i < hot_count else root
        placements.append(
            (
                f"{prefix}-{i}",
                Point(
                    rng.uniform(area.min_x, area.max_x),
                    rng.uniform(area.min_y, area.max_y),
                ),
            )
        )
    return placements


def wavefront_area(root: Rect, progress: float, width: float) -> Rect:
    """The hot column of a west-to-east *commuter rush* at ``progress``.

    ``progress`` in [0, 1] slides a vertical band of the given width
    across the root area (clamped at the borders): the morning-rush
    wavefront that heats leaf servers in sequence and leaves cold ones
    behind — the shape that exercises split **and** merge.
    """
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must be in [0, 1], got {progress}")
    center = root.min_x + progress * root.width
    half = width / 2.0
    min_x = min(max(root.min_x, center - half), root.max_x - width)
    min_x = max(min_x, root.min_x)
    max_x = min(root.max_x, min_x + width)
    return Rect(min_x, root.min_y, max_x, root.max_y)


def scatter_objects(
    hierarchy: Hierarchy, count: int, seed: int = 0, prefix: str = "obj"
) -> list[tuple[str, Point]]:
    """Uniformly random object placements over the root service area."""
    rng = random.Random(seed)
    root = hierarchy.root_area()
    return [
        (
            f"{prefix}-{i}",
            Point(rng.uniform(root.min_x, root.max_x), rng.uniform(root.min_y, root.max_y)),
        )
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# Streaming array workload (million-object columnar lane)
# ---------------------------------------------------------------------------


class StreamingWalkers:
    """A walker population held as coordinate arrays, not objects.

    The per-walker :class:`~repro.sim.mobility.Walker` processes cost one
    Python object, one method dispatch and one ``Point`` allocation per
    walker per tick — at 10^6 walkers the generator alone would dwarf the
    store it is supposed to exercise.  This population keeps positions
    and velocities in four flat arrays and advances everyone with four
    vectorized operations per tick (constant-velocity motion, reflecting
    off the area borders), yielding coordinate array *views* that feed
    the columnar store's scatter path directly.

    Positions after ``step`` are bit-for-bit reproducible from the seed,
    so two populations built with identical parameters trace identical
    trajectories — the equivalence harness drives the object and the
    columnar backend from twin instances and compares answers exactly.
    """

    def __init__(
        self,
        count: int,
        area: Rect,
        speed: float = 1.5,
        seed: int = 0,
        prefix: str = "sw",
    ) -> None:
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        self.count = count
        self.area = area
        self.object_ids = [f"{prefix}-{i}" for i in range(count)]
        rng = np.random.default_rng(seed)  # PCG64: reproducible per seed
        self.xs = rng.uniform(area.min_x, area.max_x, count)
        self.ys = rng.uniform(area.min_y, area.max_y, count)
        headings = rng.uniform(0.0, 2.0 * math.pi, count)
        self.vxs = speed * np.cos(headings)
        self.vys = speed * np.sin(headings)

    def step(self, dt: float):
        """Advance every walker by ``dt`` seconds; returns ``(xs, ys)``.

        The returned arrays are the population's live buffers (views, not
        copies) — consume them before the next ``step``.
        """
        area = self.area
        self.xs += self.vxs * dt
        self.ys += self.vys * dt
        # Reflect off the borders: mirror the overshoot, flip velocity.
        for pos, vel, lo, hi in (
            (self.xs, self.vxs, area.min_x, area.max_x),
            (self.ys, self.vys, area.min_y, area.max_y),
        ):
            low = pos < lo
            if low.any():
                pos[low] = 2.0 * lo - pos[low]
                vel[low] = -vel[low]
            high = pos > hi
            if high.any():
                pos[high] = 2.0 * hi - pos[high]
                vel[high] = -vel[high]
            # A walker overshooting past both borders in one step
            # (speed*dt > side) would leave the area; clamp defensively.
            np.clip(pos, lo, hi, out=pos)
        return self.xs, self.ys

    def position_of(self, i: int) -> Point:
        """Materialize one walker's position (spot checks only)."""
        return Point(float(self.xs[i]), float(self.ys[i]))

    def ticks(self, count: int, dt: float):
        """A finite generator of ``count`` per-tick coordinate batches.

        Yields ``(now, xs, ys)`` with ``now`` advancing by ``dt``; the
        arrays are live views (see :meth:`step`).
        """
        now = 0.0
        for _ in range(count):
            now += dt
            xs, ys = self.step(dt)
            yield now, xs, ys

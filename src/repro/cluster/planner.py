"""Rebalance planning: hot-leaf splits and cold sibling-set merges.

The planner reads the monitor's decayed load rates and the live object
counts and emits declarative plans; it never touches the hierarchy
itself (the :class:`~repro.cluster.migration.MigrationExecutor` does).

Hot-leaf detection combines an absolute and a relative criterion: a leaf
is hot when its load exceeds ``split_load`` outright, or when it exceeds
``hot_factor`` times its siblings' mean while also clearing
``hot_min_load`` (so a 3-vs-1 ops blip on an idle system never triggers
a split).  Cold detection is the dual with hysteresis: an all-leaf
sibling set whose total load stays under ``merge_load`` — far below the
split thresholds — folds back into its parent.

**Cut selection** weighs every object by its decayed
update rate (:meth:`~repro.cluster.load.LoadMonitor.object_rates`) when
rates are available, falling back to plain object counts when they are
not (or when every object is dormant): the children of a split then
balance the *load* a leaf actually serves, not just its population —
hot objects, not just hot areas.  How far a leaf's load exceeds
``split_load`` also sets the **fan-out**: a leaf at ``k`` times the
threshold splits ``k`` ways in one plan (bounded by
``max_split_children``) — k-way bands along one axis, or a 2x2 quad
when that partitions the weight better — so an extreme hotspot reaches
its steady-state topology in one migration round instead of a cascade
of binary splits.  Cuts are placed at weighted quantiles, snapped to
midpoints between distinct coordinates so no object sits on a cut line.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

from repro.core.hierarchy import split_rects
from repro.geo import Rect

#: Split children are named ``<leaf>/<generation>.<i>`` so ids stay
#: unique across repeated split/merge cycles of the same area.
_GENERATIONS = 64


@dataclass(frozen=True, slots=True)
class SplitPlan:
    """Split one hot leaf into children along one or two axes.

    ``axis`` is ``"x"`` or ``"y"`` with ``len(cuts) >= 1`` ascending cut
    positions (k-way bands), or ``"quad"`` with ``cuts == (x_cut,
    y_cut)`` (2x2 quadrants).  ``children`` pair the reserved child ids
    with their areas in :func:`~repro.core.hierarchy.split_rects` order.
    """

    leaf_id: str
    axis: str  # "x", "y" or "quad"
    cuts: tuple[float, ...]
    children: tuple[tuple[str, Rect], ...]
    reason: str = ""

    @property
    def cut(self) -> float:
        """The first cut position (the only one for binary splits)."""
        return self.cuts[0]


@dataclass(frozen=True, slots=True)
class MergePlan:
    """Fold a cold all-leaf sibling set back into its parent."""

    parent_id: str
    children: tuple[str, ...]
    reason: str = ""


RebalancePlan = SplitPlan | MergePlan


@dataclass(frozen=True, slots=True)
class PlannerConfig:
    """Thresholds and knobs for one planner instance."""

    #: absolute ops/s beyond which a leaf splits unconditionally.
    split_load: float = 400.0
    #: relative trigger: load > hot_factor * sibling mean …
    hot_factor: float = 3.0
    #: … but only when the leaf also clears this floor.
    hot_min_load: float = 100.0
    #: total child ops/s under which an all-leaf sibling set merges.
    merge_load: float = 20.0
    #: seconds a freshly spawned leaf is exempt from merging (its decayed
    #: load window is still ramping up from zero).
    merge_cooldown: float = 15.0
    #: never merge sibling sets holding more objects than this.
    merge_max_objects: int = 100_000
    #: leaves with fewer objects than this never split.
    min_split_objects: int = 16
    #: leaves narrower than this (in meters, both axes) never split.
    min_leaf_side: float = 1.0
    #: upper bound on the children one split plan may create: the
    #: fan-out scales with load over ``split_load``, so an extreme
    #: hotspot splits k ways (or quad) in a single migration round.
    #: ``2`` gives strictly binary splits.
    max_split_children: int = 4
    #: fan-out margin: children are sized for ``split_load /
    #: split_headroom`` rather than ``split_load`` exactly — a split
    #: whose children land right at the threshold would re-trigger on
    #: the next load wiggle (k = ceil(rate/split_load) puts them there
    #: by construction, since the trigger fires just past the
    #: threshold).
    split_headroom: float = 1.25


class RebalancePlanner:
    """Emit split/merge plans for one service snapshot."""

    def __init__(self, config: PlannerConfig | None = None) -> None:
        self.config = config if config is not None else PlannerConfig()

    # -- entry point --------------------------------------------------------

    def plan(
        self,
        service,
        rates: dict[str, float],
        busy: frozenset[str] = frozenset(),
        object_rates: dict[str, float] | None = None,
        surge_rates: dict[str, float] | None = None,
    ) -> list[RebalancePlan]:
        """Plans for the current hierarchy under the given load rates.

        Splits are planned first; a merge is suppressed when any of its
        children is itself being split (the two would conflict within
        one rebalance round).  ``busy`` names servers an in-flight
        phased migration already touches (sources and reserved
        destination ids): they are skipped entirely, so overlapped
        rebalancing never double-plans a leaf mid-copy.
        ``object_rates`` (object id → decayed updates/s, typically
        :meth:`~repro.cluster.load.LoadMonitor.object_rates`) turns on
        rate-weighted cut costing; without it cuts balance object
        counts.  ``surge_rates`` (typically
        :meth:`~repro.cluster.load.LoadMonitor.instant_rates`) sizes
        each split's fan-out by the *undecayed* load when it exceeds
        the EWMA: the decayed rate triggers the split (sustained
        pressure), but at the moment it first crosses ``split_load`` it
        has — by construction — barely crossed it, so without the surge
        view every hotspot would look exactly 2-way.
        """
        plans: list[RebalancePlan] = []
        split_leaves: set[str] = set()
        reserved: set[str] = set(busy)
        for leaf_id in service.hierarchy.leaf_ids():
            if leaf_id in busy:
                continue
            split = self._split_plan(
                service, leaf_id, rates, frozenset(reserved), object_rates, surge_rates
            )
            if split is not None:
                plans.append(split)
                split_leaves.add(leaf_id)
                reserved.update(cid for cid, _ in split.children)
        plans.extend(self._merge_plans(service, rates, split_leaves, busy))
        return plans

    # -- splits ------------------------------------------------------------

    def _is_hot(self, service, leaf_id: str, rates: dict[str, float]) -> str | None:
        """A human-readable reason when the leaf is hot, else ``None``."""
        config = self.config
        rate = rates.get(leaf_id, 0.0)
        if rate > config.split_load:
            return f"load {rate:.0f}/s exceeds split_load {config.split_load:.0f}/s"
        siblings = service.hierarchy.siblings_of(leaf_id)
        if siblings and rate > config.hot_min_load:
            sibling_mean = sum(rates.get(s, 0.0) for s in siblings) / len(siblings)
            if rate > config.hot_factor * max(sibling_mean, 1e-9):
                return (
                    f"load {rate:.0f}/s is {config.hot_factor:.1f}x over "
                    f"sibling mean {sibling_mean:.0f}/s"
                )
        return None

    def _target_fanout(self, rate: float) -> int:
        """How many children the plan should create for this load level."""
        config = self.config
        if config.split_load <= 0.0:
            return max(2, config.max_split_children)
        k = math.ceil(rate * config.split_headroom / config.split_load)
        return max(2, min(config.max_split_children, k))

    def _split_plan(
        self,
        service,
        leaf_id: str,
        rates: dict[str, float],
        busy: frozenset[str] = frozenset(),
        object_rates: dict[str, float] | None = None,
        surge_rates: dict[str, float] | None = None,
    ) -> SplitPlan | None:
        reason = self._is_hot(service, leaf_id, rates)
        if reason is None:
            return None
        config = self.config
        server = service.servers[leaf_id]
        store = server.store
        if len(store.sightings) < config.min_split_objects:
            return None
        area = server.config.area
        if area.width < 2 * config.min_leaf_side and area.height < 2 * config.min_leaf_side:
            return None
        points = self._weighted_points(store, object_rates)
        sizing_rate = rates.get(leaf_id, 0.0)
        if surge_rates is not None:
            sizing_rate = max(sizing_rate, surge_rates.get(leaf_id, 0.0))
        k = self._target_fanout(sizing_rate)
        best = self._best_partition(area, points, k)
        if best is None:
            return None
        axis, cuts = best
        halves = split_rects(area, axis, cuts)
        names = self._child_ids(service, leaf_id, count=len(halves), reserved=busy)
        return SplitPlan(
            leaf_id=leaf_id,
            axis=axis,
            cuts=tuple(cuts),
            children=tuple(zip(names, halves)),
            reason=f"{reason}; {len(halves)}-way {axis} split",
        )

    def _weighted_points(
        self, store, object_rates: dict[str, float] | None
    ) -> list[tuple[float, float, float]]:
        """Every sighting as ``(x, y, weight)``.

        Weight is the object's decayed update rate when any tracked
        object carries one; otherwise every object weighs 1 and the
        partition balances counts (no rates given, or a uniformly
        dormant leaf, where rates carry no signal).
        """
        records = list(store.sightings.records())
        if object_rates:
            weighted = [
                (r.pos.x, r.pos.y, object_rates.get(r.object_id, 0.0))
                for r in records
            ]
            if any(w > 0.0 for _, _, w in weighted):
                return weighted
        return [(r.pos.x, r.pos.y, 1.0) for r in records]

    def _best_partition(
        self, area: Rect, points: list[tuple[float, float, float]], k: int
    ) -> tuple[str, list[float]] | None:
        """The (axis, cuts) partition with the lightest heaviest child.

        Candidates: k-way bands along each axis wide enough to slice,
        plus a quad (2x2 at the weighted medians) when the fan-out
        warrants four children and both axes can cut.  Scored by maximum
        child weight (the post-split hottest leaf), ties broken by
        maximum child object count (migration skew).
        """
        config = self.config
        min_side = config.min_leaf_side
        candidates: list[tuple[tuple[float, int], str, list[float]]] = []
        xs = [(x, w) for x, _, w in points]
        ys = [(y, w) for _, y, w in points]
        if area.width >= 2 * min_side:
            cuts = _quantile_cuts(xs, k, area.min_x, area.max_x, min_side)
            if cuts:
                candidates.append(
                    (_band_score(points, "x", cuts), "x", cuts)
                )
        if area.height >= 2 * min_side:
            cuts = _quantile_cuts(ys, k, area.min_y, area.max_y, min_side)
            if cuts:
                candidates.append(
                    (_band_score(points, "y", cuts), "y", cuts)
                )
        if k >= 4 and area.width >= 2 * min_side and area.height >= 2 * min_side:
            x_cut = _quantile_cuts(xs, 2, area.min_x, area.max_x, min_side)
            y_cut = _quantile_cuts(ys, 2, area.min_y, area.max_y, min_side)
            if x_cut and y_cut:
                cuts = [x_cut[0], y_cut[0]]
                candidates.append((_quad_score(points, cuts), "quad", cuts))
        if not candidates:
            return None
        score, axis, cuts = min(candidates, key=lambda c: c[0])
        return axis, cuts

    def _child_ids(
        self, service, leaf_id: str, count: int, reserved: frozenset[str] = frozenset()
    ) -> list[str]:
        """Fresh server ids for a split, unique across live *and* retired
        servers (a re-split after a merge must not reuse an alias) and
        across ids an in-flight migration has already reserved."""
        taken = service.servers.keys() | service.retired_servers.keys() | reserved
        for generation in itertools.count():
            if generation >= _GENERATIONS:
                raise RuntimeError(f"no free child ids under {leaf_id!r}")
            names = [f"{leaf_id}/{generation}.{i}" for i in range(count)]
            if not any(name in taken for name in names):
                return names
        raise AssertionError("unreachable")

    # -- merges ------------------------------------------------------------

    def _merge_plans(
        self,
        service,
        rates: dict[str, float],
        split_leaves: set[str],
        busy: frozenset[str] = frozenset(),
    ) -> list[MergePlan]:
        config = self.config
        plans: list[MergePlan] = []
        hierarchy = service.hierarchy
        now = service.loop.now
        for server_id in hierarchy.server_ids():
            node = hierarchy.config(server_id)
            if node.is_leaf or node.is_root or server_id in busy:
                continue
            child_ids = [ref.server_id for ref in node.children]
            if any(cid in split_leaves or cid in busy for cid in child_ids):
                continue
            if not all(hierarchy.config(cid).is_leaf for cid in child_ids):
                continue
            if any(
                getattr(service.servers[cid], "created_at", 0.0)
                > now - config.merge_cooldown
                for cid in child_ids
            ):
                continue
            total_rate = sum(rates.get(cid, 0.0) for cid in child_ids)
            if total_rate >= config.merge_load:
                continue
            total_objects = sum(
                len(service.servers[cid].store.sightings) for cid in child_ids
            )
            if total_objects > config.merge_max_objects:
                continue
            plans.append(
                MergePlan(
                    parent_id=server_id,
                    children=tuple(child_ids),
                    reason=(
                        f"total child load {total_rate:.0f}/s under "
                        f"merge_load {config.merge_load:.0f}/s"
                    ),
                )
            )
        return plans


# ---------------------------------------------------------------------------
# Weighted partition geometry
# ---------------------------------------------------------------------------


def _quantile_cuts(
    coords: list[tuple[float, float]],
    k: int,
    lo: float,
    hi: float,
    min_side: float,
) -> list[float]:
    """Up to ``k - 1`` ascending cuts at the weighted coordinate quantiles.

    Only positive-weight points pull the quantiles (a dormant object
    must not drag a cut away from the hot mass).  Each cut lands at the
    midpoint between two *distinct* coordinate values, so no point ever
    sits on a cut line and every band strictly separates weight; cuts
    violating the ``min_side`` band width (against the area edges or
    each other) are dropped.  Returns ``[]`` when no valid cut exists —
    e.g. the whole population stacked on one point.
    """
    aggregated: dict[float, float] = {}
    for value, weight in coords:
        if weight > 0.0:
            aggregated[value] = aggregated.get(value, 0.0) + weight
    if len(aggregated) < 2:
        return []
    values = sorted(aggregated)
    cumulative: list[float] = []
    running = 0.0
    for value in values:
        running += aggregated[value]
        cumulative.append(running)
    total = running
    cuts: list[float] = []
    floor = lo + min_side
    index = 0
    for j in range(1, k):
        target = total * j / k
        while index < len(values) and cumulative[index] < target - 1e-12:
            index += 1
        if index >= len(values) - 1:
            break  # no distinct coordinate left to cut before
        cut = (values[index] + values[index + 1]) / 2.0
        previous = cuts[-1] if cuts else lo
        # Strictly increasing even at min_side == 0 (a heavy point can
        # satisfy several quantile targets without advancing the index).
        if (
            cut <= previous
            or cut < max(floor, previous + min_side)
            or cut > hi - min_side
        ):
            continue
        cuts.append(cut)
    return cuts


def _band_score(
    points: list[tuple[float, float, float]], axis: str, cuts: list[float]
) -> tuple[float, int]:
    """(max band weight, max band count) for a k-way axis partition."""
    bands = len(cuts) + 1
    weights = [0.0] * bands
    counts = [0] * bands
    coord = 0 if axis == "x" else 1
    for point in points:
        band = bisect_right(cuts, point[coord])
        weights[band] += point[2]
        counts[band] += 1
    return max(weights), max(counts)


def _quad_score(
    points: list[tuple[float, float, float]], cuts: list[float]
) -> tuple[float, int]:
    """(max quadrant weight, max quadrant count) for a 2x2 partition."""
    x_cut, y_cut = cuts
    weights = [0.0] * 4
    counts = [0] * 4
    for x, y, w in points:
        quadrant = (1 if x >= x_cut else 0) + (2 if y >= y_cut else 0)
        weights[quadrant] += w
        counts[quadrant] += 1
    return max(weights), max(counts)

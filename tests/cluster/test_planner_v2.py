"""Planner edge cases: rate weighting, k-way fan-out, a clock-free copy."""

import random

import pytest

from repro.cluster import (
    LoadMonitor,
    MigrationExecutor,
    PlannerConfig,
    RebalancePlanner,
    SplitPlan,
)
from repro.core.hierarchy import split_rects
from repro.errors import ConfigurationError
from repro.geo import Point, Rect
from repro.model import SightingRecord
from repro.sim import elastic
from repro.sim.scenario import table2_service


def place(svc, leaf_id, positions, prefix="p"):
    leaf = svc.servers[leaf_id]
    oids = []
    for i, pos in enumerate(positions):
        oid = f"{prefix}-{i}"
        leaf.store.register(SightingRecord(oid, 0.0, pos, 10.0), 25.0, 100.0, "t", now=0.0)
        path = svc.hierarchy.path_to_root(leaf_id)
        for below, above in zip(path, path[1:]):
            svc.servers[above].visitors.insert_forward(oid, below)
        oids.append(oid)
    return oids


def binary_planner(**overrides) -> RebalancePlanner:
    return RebalancePlanner(
        PlannerConfig(split_load=10.0, max_split_children=2, **overrides)
    )


class TestRateWeightedCuts:
    def test_uniformly_hot_leaf_matches_count_weighting(self):
        """When every object is equally hot, rate weighting changes
        nothing: the weighted cut lands where the count cut does."""
        svc, _ = table2_service(object_count=0)
        grid = [
            Point(40.0 + 70.0 * (i % 10), 40.0 + 70.0 * (i // 10)) for i in range(100)
        ]
        oids = place(svc, "root.0", grid)
        by_count = binary_planner().plan(svc, {"root.0": 100.0})
        by_rate = binary_planner().plan(
            svc, {"root.0": 100.0}, object_rates={oid: 5.0 for oid in oids}
        )
        assert len(by_count) == len(by_rate) == 1
        assert by_count[0].axis == by_rate[0].axis
        assert by_count[0].cuts == pytest.approx(by_rate[0].cuts)

    def test_hot_minority_pulls_the_cut(self):
        """A handful of hot objects outweigh a dormant majority: the cut
        separates the hot mass, not the population median."""
        svc, _ = table2_service(object_count=0)
        hot = [Point(40.0 + i, 300.0) for i in range(10)]  # far west
        dormant = [Point(600.0 + (i % 10) * 10, 100.0 + i) for i in range(90)]  # east
        oids = place(svc, "root.0", hot + dormant)
        rates = {oid: (10.0 if i < 10 else 0.0) for i, oid in enumerate(oids)}
        plans = binary_planner().plan(svc, {"root.0": 100.0}, object_rates=rates)
        assert len(plans) == 1 and plans[0].axis == "x"
        # The count median sits deep inside the dormant cluster (x>600);
        # the rate-weighted cut splits the hot ten instead.
        assert plans[0].cut < 60.0

    def test_all_dormant_falls_back_to_counts(self):
        """Zero-rate objects carry no signal: the planner must behave
        exactly like the count-based one rather than refuse to split."""
        svc, _ = table2_service(object_count=0)
        west = [Point(50.0 + i % 5, 50.0 + i // 5) for i in range(30)]
        east = [Point(700.0 + i % 5, 50.0 + i // 5) for i in range(30)]
        oids = place(svc, "root.0", west + east)
        zero_rates = {oid: 0.0 for oid in oids}
        by_rate = binary_planner().plan(svc, {"root.0": 100.0}, object_rates=zero_rates)
        by_count = binary_planner().plan(svc, {"root.0": 100.0})
        assert len(by_rate) == 1
        assert by_rate[0].cuts == pytest.approx(by_count[0].cuts)


class TestKWayFanOut:
    def test_fanout_scales_with_load(self):
        svc, _ = table2_service(object_count=400)
        planner = RebalancePlanner(
            PlannerConfig(split_load=100.0, max_split_children=8, split_headroom=1.0)
        )
        plans = planner.plan(svc, {"root.0": 390.0})
        assert len(plans) == 1
        assert len(plans[0].children) == 4
        # The surge view sizes the fan-out up when the EWMA lags.
        plans = planner.plan(
            svc, {"root.0": 390.0}, surge_rates={"root.0": 790.0}
        )
        assert len(plans[0].children) == 8

    def test_kway_children_tile_the_leaf(self):
        svc, _ = table2_service(object_count=600)
        planner = RebalancePlanner(
            PlannerConfig(split_load=10.0, max_split_children=8)
        )
        plans = planner.plan(svc, {"root.0": 100.0})
        assert len(plans) == 1
        plan = plans[0]
        assert len(plan.children) >= 3
        area = svc.hierarchy.config("root.0").area
        total = sum(child_area.area for _, child_area in plan.children)
        assert total == pytest.approx(area.area)
        executor = MigrationExecutor(svc)
        executor.execute(plan)
        svc.hierarchy.validate()
        svc.check_consistency()

    def test_kway_split_with_one_empty_child_migrates_cleanly(self):
        """A hand-cut band holding no objects must still spawn: the empty
        leaf serves its (currently empty) area after cutover."""
        svc, homes = table2_service(object_count=0)
        west = [Point(30.0 + i % 10, 200.0 + i // 10) for i in range(40)]
        east = [Point(700.0 + i % 10, 200.0 + i // 10) for i in range(40)]
        place(svc, "root.0", west + east)
        area = svc.hierarchy.config("root.0").area
        cuts = (200.0, 500.0)  # middle band [200, 500) holds nothing
        children = tuple(
            (f"root.0/e.{i}", rect)
            for i, rect in enumerate(split_rects(area, "x", cuts))
        )
        plan = SplitPlan(
            leaf_id="root.0", axis="x", cuts=cuts, children=children, reason="test"
        )
        executor = MigrationExecutor(svc)
        report = executor.execute(plan)
        assert report.moved == 80
        empty_id = children[1][0]
        assert len(svc.servers[empty_id].store.sightings) == 0
        assert len(svc.servers[children[0][0]].store.sightings) == 40
        assert len(svc.servers[children[2][0]].store.sightings) == 40
        svc.hierarchy.validate()
        svc.check_consistency()
        assert svc.total_tracked() == 80
        # The empty leaf is live: an object moving into its band lands there.
        svc.settle()

    def test_degenerate_stacked_population_yields_no_plan(self):
        svc, _ = table2_service(object_count=0)
        place(svc, "root.0", [Point(10.0, 10.0)] * 40)
        planner = RebalancePlanner(
            PlannerConfig(split_load=10.0, max_split_children=8)
        )
        assert planner.plan(svc, {"root.0": 1000.0}) == []

    def test_zero_min_leaf_side_never_duplicates_cuts(self):
        """A heavy point satisfying several quantile targets must not
        emit the same cut twice (min_leaf_side=0 disables the spacing
        guard, so strict monotonicity has to hold on its own)."""
        svc, _ = table2_service(object_count=0)
        heavy = [Point(100.0, 375.0)] * 30  # one stacked heavy column
        spread = [Point(200.0 + i * 10.0, 375.0) for i in range(10)]
        place(svc, "root.0", heavy + spread)
        planner = RebalancePlanner(
            PlannerConfig(
                split_load=10.0, max_split_children=8, min_leaf_side=0.0
            )
        )
        plans = planner.plan(svc, {"root.0": 100.0})
        assert len(plans) == 1
        cuts = plans[0].cuts
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        MigrationExecutor(svc).execute(plans[0])
        svc.hierarchy.validate()
        svc.check_consistency()


class TestSplitRects:
    def test_axis_bands(self):
        area = Rect(0, 0, 100, 50)
        bands = split_rects(area, "x", [25.0, 75.0])
        assert bands == [
            Rect(0, 0, 25, 50),
            Rect(25, 0, 75, 50),
            Rect(75, 0, 100, 50),
        ]

    def test_quad(self):
        area = Rect(0, 0, 100, 100)
        quads = split_rects(area, "quad", [40.0, 60.0])
        assert quads == [
            Rect(0, 0, 40, 60),
            Rect(40, 0, 100, 60),
            Rect(0, 60, 40, 100),
            Rect(40, 60, 100, 100),
        ]

    def test_invalid_cuts_rejected(self):
        area = Rect(0, 0, 100, 100)
        with pytest.raises(ConfigurationError):
            split_rects(area, "x", [75.0, 25.0])  # not ascending
        with pytest.raises(ConfigurationError):
            split_rects(area, "x", [150.0])  # escapes the area
        with pytest.raises(ConfigurationError):
            split_rects(area, "quad", [50.0])  # quad needs two cuts
        with pytest.raises(ConfigurationError):
            split_rects(area, "z", [50.0])  # unknown axis

    def test_with_split_k_round_trip(self):
        svc, _ = table2_service(object_count=0)
        h = svc.hierarchy
        h2 = h.with_split_k("root.0", "quad", (200.0, 300.0), ["a", "b", "c", "d"])
        assert h2.epoch == h.epoch + 1
        assert sorted(ref.server_id for ref in h2.config("root.0").children) == [
            "a",
            "b",
            "c",
            "d",
        ]
        with pytest.raises(ConfigurationError):
            h.with_split_k("root.0", "x", (375.0,), ["only-one-id", "x", "y"])


class TestObjectRateWindow:
    def test_rates_fold_and_decay(self):
        svc, _ = table2_service(object_count=8)
        monitor = LoadMonitor(half_life=1.0)
        monitor.sample(svc, 0.0)
        monitor.record_object_updates(["a", "a", "b"])
        monitor.sample(svc, 1.0)
        assert monitor.object_rate("a") == pytest.approx(2.0)
        assert monitor.object_rate("b") == pytest.approx(1.0)
        assert monitor.object_rate("missing") == 0.0
        # One idle interval decays by the half-life factor.
        monitor.sample(svc, 2.0)
        assert monitor.object_rate("a") == pytest.approx(1.0)
        # Long dormancy drops the entry entirely (bounded memory).
        for step in range(3, 30):
            monitor.sample(svc, float(step))
        assert monitor.object_rates() == {}

    def test_update_listener_feeds_monitor(self):
        svc, homes = table2_service(object_count=40)
        monitor = LoadMonitor(half_life=5.0)
        svc.set_update_listener(monitor.record_object_updates)
        monitor.sample(svc, svc.loop.now)
        oid, agent = next(iter(homes.items()))
        pos = svc.servers[agent].config.area.center
        obj = svc.new_tracked_object(oid, entry_server=agent)
        obj.agent = agent
        svc.run(obj.report(pos))
        monitor.sample(svc, svc.loop.now + 1.0)
        assert monitor.object_rate(oid) > 0.0


class _JumpingClock:
    """Stands in for the ``time`` module inside :mod:`repro.sim.elastic`:
    every reading jumps forward by a random step from 1 µs to 100 s."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._now = 0.0

    def perf_counter(self) -> float:
        self._now += 10.0 ** self._rng.uniform(-6.0, 2.0)
        return self._now


class TestClockIndependence:
    """No wall-clock reading steers a decision: with a clock that jumps
    at random, an elastic scenario splits, copies, cuts over and merges
    exactly as with the real one.  Only its ``timing`` sub-dict moves."""

    @pytest.mark.parametrize(
        "workload",
        [elastic.festival_surge_workload, elastic.hot_object_skew_workload],
        ids=["festival_surge", "hot_object_skew"],
    )
    def test_a_jumping_clock_changes_nothing_but_timing(self, workload, monkeypatch):
        def untimed():
            result = elastic.run_scenario(workload(objects=600, ticks=16, seed=1))
            assert result["splits"] >= 1  # a migration was copied and cut over
            return {key: value for key, value in result.items() if key != "timing"}

        expected = untimed()
        monkeypatch.setattr(elastic, "time", _JumpingClock(seed=7))
        assert untimed() == expected


class TestRateMassSeeding:
    def test_split_seeds_children_by_rate_mass_not_counts(self):
        """After a rate-weighted split, the dormant-heavy child must not
        inherit the hot minority's load."""
        svc, _ = table2_service(object_count=0)
        hot = [Point(40.0 + i, 300.0) for i in range(10)]
        dormant = [Point(600.0 + i % 10 * 10.0, 100.0 + i) for i in range(90)]
        oids = place(svc, "root.0", hot + dormant)
        monitor = LoadMonitor(half_life=5.0)
        monitor.sample(svc, 0.0)
        monitor.record_object_updates([oid for oid in oids[:10] for _ in range(10)])
        monitor.sample(svc, 1.0)
        monitor._rates["root.0"] = 100.0  # pretend the leaf EWMA converged
        plans = binary_planner().plan(
            svc, {"root.0": 100.0}, object_rates=monitor.object_rates()
        )
        assert len(plans) == 1 and plans[0].cut < 60.0
        executor = MigrationExecutor(svc, monitor=monitor)
        report = executor.execute(plans[0])
        west_child, east_child = (cid for cid, _ in plans[0].children)
        # The weighted cut halves the hot mass (5 hot west; 5 hot + 90
        # dormant east), so each child inherits half the leaf's load.
        # Count-based seeding would have handed the east child 95% of it.
        assert monitor.rates().get(west_child, 0.0) == pytest.approx(50.0)
        assert monitor.rates().get(east_child, 0.0) == pytest.approx(50.0)
        assert report.moved == 100

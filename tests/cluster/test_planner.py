"""Tests for hot/cold detection and cut-line selection."""

from repro.cluster import MergePlan, MigrationExecutor, PlannerConfig, RebalancePlanner, SplitPlan
from repro.geo import Point
from repro.model import SightingRecord
from repro.sim.scenario import table2_service


def place(svc, leaf_id: str, positions, prefix="p"):
    """Register extra objects directly at a leaf store."""
    leaf = svc.servers[leaf_id]
    for i, pos in enumerate(positions):
        oid = f"{prefix}-{i}"
        leaf.store.register(SightingRecord(oid, 0.0, pos, 10.0), 25.0, 100.0, "t", now=0.0)
        path = svc.hierarchy.path_to_root(leaf_id)
        for below, above in zip(path, path[1:]):
            svc.servers[above].visitors.insert_forward(oid, below)


class TestHotDetection:
    def test_absolute_threshold_triggers(self):
        svc, _ = table2_service(object_count=200)
        planner = RebalancePlanner(PlannerConfig(split_load=100.0))
        plans = planner.plan(svc, {"root.0": 150.0})
        assert any(isinstance(p, SplitPlan) and p.leaf_id == "root.0" for p in plans)

    def test_relative_threshold_needs_floor(self):
        svc, _ = table2_service(object_count=200)
        planner = RebalancePlanner(
            PlannerConfig(split_load=1000.0, hot_factor=3.0, hot_min_load=50.0)
        )
        # 10x over siblings but below the floor: not hot.
        assert planner.plan(svc, {"root.0": 40.0, "root.1": 4.0}) == []
        # Same skew above the floor: hot.
        plans = planner.plan(svc, {"root.0": 80.0, "root.1": 8.0})
        assert [p.leaf_id for p in plans if isinstance(p, SplitPlan)] == ["root.0"]

    def test_balanced_load_does_not_split(self):
        svc, _ = table2_service(object_count=200)
        planner = RebalancePlanner(PlannerConfig(split_load=1000.0))
        rates = {leaf: 300.0 for leaf in svc.hierarchy.leaf_ids()}
        assert planner.plan(svc, rates) == []

    def test_too_few_objects_blocks_split(self):
        svc, _ = table2_service(object_count=8)  # ~2 objects per leaf
        planner = RebalancePlanner(PlannerConfig(split_load=10.0, min_split_objects=16))
        assert planner.plan(svc, {"root.0": 1000.0}) == []


class TestCutSelection:
    def test_cut_separates_skewed_mass(self):
        svc, _ = table2_service(object_count=0)
        # Populate root.0 (area [0,750]^2) with a cluster in the far west
        # and a matching cluster in the far east: a good x-cut separates
        # them evenly; any y-cut would be lopsided at the same positions.
        west = [Point(50.0 + i % 10, 40.0 + i // 10) for i in range(30)]
        east = [Point(700.0 + i % 10, 40.0 + i // 10) for i in range(30)]
        place(svc, "root.0", west + east)
        # Pinned to binary splits: this test is about the *cut line*, so
        # the k-way fan-out (covered by the planner-v2 tests) is off.
        planner = RebalancePlanner(
            PlannerConfig(split_load=10.0, max_split_children=2)
        )
        plans = planner.plan(svc, {"root.0": 100.0})
        assert len(plans) == 1
        plan = plans[0]
        assert isinstance(plan, SplitPlan)
        assert plan.axis == "x"
        assert 60.0 < plan.cut < 700.0
        low, high = (area for _, area in plan.children)
        # Children tile the leaf area.
        assert low.union_bounds(high) == svc.hierarchy.config("root.0").area
        assert low.intersection_area(high) == 0.0

    def test_degenerate_population_yields_no_plan(self):
        svc, _ = table2_service(object_count=0)
        # Every object on one point: no cut can move anything.
        place(svc, "root.0", [Point(10.0, 10.0)] * 40)
        planner = RebalancePlanner(PlannerConfig(split_load=10.0))
        assert planner.plan(svc, {"root.0": 100.0}) == []

    def test_child_ids_avoid_live_and_retired(self):
        svc, _ = table2_service(object_count=400)
        planner = RebalancePlanner(PlannerConfig(split_load=10.0))
        executor = MigrationExecutor(svc)
        plans = planner.plan(svc, {"root.0": 100.0})
        [executor.execute(plan) for plan in plans]
        first_ids = {cid for cid, _ in plans[0].children}
        # Merge back: children retire but their ids stay taken.
        executor.execute(MergePlan(parent_id="root.0", children=tuple(sorted(first_ids))))
        replans = planner.plan(svc, {"root.0": 100.0})
        assert len(replans) == 1
        new_ids = {cid for cid, _ in replans[0].children}
        assert new_ids.isdisjoint(first_ids)


class TestMergeDetection:
    def _split_then_cool(self, svc, planner, executor):
        plans = planner.plan(svc, {"root.0": 1000.0})
        [executor.execute(plan) for plan in plans]
        return plans[0]

    def test_cold_siblings_merge_after_cooldown(self):
        svc, _ = table2_service(object_count=400)
        planner = RebalancePlanner(
            PlannerConfig(split_load=100.0, merge_load=50.0, merge_cooldown=10.0)
        )
        executor = MigrationExecutor(svc)
        split = self._split_then_cool(svc, planner, executor)
        child_ids = tuple(cid for cid, _ in split.children)
        # Children were born at now=0; within the cooldown no merge...
        assert planner.plan(svc, {}) == []
        # ...after it, the cold sibling set folds back.
        svc.run(_sleep(svc, 11.0))
        plans = planner.plan(svc, {})
        merges = [p for p in plans if isinstance(p, MergePlan)]
        assert len(merges) == 1
        assert merges[0].parent_id == "root.0"
        assert set(merges[0].children) == set(child_ids)

    def test_loaded_siblings_do_not_merge(self):
        svc, _ = table2_service(object_count=400)
        planner = RebalancePlanner(
            PlannerConfig(split_load=100.0, merge_load=50.0, merge_cooldown=0.0)
        )
        executor = MigrationExecutor(svc)
        split = self._split_then_cool(svc, planner, executor)
        child_ids = [cid for cid, _ in split.children]
        rates = {cid: 40.0 for cid in child_ids}  # total 80 > merge_load
        assert [p for p in planner.plan(svc, rates) if isinstance(p, MergePlan)] == []

    def test_root_children_never_merge(self):
        svc, _ = table2_service(object_count=100)
        planner = RebalancePlanner(PlannerConfig(merge_load=1e9, merge_cooldown=0.0))
        assert planner.plan(svc, {}) == []


async def _sleep(svc, dt):
    await svc.loop.sleep(dt)

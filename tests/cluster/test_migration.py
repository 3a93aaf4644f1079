"""End-to-end tests for live split/merge migration."""

from repro.cluster import (
    MergePlan,
    MigrationExecutor,
    PlannerConfig,
    RebalancePlanner,
    SplitPlan,
)
from repro.core import messages as m
from repro.geo import Point, Rect
from repro.model import RangeQuery, SightingRecord
from repro.runtime.base import Endpoint
from repro.sim.scenario import table2_service


def force_split(svc, leaf_id="root.0"):
    """Split one leaf via the planner's cut selection."""
    planner = RebalancePlanner(PlannerConfig(split_load=1.0))
    executor = MigrationExecutor(svc)
    plans = planner.plan(svc, {leaf_id: 100.0})
    assert len(plans) == 1 and isinstance(plans[0], SplitPlan)
    report = executor.execute(plans[0])
    return executor, report


class TestSplit:
    def test_objects_and_paths_survive(self):
        svc, homes = table2_service(object_count=800, seed=3)
        before = svc.total_tracked()
        _, report = force_split(svc)
        assert svc.total_tracked() == before
        assert report.moved == sum(1 for h in homes.values() if h == "root.0")
        assert set(report.new_homes.values()) == set(report.spawned)
        svc.hierarchy.validate()
        svc.check_consistency()

    def test_split_leaf_becomes_interior_with_forward_refs(self):
        svc, homes = table2_service(object_count=300, seed=1)
        _, report = force_split(svc)
        parent = svc.servers["root.0"]
        assert not parent.is_leaf
        assert parent.store is None
        for oid, child in report.new_homes.items():
            assert parent.visitors.forward_ref(oid) == child

    def test_pos_query_reaches_migrated_objects(self):
        svc, homes = table2_service(object_count=300, seed=2)
        _, report = force_split(svc)
        oid = next(iter(report.new_homes))
        for entry in svc.hierarchy.leaf_ids():
            descriptor = svc.pos_query(oid, entry_server=entry)
            assert descriptor is not None

    def test_stale_agent_update_is_forwarded_and_repoints(self):
        svc, homes = table2_service(object_count=300, seed=4)
        _, report = force_split(svc)
        oid = next(iter(report.new_homes))
        reporter = Reporter()
        svc.network.join(reporter)
        pos = svc.servers[report.new_homes[oid]].config.area.center
        # The device still believes the split leaf is its agent.
        res = svc.run(reporter.send_update("root.0", oid, pos))
        assert res.ok
        assert res.agent == report.new_homes[oid]

    def test_deregister_forwarded_through_split_leaf(self):
        svc, homes = table2_service(object_count=300, seed=5)
        _, report = force_split(svc)
        oid = next(iter(report.new_homes))
        reporter = Reporter()
        svc.network.join(reporter)
        res = svc.run(
            reporter.request(
                "root.0",
                m.DeregisterReq(
                    request_id=reporter.next_request_id(),
                    reply_to=reporter.address,
                    object_id=oid,
                ),
            )
        )
        assert res.ok
        assert svc.total_tracked() == 299

    def test_range_query_spans_new_children(self):
        svc, homes = table2_service(object_count=500, seed=6)
        force_split(svc)
        area = svc.hierarchy.root_area()
        answer = svc.range_query(
            area, req_acc=100.0, req_overlap=0.5,
            entry_server=svc.hierarchy.leaf_ids()[0],
        )
        assert len(answer.entries) == 500


class TestMerge:
    def _split_and_merge(self, svc):
        executor, report = force_split(svc)
        merge = MergePlan(parent_id="root.0", children=report.spawned)
        return executor, executor.execute(merge), report

    def test_round_trip_preserves_everything(self):
        svc, homes = table2_service(object_count=600, seed=7)
        _, merge_report, split_report = self._split_and_merge(svc)
        assert merge_report.moved == split_report.moved
        assert svc.total_tracked() == 600
        svc.hierarchy.validate()
        svc.check_consistency()
        parent = svc.servers["root.0"]
        assert parent.is_leaf
        assert len(parent.store.sightings) == split_report.moved

    def test_split_and_merge_keep_the_default_columnar_store(self):
        svc, _ = table2_service(object_count=300, seed=9)
        executor, split_report = force_split(svc)
        assert {svc.servers[c].store.backend for c in split_report.spawned} == {"columnar"}
        executor.execute(MergePlan(parent_id="root.0", children=split_report.spawned))
        assert svc.servers["root.0"].store.backend == "columnar"
        svc.check_consistency()

    def test_retired_children_forward_updates(self):
        svc, homes = table2_service(object_count=400, seed=8)
        _, merge_report, split_report = self._split_and_merge(svc)
        retired_id = split_report.spawned[0]
        assert retired_id in svc.retired_servers
        assert svc.retired_servers[retired_id].retired
        oid = next(iter(merge_report.new_homes))
        reporter = Reporter()
        svc.network.join(reporter)
        pos = svc.hierarchy.config("root.0").area.center
        # The device still addresses the merged-away child.
        res = svc.run(reporter.send_update(retired_id, oid, pos))
        assert res.ok
        assert res.agent == "root.0"

    def test_retired_children_forward_queries(self):
        svc, homes = table2_service(object_count=400, seed=9)
        _, merge_report, split_report = self._split_and_merge(svc)
        retired_id = split_report.spawned[1]
        oid = next(iter(merge_report.new_homes))
        # A client whose entry server was merged away still gets answers.
        descriptor = svc.pos_query(oid, entry_server=retired_id)
        assert descriptor is not None

    def test_resplit_after_merge_uses_fresh_ids(self):
        svc, homes = table2_service(object_count=600, seed=10)
        executor, merge_report, split_report = self._split_and_merge(svc)
        planner = RebalancePlanner(PlannerConfig(split_load=1.0))
        plans = planner.plan(svc, {"root.0": 100.0})
        assert len(plans) == 1
        new_ids = {cid for cid, _ in plans[0].children}
        assert new_ids.isdisjoint(set(split_report.spawned))
        executor.execute(plans[0])
        svc.hierarchy.validate()
        svc.check_consistency()
        assert svc.total_tracked() == 600


class TestInteriorEntryFanOut:
    def test_split_entry_server_still_evaluates_range(self):
        # A server reference held from before the split (e.g. an event
        # subscription) keeps answering range queries: the fan-out routes
        # through its own children instead of deadlocking.
        svc, homes = table2_service(object_count=400, seed=12)
        server = svc.servers["root.0"]
        force_split(svc)
        assert not server.is_leaf
        query = RangeQuery(Rect(0, 0, 1500, 1500), req_acc=100.0, req_overlap=0.5)
        (entries,) = svc.run(server.evaluate_range_many([query]))
        assert len(entries) == 400
        batched = svc.run(server.evaluate_range_many([query, query]))
        assert [len(r) for r in batched] == [400, 400]

    def test_split_entry_server_still_evaluates_local_range(self):
        svc, homes = table2_service(object_count=400, seed=13)
        server = svc.servers["root.0"]
        _, report = force_split(svc)
        area = svc.hierarchy.config(report.spawned[0]).area
        query = RangeQuery(area, req_acc=100.0, req_overlap=0.5)
        (entries,) = svc.run(server.evaluate_range_many([query]))
        expected = len(svc.servers[report.spawned[0]].store.range_query(query))
        assert len(entries) >= expected > 0


class TestMergedLeafSoftState:
    def test_merge_target_starts_soft_state_sweep(self):
        # An originally-interior server that becomes a leaf by merging
        # must start expiring lapsed sightings like any other leaf.
        from repro.core import LocationService, build_table2_hierarchy
        from repro.sim.scenario import populate

        svc = LocationService(
            build_table2_hierarchy(1500.0), sighting_ttl=50.0, sweep_interval=10.0
        )
        placements = [
            (f"o{i}", Point(10.0 + i * 30.0, 10.0 + i * 30.0)) for i in range(20)
        ]
        populate(svc, placements)
        executor, report = force_split(svc)
        executor.execute(MergePlan(parent_id="root.0", children=report.spawned))
        assert svc.servers["root.0"].is_leaf
        assert svc.total_tracked() == 20
        # No further updates: every sighting lapses within one TTL+sweep.
        svc.settle(max_time=100.0)
        assert len(svc.servers["root.0"].store.sightings) == 0


class TestCoverageDedupe:
    def test_duplicate_origin_coverage_counted_once(self):
        from repro.core.server import _BatchCollector

        class _FakeFuture:
            resolved = False

            def done(self):
                return self.resolved

            def set_result(self, value):
                self.resolved = True

        future = _FakeFuture()
        buckets = [{}, {}]
        west, east = Rect(0, 0, 6, 10), Rect(6, 0, 10, 10)
        collector = _BatchCollector(
            future, 0, [(0, Rect(0, 0, 10, 10)), (1, Rect(0, 0, 10, 5))], buckets, set()
        )
        collector.add([(0, [("a", None)], 60.0)], "leaf-1", west, 0)
        collector.add([(0, [("b", None)], 60.0)], "leaf-1", west, 0)  # forwarded dup
        assert collector.covered[0] == 60.0
        assert collector.open == {0, 1}
        assert set(buckets[0]) == {"a", "b"}  # entries still merge
        collector.add([(1, [], 50.0)], "leaf-1", west, 0)  # same origin, other item
        assert collector.covered == [60.0, 50.0]
        assert collector.open == {0} and not future.resolved
        collector.add([(0, [], 40.0)], "leaf-2", east, 0)
        assert not collector.open and future.resolved
        assert collector.origins == {"leaf-1", "leaf-2"}


class TestRecursiveSplit:
    def test_split_of_a_split_child(self):
        svc, homes = table2_service(object_count=1200, seed=11)
        executor, report = force_split(svc)
        hot_child = report.spawned[0]
        planner = RebalancePlanner(PlannerConfig(split_load=1.0))
        plans = planner.plan(svc, {hot_child: 100.0})
        assert plans and isinstance(plans[0], SplitPlan)
        executor.execute(plans[0])
        svc.hierarchy.validate()
        svc.check_consistency()
        assert svc.total_tracked() == 1200
        assert svc.hierarchy.height() == 4  # root → quadrant → half → quarter


class Reporter(Endpoint):
    """Minimal device stand-in for protocol-level assertions."""

    _counter = 0

    def __init__(self):
        type(self)._counter += 1
        super().__init__(f"test-reporter-{type(self)._counter}")

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

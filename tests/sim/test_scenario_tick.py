"""Tests for the batched simulation tick and workload coalescing (PR 1)."""

import pytest

from repro.geo import Rect
from repro.model import RangeQuery
from repro.protocols.update_policies import DistancePolicy
from repro.sim import MobilitySimulation, WorkloadGenerator, WorkloadSpec, coalesce_updates
from repro.sim.scenario import DistributedHarness, table2_service


class TestMobilitySimulation:
    def test_tick_moves_every_walker(self):
        sim = MobilitySimulation.table1(object_count=50, index_kind="linear", seed=1)
        stats = sim.tick(2.0)
        assert stats.moved == 50
        assert stats.reported == 50
        assert stats.suppressed == 0
        assert stats.time == 2.0
        for oid, walker in sim.walkers.items():
            assert sim.store.sightings.get(oid).pos == walker.position

    def test_store_queries_follow_the_batch(self):
        sim = MobilitySimulation.table1(
            object_count=80, index_kind="quadtree", area_side=500.0, seed=2
        )
        sim.run(5, dt=2.0)
        entries = sim.store.range_query(
            RangeQuery(Rect(0, 0, 500, 500), req_acc=100.0, req_overlap=0.1)
        )
        assert {oid for oid, _ in entries} == set(sim.walkers)

    @pytest.mark.parametrize("kind", ["quadtree", "linear"])
    def test_all_index_kinds_stay_consistent(self, kind):
        sim = MobilitySimulation.table1(
            object_count=40, index_kind=kind, area_side=800.0, seed=3
        )
        sim.run(8, dt=3.0)
        index_items = dict(sim.store.sightings.positions_in_rect(Rect(0, 0, 800, 800)))
        assert index_items == {
            oid: walker.position for oid, walker in sim.walkers.items()
        }

    def test_policies_suppress_reports(self):
        sim = MobilitySimulation.table1(
            object_count=30,
            index_kind="linear",
            seed=4,
            policy_factory=lambda: DistancePolicy(threshold=1e6),
        )
        first = sim.tick(1.0)  # first tick: everyone reports once
        later = sim.tick(1.0)
        assert first.reported == 30
        assert later.reported == 0
        assert later.suppressed == 30

    def test_tick_time_accumulates(self):
        sim = MobilitySimulation.table1(object_count=5, seed=5)
        stats = sim.run(4, dt=0.5)
        assert [s.time for s in stats] == [0.5, 1.0, 1.5, 2.0]
        assert sim.ticks == stats


class TestCoalesceUpdates:
    def test_groups_updates_by_leaf_and_keeps_queries(self):
        svc, homes = table2_service(object_count=60)
        gen = WorkloadGenerator(
            svc.hierarchy, list(homes), homes, WorkloadSpec(), seed=7
        )
        ops = list(gen.operations(200))
        updates_by_leaf, others = coalesce_updates(ops)
        n_updates = sum(len(v) for v in updates_by_leaf.values())
        assert n_updates + len(others) == 200
        assert all(op.kind != "update" for op in others)
        for leaf, moves in updates_by_leaf.items():
            for oid, pos in moves:
                assert homes[oid] == leaf
                assert svc.hierarchy.config(leaf).area.contains_point(pos)

    def test_operation_batches_match_stream(self):
        svc, homes = table2_service(object_count=30)
        spec = WorkloadSpec()
        a = WorkloadGenerator(svc.hierarchy, list(homes), homes, spec, seed=9)
        b = WorkloadGenerator(svc.hierarchy, list(homes), homes, spec, seed=9)
        stream = list(a.operations(100))
        batches = list(b.operation_batches(100, batch_size=17))
        assert [op for batch in batches for op in batch] == stream
        assert [len(batch) for batch in batches] == [17, 17, 17, 17, 17, 15]

    def test_batch_size_must_be_positive(self):
        svc, homes = table2_service(object_count=5)
        gen = WorkloadGenerator(svc.hierarchy, list(homes), homes, WorkloadSpec(), seed=1)
        with pytest.raises(ValueError):
            list(gen.operation_batches(10, batch_size=0))


class TestBatchedWorkloadRunner:
    def test_counters_and_store_state(self):
        svc, homes = table2_service(object_count=120)
        harness = DistributedHarness(svc, homes)
        gen = WorkloadGenerator(
            svc.hierarchy, list(homes), homes, WorkloadSpec(), seed=11
        )
        counters = harness.run_workload_batched(gen, operations=250, batch_size=40)
        assert counters["updates"] + counters["queries"] == 250
        assert counters["updates"] > 0
        assert counters["update_batches"] <= 7 * len(svc.hierarchy.leaf_ids())
        svc.check_consistency()
        # Every tracked object still has exactly one sighting somewhere.
        assert svc.total_tracked() == 120

    def test_every_in_area_apply_is_counted(self):
        svc, homes = table2_service(object_count=120)
        gen = WorkloadGenerator(
            svc.hierarchy, list(homes), homes, WorkloadSpec(), seed=11
        )
        counters = DistributedHarness(svc, homes).run_workload_batched(
            gen, operations=250, batch_size=40
        )
        leaves = [svc.servers[leaf] for leaf in svc.hierarchy.leaf_ids()]
        assert counters["updates"] > 0
        assert sum(leaf.stats.updates for leaf in leaves) == counters["updates"]

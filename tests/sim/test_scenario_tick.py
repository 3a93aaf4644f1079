"""Tests for the batched simulation tick (PR 1)."""

import pytest

from repro.geo import Rect
from repro.model import RangeQuery
from repro.protocols.update_policies import DistancePolicy
from repro.sim import MobilitySimulation


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
        index_items = dict(sim.store.sightings.positions_in_rects([Rect(0, 0, 800, 800)])[0])
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

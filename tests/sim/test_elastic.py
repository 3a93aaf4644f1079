"""Tests for the elastic harness, hotspot workloads and scenarios."""

import random

import pytest

from repro.cluster import PlannerConfig, RebalancePlanner
from repro.cluster.migration import INITIAL_CHUNK
from repro.geo import Point, Rect
from repro.sim.elastic import (
    ElasticHarness,
    _advance,
    _populate,
    _fresh_service,
    festival_surge_scenario,
    flash_crowd_scenario,
)
from repro.sim.workload import HotspotSpec, hotspot_positions, wavefront_area

ROOT = Rect(0, 0, 1500, 1500)


class TestHotspotWorkload:
    def test_fraction_lands_in_hotspot(self):
        spec = HotspotSpec(area=Rect(100, 100, 300, 300), fraction=0.75)
        placements = hotspot_positions(ROOT, spec, 200, seed=1)
        inside = sum(1 for _, p in placements if spec.area.contains_point(p))
        assert inside >= 150  # the 150 hot ones, plus strays
        assert len(placements) == 200
        assert len({oid for oid, _ in placements}) == 200

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            HotspotSpec(area=ROOT, fraction=1.5)

    def test_wavefront_slides_and_clamps(self):
        west = wavefront_area(ROOT, 0.0, 300.0)
        mid = wavefront_area(ROOT, 0.5, 300.0)
        east = wavefront_area(ROOT, 1.0, 300.0)
        assert west.min_x == ROOT.min_x
        assert east.max_x == ROOT.max_x
        assert west.max_x - west.min_x == pytest.approx(300.0)
        assert west.min_x < mid.min_x < east.min_x
        for band in (west, mid, east):
            assert ROOT.contains_rect(band)
        with pytest.raises(ValueError):
            wavefront_area(ROOT, 1.2, 300.0)


class TestElasticHarness:
    def _harness(self, placements):
        svc = _fresh_service()
        homes = _populate(svc, placements)
        return svc, ElasticHarness(svc, homes)

    def test_fast_and_protocol_paths(self):
        rng = random.Random(0)
        placements = [(f"o{i}", Point(100.0 + i, 100.0)) for i in range(20)]
        svc, harness = self._harness(placements)
        # In-leaf jitter: all fast.
        counts = harness.apply_reports([(f"o{i}", Point(110.0 + i, 105.0)) for i in range(20)])
        assert counts == {"fast": 20, "protocol": 0}
        # One object crosses into another quadrant: protocol + handover.
        counts = harness.apply_reports([("o0", Point(1200.0, 1200.0))])
        assert counts == {"fast": 0, "protocol": 1}
        assert harness.homes["o0"] == "root.3"
        svc.check_consistency()
        assert svc.total_tracked() == 20

    def test_rebalance_cuts_over_only_finished_copies(self):
        """One kind of round: a plan begins in one rebalance and is cut
        over by the first rebalance after its copy has been staged by
        advance_migrations; the topology never changes in between."""
        rng = random.Random(1)
        count = INITIAL_CHUNK + 44  # two copy chunks
        placements = [
            (f"o{i}", Point(rng.uniform(100, 600), rng.uniform(100, 600)))
            for i in range(count)
        ]
        svc = _fresh_service()
        harness = ElasticHarness(
            svc,
            _populate(svc, placements),
            planner=RebalancePlanner(PlannerConfig(split_load=20.0)),
        )
        for _ in range(2):  # ~count updates/s on root.0
            harness.apply_reports([(oid, Point(p.x + 1, p.y)) for oid, p in placements])
            svc.run(_advance(svc, 1.0))
            harness.sample()
        leaves = svc.hierarchy.leaf_ids()
        assert harness.rebalance() == []  # begun, not cut over
        (migration,) = harness.executor.in_flight
        assert harness.advance_migrations() == INITIAL_CHUNK
        assert harness.rebalance() == []  # copy unfinished: stays in flight
        assert harness.executor.in_flight == [migration]
        assert svc.hierarchy.leaf_ids() == leaves
        assert harness.advance_migrations() == 44
        (report,) = harness.rebalance()
        assert report.moved == count
        assert harness.split_count() == 1
        assert set(harness.homes.values()) == set(report.spawned)
        assert harness.verify(expected_tracked=count)["lost_sightings"] == 0

    def test_verify_reports_zero_loss(self):
        placements = [(f"o{i}", Point(50.0 + i, 60.0)) for i in range(10)]
        svc, harness = self._harness(placements)
        result = harness.verify(expected_tracked=10)
        assert result["lost_sightings"] == 0
        assert result["consistency_ok"] and result["hierarchy_valid"]


class TestFlashCrowdScenario:
    def test_small_elastic_run_rebalances_and_loses_nothing(self):
        result = flash_crowd_scenario(
            objects=300, ticks=10, elastic=True, rebalance_every=2, measure_ticks=4,
            seed=2,
        )
        assert result["invariants"]["lost_sightings"] == 0
        assert result["splits"] >= 1
        assert result["leaf_count_final"] > 4
        assert result["migrated_objects"] > 0

    def test_static_run_keeps_topology(self):
        result = flash_crowd_scenario(
            objects=200, ticks=6, elastic=False, measure_ticks=3, seed=3
        )
        assert result["splits"] == 0
        assert result["leaf_count_final"] == 4
        assert result["invariants"]["lost_sightings"] == 0


class TestFestivalSurgeScenario:
    def test_overlapped_run_never_stalls_and_loses_nothing(self):
        result = festival_surge_scenario(
            objects=700,
            ticks=16,
            elastic=True,
            rebalance_every=2,
            measure_ticks=6,
            seed=4,
        )
        assert result["splits"] >= 1
        assert result["topology_epoch"] >= 1
        assert result["invalidations_sent"] >= 1  # §6.5 broadcast at cutover
        assert result["dual_writes"] > 0  # traffic flowed mid-window
        assert result["invariants"]["lost_sightings"] == 0
        assert result["invariants"]["consistency_ok"]

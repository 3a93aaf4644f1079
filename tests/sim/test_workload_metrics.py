"""Tests for workload generation, metrics and calibration."""

import pytest

from repro.core import build_table2_hierarchy
from repro.geo import Point
from repro.runtime import NetworkStats
from repro.sim.calibration import calibrate, default_cost_model
from repro.sim.metrics import (
    LatencyRecorder,
    MessageLedger,
    ThroughputMeter,
    format_table,
    percentile,
)
from repro.sim.workload import WorkloadGenerator, WorkloadSpec, scatter_objects


class TestWorkloadSpec:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadSpec(update_fraction=0.9, pos_query_fraction=0.9,
                         range_query_fraction=0.0, nn_query_fraction=0.0)

    def test_locality_bounds(self):
        with pytest.raises(ValueError):
            WorkloadSpec(locality=1.5)


class TestWorkloadGenerator:
    def make_generator(self, spec=None, seed=0):
        hierarchy = build_table2_hierarchy()
        placements = scatter_objects(hierarchy, 200, seed=1)
        homes = {oid: hierarchy.leaf_for_point(pos) for oid, pos in placements}
        return hierarchy, WorkloadGenerator(
            hierarchy, [oid for oid, _ in placements], homes,
            spec or WorkloadSpec(), seed=seed,
        )

    def test_empty_objects_rejected(self):
        hierarchy = build_table2_hierarchy()
        with pytest.raises(ValueError):
            WorkloadGenerator(hierarchy, [], {}, WorkloadSpec())

    def test_mix_fractions_respected(self):
        _, gen = self.make_generator(seed=5)
        counts = {}
        n = 4000
        for op in gen.operations(n):
            counts[op.kind] = counts.get(op.kind, 0) + 1
        assert counts["update"] / n == pytest.approx(0.6, abs=0.05)
        assert counts["pos_query"] / n == pytest.approx(0.25, abs=0.05)
        assert counts["range_query"] / n == pytest.approx(0.1, abs=0.03)
        assert counts["nn_query"] / n == pytest.approx(0.05, abs=0.03)

    def test_updates_stay_local_to_home_leaf(self):
        hierarchy, gen = self.make_generator()
        for op in gen.operations(500):
            if op.kind == "update":
                area = hierarchy.config(op.entry_leaf).area
                assert area.contains_point(op.pos)
                assert gen.object_home_leaf[op.object_id] == op.entry_leaf

    def test_high_locality_prefers_local_objects(self):
        hierarchy, gen_local = self.make_generator(
            spec=WorkloadSpec(locality=1.0), seed=2
        )
        local_hits = 0
        total = 0
        for op in gen_local.operations(2000):
            if op.kind == "pos_query":
                total += 1
                if gen_local.object_home_leaf[op.object_id] == op.entry_leaf:
                    local_hits += 1
        assert total > 0
        assert local_hits / total > 0.95

    def test_zero_locality_spreads_targets(self):
        hierarchy, gen = self.make_generator(spec=WorkloadSpec(locality=0.0), seed=3)
        remote = 0
        total = 0
        for op in gen.operations(2000):
            if op.kind == "pos_query":
                total += 1
                if gen.object_home_leaf[op.object_id] != op.entry_leaf:
                    remote += 1
        # With 4 leaves and uniform targets, ~75% should be remote.
        assert remote / total == pytest.approx(0.75, abs=0.08)

    def test_range_areas_inside_root(self):
        hierarchy, gen = self.make_generator()
        root = hierarchy.root_area()
        for op in gen.operations(500):
            if op.kind == "range_query":
                assert root.contains_rect(op.area)

    def test_deterministic(self):
        _, gen1 = self.make_generator(seed=11)
        _, gen2 = self.make_generator(seed=11)
        ops1 = [op for op in gen1.operations(100)]
        ops2 = [op for op in gen2.operations(100)]
        assert ops1 == ops2


class TestScatterObjects:
    def test_count_and_bounds(self):
        hierarchy = build_table2_hierarchy()
        placements = scatter_objects(hierarchy, 100, seed=0)
        assert len(placements) == 100
        root = hierarchy.root_area()
        assert all(root.contains_point(pos) for _, pos in placements)

    def test_deterministic(self):
        hierarchy = build_table2_hierarchy()
        assert scatter_objects(hierarchy, 10, seed=5) == scatter_objects(
            hierarchy, 10, seed=5
        )


class TestMetrics:
    def test_percentile_edge_cases(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.99) == 3.0
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0
        assert percentile([1.0, 3.0], 0.5) == 2.0  # interpolation

    def test_latency_recorder_summary(self):
        recorder = LatencyRecorder()
        for v in [0.001, 0.002, 0.003, 0.004, 0.010]:
            recorder.record("op", v)
        summary = recorder.summary("op")
        assert summary.count == 5
        assert summary.mean == pytest.approx(0.004)
        assert summary.p50 == pytest.approx(0.003)
        assert summary.maximum == 0.010

    def test_empty_summary(self):
        assert LatencyRecorder().summary("never").count == 0

    def test_throughput_meter(self):
        meter = ThroughputMeter()
        meter.begin(10.0)
        for t in range(1, 11):
            meter.note(10.0 + t)
        assert meter.per_second() == pytest.approx(1.0)

    def test_throughput_empty(self):
        assert ThroughputMeter().per_second() == 0.0

    def test_format_table(self):
        text = format_table(
            "Demo", ("op", "value"), [("updates", "41494/s"), ("queries", "384615/s")]
        )
        assert "Demo" in text
        assert "41494/s" in text
        lines = text.splitlines()
        assert len(lines) == 5


class TestMessageLedger:
    """Per-type traffic deltas over one runtime's ``NetworkStats``."""

    @staticmethod
    def _sent(stats, name, count=1):
        stats.messages_sent += count
        stats.by_type[name] = stats.by_type.get(name, 0) + count

    def test_delta_is_relative_to_the_snapshot(self):
        stats = NetworkStats()
        self._sent(stats, "UpdateReq", 5)
        ledger = MessageLedger(stats)
        assert ledger.delta() == {}
        self._sent(stats, "UpdateReq", 2)
        self._sent(stats, "RangeQueryReq", 1)
        assert ledger.delta() == {"UpdateReq": 2, "RangeQueryReq": 1}

    def test_lanes_split_protocol_and_topology_traffic(self):
        stats = NetworkStats()
        ledger = MessageLedger(stats)
        self._sent(stats, "UpdateBatchReq", 3)
        self._sent(stats, "HandoverBatchReq", 1)
        self._sent(stats, "RangeQueryReq", 7)
        self._sent(stats, "CacheInvalidate", 2)
        assert ledger.protocol_delta() == {"UpdateBatchReq": 3, "HandoverBatchReq": 1}
        assert ledger.protocol_messages() == 4
        assert ledger.topology_messages() == 2

    def test_rebase_restarts_every_counter(self):
        stats = NetworkStats()
        ledger = MessageLedger(stats)
        self._sent(stats, "UpdateReq", 4)
        stats.messages_dropped += 2
        stats.faults_injected += 1
        assert ledger.dropped_deliveries() == 2
        assert ledger.faults_injected() == 1
        ledger.rebase()
        assert ledger.delta() == {}
        assert ledger.dropped_deliveries() == 0
        assert ledger.faults_injected() == 0

    def test_fault_layer_counters_are_separate_from_sends(self):
        stats = NetworkStats()
        ledger = MessageLedger(stats)
        stats.messages_duplicated += 3
        stats.frames_corrupted += 2
        stats.messages_quarantined += 1
        stats.stale_epoch_rejected += 4
        assert ledger.duplicated_deliveries() == 3
        assert ledger.frames_corrupted() == 2
        assert ledger.messages_quarantined() == 1
        assert ledger.stale_epoch_rejected() == 4
        assert ledger.delta() == {} and ledger.protocol_messages() == 0

    def test_summary_mean_in_milliseconds(self):
        recorder = LatencyRecorder()
        recorder.record("op", 0.002)
        recorder.record("op", 0.004)
        assert recorder.summary("op").mean_ms == pytest.approx(3.0)


class TestCalibration:
    def test_calibrate_produces_positive_costs(self):
        result = calibrate(object_count=300, operations=300)
        assert result.insert_cost > 0
        assert result.update_cost > 0
        assert result.pos_query_cost > 0
        assert result.range_query_cost > 0
        # Hash lookups must be cheaper than spatial-index searches.
        assert result.pos_query_cost < result.range_query_cost

    def test_cost_model_mapping(self):
        model = default_cost_model()
        from repro.core import messages as m
        from repro.model import SightingRecord

        update = m.UpdateReq(
            request_id="r", reply_to="c",
            sighting=SightingRecord("o", 0.0, Point(0, 0), 10.0),
        )
        pos = m.PosQueryReq(request_id="r", reply_to="c", object_id="o")
        assert model.service_time(update) > model.service_time(pos)

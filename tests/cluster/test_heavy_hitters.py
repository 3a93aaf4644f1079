"""Count-min + top-K heavy-hitter sketch, and its LoadMonitor lane.

The sketch bounds per-object rate tracking at 10^6 objects: the
count-min table never under-counts (every estimate is an upper bound on
the true count), the top-K candidate set finds the genuinely heavy
keys, and the ``object_rate_mode="sketch"`` monitor folds only those
into its EWMAs so memory stays constant no matter the population.
"""

import numpy as np
import pytest

from repro.cluster import HeavyHitterSketch
from repro.cluster.load import LoadMonitor


@pytest.fixture
def sketch():
    return HeavyHitterSketch(width=1024, depth=4, top_k=8)


class TestCountMinProperties:
    def test_estimates_never_undercount(self, sketch):
        truth = {}
        for i in range(200):
            key = f"k{i % 37}"
            sketch.add(key)
            truth[key] = truth.get(key, 0) + 1
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_light_traffic_is_exact(self, sketch):
        # Far fewer keys than buckets: collisions are unlikely enough
        # that conservative update keeps estimates exact.
        for i in range(8):
            for _ in range(i + 1):
                sketch.add(f"k{i}")
        assert {f"k{i}": i + 1 for i in range(8)} == {
            key: sketch.estimate(key) for key in (f"k{i}" for i in range(8))
        }

    def test_heavy_hitters_surface_the_top_keys(self, sketch):
        for i in range(32):
            sketch.add(f"cold{i}")
        for _ in range(50):
            sketch.add("hot-a")
        for _ in range(30):
            sketch.add("hot-b")
        hitters = sketch.heavy_hitters()
        assert len(hitters) <= 8
        assert hitters["hot-a"] >= 50
        assert hitters["hot-b"] >= 30
        assert hitters["hot-a"] >= hitters["hot-b"]

    def test_candidate_set_stays_bounded(self, sketch):
        for i in range(10_000):
            sketch.add(f"k{i}")
        assert len(sketch.heavy_hitters()) <= 8
        # The internal candidate dict is pruned at 2 * top_k.
        assert len(sketch._top) <= 16

    def test_reset_clears_counts_but_not_geometry(self, sketch):
        sketch.add("a", 5)
        before = sketch.memory_bytes()
        sketch.reset()
        assert sketch.estimate("a") == 0
        assert sketch.total == 0
        assert sketch.heavy_hitters() == {}
        assert sketch.memory_bytes() == before

    def test_memory_is_geometry_not_population(self):
        small = HeavyHitterSketch(width=1024, depth=4, top_k=8)
        for i in range(50_000):
            small.add(f"k{i}")
        assert small.memory_bytes() == small.depth * small.width * 8

    def test_width_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            HeavyHitterSketch(width=1000)


class TestVectorizedLane:
    def test_add_array_matches_scalar_totals(self):
        vec = HeavyHitterSketch(width=2048, depth=4, top_k=8)
        scalar = HeavyHitterSketch(width=2048, depth=4, top_k=8)
        slots = np.array([7] * 500 + [42] * 300 + list(range(100, 160)), dtype=np.int64)
        labels = {i: f"slot-{i}" for i in set(slots.tolist())}
        vec.add_array(slots, lambda pos: [labels[int(slots[p])] for p in pos])
        for s in slots.tolist():
            scalar.add(labels[s])
        assert vec.total == scalar.total == len(slots)
        hitters = vec.heavy_hitters()
        assert hitters["slot-7"] >= 500
        assert hitters["slot-42"] >= 300
        # Heavy keys dominate the candidate set in both lanes.
        assert set(scalar.heavy_hitters()) >= {"slot-7", "slot-42"}

    def test_duplicate_heavy_key_cannot_crowd_out_others(self):
        sketch = HeavyHitterSketch(width=2048, depth=4, top_k=4)
        # One key occupies 90% of the batch; the dedup in add_array must
        # still let the other heavy key into the candidate set.
        slots = np.array([1] * 900 + [2] * 90 + [3] * 10, dtype=np.int64)
        sketch.add_array(slots, lambda pos: [f"s{int(slots[p])}" for p in pos])
        hitters = sketch.heavy_hitters()
        assert hitters["s1"] >= 900
        assert hitters["s2"] >= 90


class TestLoadMonitorSketchMode:
    def make_monitor(self):
        return LoadMonitor(
            half_life=10.0,
            object_rate_mode="sketch",
            sketch_width=1024,
            sketch_depth=4,
            sketch_top_k=8,
        )

    def sample(self, monitor, now):
        from types import SimpleNamespace

        monitor.sample(SimpleNamespace(servers={}, retired_servers={}), now)

    def test_rates_memory_bounded_under_huge_population(self):
        monitor = self.make_monitor()
        self.sample(monitor, 0.0)
        for tick in range(3):
            for i in range(20_000):
                monitor.record_object_updates([f"obj-{tick * 20_000 + i}"])
            for _ in range(40):
                monitor.record_object_updates(["hot"])
            self.sample(monitor, (tick + 1) * 10.0)
        footprint = monitor.object_rate_footprint()
        assert footprint["tracked_rates"] <= 16
        assert footprint["pending_entries"] <= 16
        assert footprint["sketch_bytes"] == 4 * 1024 * 8
        assert monitor.object_rate("hot") > 0.0

    def test_exact_mode_rejects_array_lane(self):
        monitor = LoadMonitor(half_life=10.0)
        with pytest.raises(ValueError):
            monitor.record_object_updates_array([1, 2, 3], lambda pos: [])

    def test_heavy_object_rate_approximates_exact_mode(self):
        sketchy = self.make_monitor()
        exact = LoadMonitor(half_life=10.0)
        self.sample(sketchy, 0.0)
        self.sample(exact, 0.0)
        updates = ["hot"] * 60 + [f"cold-{i}" for i in range(30)]
        for monitor in (sketchy, exact):
            monitor.record_object_updates(updates)
            self.sample(monitor, 10.0)
        assert sketchy.object_rate("hot") == pytest.approx(
            exact.object_rate("hot"), rel=0.05
        )

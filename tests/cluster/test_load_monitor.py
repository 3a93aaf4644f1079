"""Tests for the decayed sliding-window load monitor."""

import pytest

from repro.cluster import LoadMonitor
from repro.cluster.load import ops_of
from repro.sim.scenario import table2_service


def bump_updates(svc, leaf_id: str, count: int) -> None:
    svc.servers[leaf_id].stats.updates += count


class TestOpsOf:
    def test_counts_updates_and_queries(self):
        svc, _ = table2_service(object_count=5)
        server = svc.servers["root.0"]
        base = ops_of(server)
        server.stats.updates += 3
        server.stats.pos_queries_served += 2
        server.stats.handovers_admitted += 1
        assert ops_of(server) == base + 6


class TestLoadMonitor:
    def test_half_life_must_be_positive(self):
        with pytest.raises(ValueError):
            LoadMonitor(half_life=0.0)

    def test_first_sample_has_zero_rate(self):
        svc, _ = table2_service(object_count=10)
        monitor = LoadMonitor()
        samples = monitor.sample(svc, now=0.0)
        assert set(samples) == set(svc.servers)
        assert all(s.rate == 0.0 for s in samples.values())

    def test_steady_load_converges_to_instant_rate(self):
        svc, _ = table2_service(object_count=10)
        monitor = LoadMonitor(half_life=2.0)
        monitor.sample(svc, now=0.0)
        rate = 0.0
        for tick in range(1, 30):
            bump_updates(svc, "root.0", 100)
            rate = monitor.sample(svc, now=float(tick))["root.0"].rate
        assert rate == pytest.approx(100.0, rel=0.01)

    def test_idle_load_decays_by_half_life(self):
        svc, _ = table2_service(object_count=10)
        monitor = LoadMonitor(half_life=4.0)
        monitor.sample(svc, now=0.0)
        for tick in range(1, 20):
            bump_updates(svc, "root.0", 50)
            monitor.sample(svc, now=float(tick))
        hot = monitor.rates().get("root.0", 0.0)
        # One idle half-life halves the rate (one big idle step).
        monitor.sample(svc, now=19.0 + 4.0)
        assert monitor.rates().get("root.0", 0.0) == pytest.approx(hot / 2.0, rel=0.01)

    def test_index_sizes_reported_for_leaves(self):
        svc, homes = table2_service(object_count=40)
        monitor = LoadMonitor()
        samples = monitor.sample(svc, now=0.0)
        per_leaf = sum(s.index_size for s in samples.values())
        assert per_leaf == 40
        assert samples["root"].index_size == 0  # interior server

    def test_delta_tracks_ops_between_samples(self):
        svc, _ = table2_service(object_count=10)
        monitor = LoadMonitor()
        monitor.sample(svc, now=0.0)
        bump_updates(svc, "root.1", 7)
        samples = monitor.sample(svc, now=1.0)
        assert samples["root.1"].delta == 7
        assert samples["root.2"].delta == 0

    def test_same_instant_resample_keeps_rates(self):
        svc, _ = table2_service(object_count=10)
        monitor = LoadMonitor(half_life=2.0)
        monitor.sample(svc, now=0.0)
        bump_updates(svc, "root.0", 100)
        monitor.sample(svc, now=1.0)
        before = monitor.rates().get("root.0", 0.0)
        assert before > 0.0
        # A zero-dt resample must not wipe the window.
        samples = monitor.sample(svc, now=1.0)
        assert monitor.rates().get("root.0", 0.0) == before
        assert samples["root.0"].rate == before
        # The next real sample still sees the interval's ops.
        bump_updates(svc, "root.0", 100)
        assert monitor.sample(svc, now=2.0)["root.0"].delta == 100

    def test_new_and_removed_servers(self):
        svc, _ = table2_service(object_count=10)
        monitor = LoadMonitor()
        monitor.sample(svc, now=0.0)
        # Simulate a retirement: the server disappears from the live map.
        svc.servers.pop("root.3")
        samples = monitor.sample(svc, now=1.0)
        assert "root.3" not in samples
        assert monitor.rates().get("root.3", 0.0) == 0.0


class TestRateSeeding:
    """Split / merge cutovers hand the parent's window to the new leaves."""

    @staticmethod
    def _warm(svc, monitor, leaf_id, per_tick=100, ticks=30):
        monitor.sample(svc, now=0.0)
        for tick in range(1, ticks):
            bump_updates(svc, leaf_id, per_tick)
            monitor.sample(svc, now=float(tick))
        return monitor.rates()[leaf_id]

    def test_seed_split_divides_the_rate_by_weight(self):
        svc, _ = table2_service(object_count=10)
        monitor = LoadMonitor(half_life=2.0)
        hot = self._warm(svc, monitor, "root.0")
        monitor.seed_split("root.0", {"c0": 3.0, "c1": 1.0})
        rates = monitor.rates()
        assert "root.0" not in rates
        assert rates["c0"] == pytest.approx(0.75 * hot)
        assert rates["c1"] == pytest.approx(0.25 * hot)

    def test_seed_split_without_weight_drops_the_rate(self):
        svc, _ = table2_service(object_count=10)
        monitor = LoadMonitor(half_life=2.0)
        self._warm(svc, monitor, "root.0")
        monitor.seed_split("root.0", {"c0": 0.0})
        assert "root.0" not in monitor.rates()
        assert "c0" not in monitor.rates()

    def test_seed_merge_sums_children_into_the_parent(self):
        svc, _ = table2_service(object_count=10)
        monitor = LoadMonitor(half_life=2.0)
        monitor.sample(svc, now=0.0)
        bump_updates(svc, "root.1", 30)
        bump_updates(svc, "root.2", 10)
        monitor.sample(svc, now=1.0)
        before = monitor.rates()
        monitor.seed_merge("merged", ["root.1", "root.2"])
        after = monitor.rates()
        assert "root.1" not in after and "root.2" not in after
        assert after["merged"] == pytest.approx(before["root.1"] + before["root.2"])
        assert before["root.1"] > before["root.2"] > 0.0


class TestForgetServer:
    def test_restarted_counters_read_as_a_fresh_server(self):
        svc, _ = table2_service(object_count=10)
        monitor = LoadMonitor(half_life=2.0)
        monitor.sample(svc, now=0.0)
        bump_updates(svc, "root.0", 500)
        monitor.sample(svc, now=1.0)
        # A crash re-homes the leaf: its counters restart below the baseline.
        monitor.forget_server("root.0")
        svc.servers["root.0"].stats.updates = 0
        sample = monitor.sample(svc, now=2.0)["root.0"]
        assert sample.delta == 0
        assert sample.rate == 0.0
        assert monitor.instant_rates()["root.0"] == 0.0


class TestInstantRates:
    def test_instant_rate_is_the_last_interval_only(self):
        svc, _ = table2_service(object_count=10)
        monitor = LoadMonitor(half_life=10.0)
        monitor.sample(svc, now=0.0)
        assert monitor.instant_rates()["root.0"] == 0.0
        bump_updates(svc, "root.0", 40)
        monitor.sample(svc, now=2.0)
        # The surge registers in full, the decayed rate only in part.
        assert monitor.instant_rates()["root.0"] == pytest.approx(20.0)
        assert 0.0 < monitor.rates()["root.0"] < 20.0
        monitor.sample(svc, now=4.0)
        assert monitor.instant_rates()["root.0"] == 0.0

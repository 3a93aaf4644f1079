"""Smoke tests for the chaos scenario family (small, fast parameters).

The full-size runs are ``BENCH_PR6.json``, written by
``scripts/bench_smoke.py`` and gated by ``scripts/bench_check.py``;
these keep the scenario code honest on every test run — each fault
class must recover with zero lost and zero duplicated sightings, with
chaos actually injected, and the same seed must give the same payload.
"""

import pytest

from repro.sim.chaos import (
    chaos_benchmark_payload,
    leaf_crash_scenario,
    migration_crash_scenario,
    partition_scenario,
)

SMALL = dict(objects=120, seed=0)


def assert_exact_recovery(result):
    assert result["lost_sightings"] == 0
    assert result["duplicated_sightings"] == 0
    assert result["epoch_consistent"]
    assert result["invariants"]["consistency_ok"]
    assert result["invariants"]["hierarchy_valid"]
    assert result["faults_injected"] >= 1  # chaos actually ran


class TestLeafCrashScenario:
    def test_merge_recovery_retracks_everything(self):
        result = leaf_crash_scenario(warm_ticks=1, post_ticks=3, **SMALL)
        assert_exact_recovery(result)
        assert result["strategy"] == "merge"
        assert result["new_home"] == "root.0"
        assert result["replayed_records"] > 0
        assert result["detection"]["attempts"] >= 1
        assert result["recovery_ticks"] is not None
        assert result["recovery_ticks"] <= 3

    def test_restart_strategy_recovers_in_place(self):
        result = leaf_crash_scenario(
            warm_ticks=1, post_ticks=3, strategy="restart", **SMALL
        )
        assert_exact_recovery(result)
        assert result["new_home"] == result["victim"]
        assert result["moved"] == 0


class TestPartitionScenario:
    def test_heal_reconverges_with_measured_staleness(self):
        result = partition_scenario(
            warm_ticks=1, partition_ticks=2, heal_ticks=4, **SMALL
        )
        assert_exact_recovery(result)
        assert result["severed_links"] == result["healed_links"] > 0
        assert result["reconvergence_ticks"] is not None
        assert result["reconvergence_ticks"] <= 4
        # The partition really isolated traffic: protocol messages
        # crossing the cut were dropped by the injector — and every
        # sighting still survived to the final count.
        assert result["dropped_deliveries"] > 0


class TestMigrationCrashScenario:
    @pytest.mark.parametrize("phase", ["copy", "dual_write"])
    def test_pre_cutover_crash_discards_and_reruns(self, phase):
        result = migration_crash_scenario(
            phase=phase, warm_ticks=1, post_ticks=3, **SMALL
        )
        assert_exact_recovery(result)
        assert result["epoch_unchanged_by_discard"]
        assert not result["rolled_forward"]
        assert result["rerun_moved"] > 0
        assert result["recovery_ticks"] is not None

    def test_cutover_crash_rolls_forward(self):
        result = migration_crash_scenario(
            phase="cutover", warm_ticks=1, post_ticks=3, **SMALL
        )
        assert_exact_recovery(result)
        assert result["rolled_forward"]
        assert result["replayed_records"] > 0
        assert result["epoch_after_recovery"] > result["epoch_before"]

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            migration_crash_scenario(phase="warp")


class TestBenchmarkPayload:
    def test_payload_aggregates_all_scenarios(self):
        payload = chaos_benchmark_payload(objects=120, seed=0)
        assert set(payload["scenarios"]) == {
            "leaf_crash_midtick",
            "partition_heal",
            "migration_crash_copy",
            "migration_crash_dual_write",
            "migration_crash_cutover",
        }
        assert payload["zero_lost_all_scenarios"]
        assert payload["zero_duplicated_all_scenarios"]
        assert payload["epoch_consistent_all_scenarios"]
        assert payload["max_recovery_ticks"] is not None
        assert payload["reconvergence_ticks"] is not None
        assert payload["faults_injected_total"] >= 5

    def test_same_seed_same_payload_in_one_process(self):
        # No wall clock and no rng shared between runs may leak into
        # the scenarios' tick loop.
        assert chaos_benchmark_payload(objects=120) == chaos_benchmark_payload(
            objects=120
        )

"""Rate-weighted k-way planning — rounds to balance on hot objects.

The planner weighs every object by its decayed update rate (sampled
from the batched update lane) and sizes the split fan-out by how far
the leaf's load exceeds the threshold (k-way bands or a quad in one
plan), so a leaf whose load is a few hot objects (rather than a hot
area) settles in one or two migration rounds.  The count-based binary
planner this replaced needed 9 on the same workload (the frozen
``v1_count_binary`` lane of the committed ``BENCH_PR5.json``).  This
bench runs the hot-object-skew scenario — a quarter of one leaf's
population packs into a corner block and reports every tick while the
dormant majority barely does — and asserts:

* ``rounds_to_balance_v2 <= 4`` — half of those 9 rounds;
* ``migration_throughput_ratio >= 0.8`` — the k-way migration plus
  budget-paced copy chunks keep reports/s during migration within 20%
  of steady state;
* zero lost sightings and hierarchy-wide consistency.

Emits the machine-readable ``BENCH_PR5.json`` artifact (see
``benchreport.write_bench_json``); ``scripts/bench_smoke.py --skip-pr1
--skip-pr2 --skip-pr4`` regenerates it without pytest.
"""

import pytest

from benchreport import report, write_bench_json
from repro.sim.elastic import planner_v2_benchmark_payload
from repro.sim.metrics import format_table

OBJECTS = 1_200
SEED = 0


@pytest.mark.benchmark(group="planner-v2")
def test_rate_weighted_kway_planning(benchmark):
    payload = benchmark.pedantic(
        lambda: planner_v2_benchmark_payload(objects=OBJECTS, seed=SEED),
        rounds=1,
        iterations=1,
    )
    payload["generated_by"] = "benchmarks/bench_planner_v2.py"
    write_bench_json("BENCH_PR5.json", payload)

    for lane, result in payload["lanes"].items():
        assert result["invariants"]["lost_sightings"] == 0, lane
        assert result["invariants"]["consistency_ok"], lane
        assert result["invariants"]["hierarchy_valid"], lane
        assert result["splits"] >= 1, lane  # the hotspot must rebalance
    assert payload["rounds_to_balance_v2"] <= 4
    assert payload["migration_throughput_ratio"] is not None
    assert payload["migration_throughput_ratio"] >= 0.8
    assert payload["zero_lost_all_lanes"]

    rows = []
    for lane, result in payload["lanes"].items():
        rows.append(
            (
                lane,
                result["rounds_to_balance"],
                result["splits"],
                result["merges"],
                result["migration_throughput_ratio"] or "-",
                result["leaf_count_final"],
                result["copy_chunk_final"],
                result["invariants"]["lost_sightings"],
            )
        )
    report(
        format_table(
            "Rate-weighted k-way planning (hot-object skew)",
            (
                "lane",
                "rounds",
                "splits",
                "merges",
                "mig/steady",
                "leaves",
                "chunk",
                "lost",
            ),
            rows,
        )
    )

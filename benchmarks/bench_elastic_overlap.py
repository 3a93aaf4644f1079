"""Zero-stall elasticity — phased migration under sustained churn.

Every rebalance overlaps live traffic: the copy stages in chunks across
ticks, a buffered dual-write mirror keeps the staged stores in sync,
and the cutover is pointer surgery plus a topology-epoch bump and a
§6.5 invalidation broadcast.  Nothing drains the event loop.  This
bench runs the festival-surge scenario — a crowd stampeding between
stages, so splits and merges never stop being needed while every crowd
member reports every tick — and asserts:

* ``migration_throughput_ratio >= 0.8`` — reports/s through ticks with
  a migration in flight stays within 20% of steady state;
* zero lost sightings and hierarchy-wide consistency.

Emits the machine-readable ``BENCH_PR4.json`` artifact (see
``benchreport.write_bench_json``); ``scripts/bench_smoke.py --skip-pr1
--skip-pr2`` regenerates it without pytest.
"""

import pytest

from benchreport import report, write_bench_json
from repro.sim.elastic import zero_stall_benchmark_payload
from repro.sim.metrics import format_table

OBJECTS = 1_200
SEED = 0


@pytest.mark.benchmark(group="elastic-overlap")
def test_zero_stall_rebalancing(benchmark):
    payload = benchmark.pedantic(
        lambda: zero_stall_benchmark_payload(objects=OBJECTS, seed=SEED),
        rounds=1,
        iterations=1,
    )
    payload["generated_by"] = "benchmarks/bench_elastic_overlap.py"
    write_bench_json("BENCH_PR4.json", payload)

    for lane, result in payload["lanes"].items():
        assert result["invariants"]["lost_sightings"] == 0, lane
        assert result["invariants"]["consistency_ok"], lane
        assert result["invariants"]["hierarchy_valid"], lane
        assert result["splits"] >= 1, lane  # the workload must rebalance
    assert payload["migration_throughput_ratio"] is not None
    assert payload["migration_throughput_ratio"] >= 0.8
    assert payload["zero_lost_all_lanes"]

    rows = []
    for lane, result in payload["lanes"].items():
        rows.append(
            (
                lane,
                result["migration_tick_count"],
                result["migration_throughput_ratio"] or "-",
                result["copy_chunk_final"],
                result["splits"],
                result["merges"],
                result["topology_epoch"],
                result["invalidations_sent"],
                result["invariants"]["lost_sightings"],
            )
        )
    report(
        format_table(
            "Zero-stall elasticity (festival surge): phased migration",
            (
                "lane",
                "mig ticks",
                "mig/steady",
                "chunk",
                "splits",
                "merges",
                "epoch",
                "invals",
                "lost",
            ),
            rows,
        )
    )

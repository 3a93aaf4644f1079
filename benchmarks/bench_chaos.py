"""Chaos suite — fault injection, crash-exact recovery, reconvergence.

The paper argues availability structurally: visitor records persist,
sightings are soft state rebuilt "as position update requests come in".
This bench injects every fault class the chaos layer models against the
table-2 service and measures the recovery the argument promises:

* **leaf crash mid-tick** — half a tick lands, the leaf dies, backoff
  probes detect it, and the region merge-recovers with WAL replay;
* **partition + heal** — one leaf severed from every other server
  (devices keep their local leaf), measuring the §6.5 cache-staleness
  window during the partition and the reconvergence ticks after heal;
* **migration-phase crashes** — the source killed during the copy and
  dual-write phases (recovery discards at an unchanged epoch, then
  re-runs cleanly), a fresh child killed after cutover (recovery rolls
  the staged WAL forward).

Acceptance (gated by ``scripts/bench_check.py``): zero lost and zero
duplicated sightings in **every** scenario, consistent epochs,
``max_recovery_ticks <= 3`` and ``reconvergence_ticks <= 3``.

Emits the machine-readable ``BENCH_PR6.json`` artifact (see
``benchreport.write_bench_json``); ``scripts/bench_smoke.py --skip-pr1
--skip-pr2 --skip-pr4 --skip-pr5`` regenerates it without
pytest.
"""

import pytest

from benchreport import report, write_bench_json
from repro.sim.chaos import chaos_benchmark_payload
from repro.sim.metrics import format_table

OBJECTS = 400
SEED = 0


@pytest.mark.benchmark(group="chaos")
def test_chaos_recovery(benchmark):
    payload = benchmark.pedantic(
        lambda: chaos_benchmark_payload(objects=OBJECTS, seed=SEED),
        rounds=1,
        iterations=1,
    )
    payload["generated_by"] = "benchmarks/bench_chaos.py"
    write_bench_json("BENCH_PR6.json", payload)

    for name, result in payload["scenarios"].items():
        assert result["lost_sightings"] == 0, name
        assert result["duplicated_sightings"] == 0, name
        assert result["epoch_consistent"], name
        assert result["invariants"]["consistency_ok"], name
        assert result["invariants"]["hierarchy_valid"], name
        assert result["faults_injected"] >= 1, name  # chaos actually ran
    assert payload["zero_lost_all_scenarios"]
    assert payload["zero_duplicated_all_scenarios"]
    assert payload["epoch_consistent_all_scenarios"]
    assert payload["max_recovery_ticks"] is not None
    assert payload["max_recovery_ticks"] <= 3
    assert payload["reconvergence_ticks"] is not None
    assert payload["reconvergence_ticks"] <= 3

    rows = []
    for name, result in payload["scenarios"].items():
        detection = result.get("detection")
        rows.append(
            (
                name,
                result["faults_injected"],
                f"{detection['time_s']:.2f}s" if detection else "-",
                result.get("recovery_ticks", "-"),
                result.get("replayed_records", "-"),
                result["lost_sightings"],
                result["duplicated_sightings"],
                result["topology_epoch"],
            )
        )
    report(
        format_table(
            "Chaos suite: recovery per injected fault class",
            (
                "scenario",
                "faults",
                "detect",
                "rec ticks",
                "replayed",
                "lost",
                "dup",
                "epoch",
            ),
            rows,
        )
    )

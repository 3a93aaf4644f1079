"""Golden hashes: every scenario result is one value per seed.

Each case runs one scenario (or one ``BENCH_PR2/4/5`` producer) at seeds
0–4 and hashes its result minus every ``timing`` sub-dict, the
wall-clock numbers a result only reports, and minus the producers'
top-level copy of ``migration_throughput_ratio``: 16 hex characters of
sha256 over ``json.dumps(..., sort_keys=True)``.  A
lane that raises a ``LocationServiceError`` is pinned by its type and
message instead.  The tables are ``payload_goldens.json`` (scenarios)
and ``producer_goldens.json`` (producers) next to this file.  A change
that alters any scenario's behaviour regenerates them in the same diff,
so the diff shows which scenarios and seeds moved::

    PYTHONPATH=src python tests/sim/test_payload_goldens.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.errors import LocationServiceError
from repro.sim.byzantine import run_sim_byzantine_lane
from repro.sim.chaos import chaos_benchmark_payload, root_partition_scenario
from repro.sim.elastic import (
    commuter_rush_workload,
    elastic_benchmark_payload,
    festival_surge_workload,
    flash_crowd_workload,
    hot_object_skew_workload,
    planner_v2_benchmark_payload,
    run_scenario,
    zero_stall_benchmark_payload,
)

GOLDENS = pathlib.Path(__file__).with_name("payload_goldens.json")
PRODUCER_GOLDENS = GOLDENS.with_name("producer_goldens.json")
SEEDS = range(5)
#: Every elastic lane splits at least once at this population
#: (objects, ticks), every seed.
SMALL = (600, 16)

#: name → the case's result at a seed.
CASES = {
    "flash_crowd_static": lambda seed: run_scenario(
        flash_crowd_workload(*SMALL, seed), elastic=False
    ),
    "flash_crowd_elastic": lambda seed: run_scenario(flash_crowd_workload(*SMALL, seed)),
    "festival_surge": lambda seed: run_scenario(festival_surge_workload(*SMALL, seed)),
    "hot_object_skew": lambda seed: run_scenario(hot_object_skew_workload(*SMALL, seed)),
    "commuter_rush": lambda seed: run_scenario(commuter_rush_workload(1200, seed=seed)),
    "chaos_benchmark_payload": chaos_benchmark_payload,
    "root_partition_scenario": root_partition_scenario,
    "run_sim_byzantine_lane": run_sim_byzantine_lane,
    "elastic_benchmark_payload": elastic_benchmark_payload,
    "zero_stall_benchmark_payload": zero_stall_benchmark_payload,
    "planner_v2_benchmark_payload": planner_v2_benchmark_payload,
}
#: Cases whose golden must cover a migration.
MUST_SPLIT = {"flash_crowd_elastic", "festival_surge", "hot_object_skew", "commuter_rush"}
#: The BENCH_PR2/4/5 producers, hashed whole: the artifacts' own glue.
PRODUCERS = {
    "elastic_benchmark_payload",
    "zero_stall_benchmark_payload",
    "planner_v2_benchmark_payload",
}
#: commuter_rush splits only at smoke scale, about a second a seed (and
#: at its default 1000 objects not at seed 2, hence 1200); the producers
#: run the smoke scale too.
SLOW = {"commuter_rush"} | PRODUCERS


def table_of(name: str) -> pathlib.Path:
    return PRODUCER_GOLDENS if name in PRODUCERS else GOLDENS


def _untimed(value):
    if isinstance(value, dict):
        return {key: _untimed(item) for key, item in value.items() if key != "timing"}
    return value


def payload_hash(result: dict) -> str:
    """sha256 of ``result`` minus every ``timing`` and the top-level
    ``migration_throughput_ratio``, as sorted-key JSON; 16 hex."""
    untimed = _untimed(result)
    untimed.pop("migration_throughput_ratio", None)
    digest = hashlib.sha256(json.dumps(untimed, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def golden(name: str, seed: int) -> str:
    try:
        result = CASES[name](seed=seed)
    except LocationServiceError as exc:  # the raise itself is pinned
        return f"raises {type(exc).__name__}: {exc}"
    if name in MUST_SPLIT:
        assert result["splits"] >= 1, f"{name} seed {seed}: no migration covered"
    return payload_hash(result)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name",
    [pytest.param(name, marks=pytest.mark.slow) if name in SLOW else name for name in CASES],
)
def test_result_matches_its_golden(name, seed):
    assert golden(name, seed) == json.loads(table_of(name).read_text())[name][seed]


if __name__ == "__main__":
    for path in (GOLDENS, PRODUCER_GOLDENS):
        table = {
            name: [golden(name, seed) for seed in SEEDS]
            for name in CASES
            if table_of(name) == path
        }
        path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")

"""Golden hashes: every scenario result is one value per seed.

Each case runs one scenario at seeds 0–4 and hashes its result minus
the ``timing`` sub-dict, the wall-clock numbers a result only reports:
16 hex characters of sha256 over ``json.dumps(..., sort_keys=True)``.  A
lane that raises a ``LocationServiceError`` is pinned by its type and
message instead.  The table is ``payload_goldens.json`` next to this
file.  A change that alters any scenario's behaviour regenerates it in
the same diff, so the diff shows which scenarios and seeds moved::

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
    commuter_rush_scenario,
    festival_surge_scenario,
    flash_crowd_scenario,
    hot_object_skew_scenario,
)

GOLDENS = pathlib.Path(__file__).with_name("payload_goldens.json")
SEEDS = range(5)
#: Every elastic lane splits at least once at this population, every seed.
SMALL = {"objects": 600, "ticks": 16}

#: name → (scenario, keyword arguments).
CASES = {
    "flash_crowd_static": (flash_crowd_scenario, {"elastic": False, **SMALL}),
    "flash_crowd_elastic": (flash_crowd_scenario, SMALL),
    "festival_surge": (festival_surge_scenario, SMALL),
    "hot_object_skew": (hot_object_skew_scenario, SMALL),
    "commuter_rush": (commuter_rush_scenario, {"objects": 1200}),
    "chaos_benchmark_payload": (chaos_benchmark_payload, {}),
    "root_partition_scenario": (root_partition_scenario, {}),
    "run_sim_byzantine_lane": (run_sim_byzantine_lane, {}),
}
#: Cases whose golden must cover a migration.
MUST_SPLIT = {"flash_crowd_elastic", "festival_surge", "hot_object_skew", "commuter_rush"}
#: commuter_rush splits only at smoke scale, about a second a seed (and
#: at its default 1000 objects not at seed 2, hence 1200).
SLOW = {"commuter_rush"}


def payload_hash(result: dict) -> str:
    """sha256 of ``result`` minus ``timing``, as sorted-key JSON; 16 hex."""
    untimed = {key: value for key, value in result.items() if key != "timing"}
    digest = hashlib.sha256(json.dumps(untimed, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def golden(name: str, seed: int) -> str:
    scenario, kwargs = CASES[name]
    try:
        result = scenario(seed=seed, **kwargs)
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
    assert golden(name, seed) == json.loads(GOLDENS.read_text())[name][seed]


if __name__ == "__main__":
    table = {name: [golden(name, seed) for seed in SEEDS] for name in CASES}
    GOLDENS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")

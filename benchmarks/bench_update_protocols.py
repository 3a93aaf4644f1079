"""Ablation E — update-reporting policies ([15] / DOMINO [24]).

The paper's Section 6.2 deliberately uses the simplest distance-based
protocol and defers the comparison to [15].  This bench reproduces the
comparison on synthetic mobility: for each policy and mobility model,
the number of updates sent over 30 simulated minutes and the worst
server-side position error.

Expected shape: time-based reporting wastes updates when objects idle
and cannot bound the error; distance-based reporting bounds the error by
construction; dead reckoning sends far fewer updates on smooth motion at
a comparable bound.
"""

import pytest

from benchreport import report
from repro.geo import Rect
from repro.protocols import DeadReckoningPolicy, DistancePolicy, TimePolicy, simulate_policy
from repro.sim.metrics import format_table
from repro.sim.mobility import make_walkers

AREA = Rect(0, 0, 5_000, 5_000)
OFFERED_ACC = 25.0  # the Table-2 accuracy bound
SENSOR_ACC = 10.0  # a TrackedObject's default sensor
# The drift at which a device reports (Section 6.2): what the offer
# leaves beyond the sensor's own error.  Both rows that claim a bound run
# at it, so the distance row counts what a service device sends.
THRESHOLD = OFFERED_ACC - SENSOR_ACC
DURATION = 1_800.0
DT = 5.0
POPULATION = 20

POLICIES = {
    "time-based (30 s)": lambda: TimePolicy(interval=30.0),
    "distance-based (paper)": lambda: DistancePolicy(threshold=THRESHOLD),
    "dead reckoning": lambda: DeadReckoningPolicy(threshold=THRESHOLD),
}
MODELS = ["waypoint", "walk", "manhattan"]

_rows = []


@pytest.mark.parametrize("model", MODELS)
def test_policy_comparison(benchmark, model):
    trajectories = [
        walker.trajectory(DURATION, DT)
        for walker in make_walkers(model, POPULATION, AREA, seed=7)
    ]

    def run_all():
        outcome = {}
        for name, factory in POLICIES.items():
            updates = 0
            worst = 0.0
            for trajectory in trajectories:
                result = simulate_policy(factory(), trajectory)
                updates += result["updates"]
                worst = max(worst, result["max_deviation"])
            outcome[name] = (updates, worst)
        return outcome

    outcome = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for name, (updates, worst) in outcome.items():
        _rows.append((model, name, updates, f"{worst:.0f} m"))
    if model == MODELS[-1]:
        report(
            format_table(
                f"Ablation E — update protocols ({POPULATION} objects, 30 min, "
                f"{OFFERED_ACC:.0f} m offered, {SENSOR_ACC:.0f} m sensor: "
                f"{THRESHOLD:.0f} m threshold)",
                ("mobility", "policy", "updates sent", "worst error"),
                _rows,
            )
        )
    # Distance-based keeps the error near the bound; dead reckoning never
    # sends more updates than distance-based on these workloads.
    assert outcome["distance-based (paper)"][1] <= THRESHOLD + 1.5 * DT * 2.0
    assert outcome["dead reckoning"][0] <= outcome["distance-based (paper)"][0]

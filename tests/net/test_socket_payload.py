"""``BENCH_PR7``'s throughput gate sees a collapsed multi-process lane.

The lanes are stubbed: one scenario's processes lane collapses to 0
reports/s beside a healthy one, and ``min_throughput_ratio`` must read
0.0 — a ratio of zero is a measurement, not a missing value.
"""

from repro.net import scenario


def test_a_collapsed_lane_sets_the_min_throughput_ratio(monkeypatch):
    processes_lanes = iter([0.0, 400.0, 400.0])  # festival, commuter, loss

    def run_lane(workload, runtime, **options):
        rate = next(processes_lanes) if runtime == "processes" else 1000.0
        return {"reports_per_s": rate, "lost_sightings": 0}

    monkeypatch.setattr(scenario, "run_lane", run_lane)
    payload = scenario.socket_benchmark_payload(seed=0)
    ratios = {name: s["throughput_ratio"] for name, s in payload["scenarios"].items()}
    assert ratios == {"festival_surge": 0.0, "commuter_rush": 0.4}
    assert payload["min_throughput_ratio"] == 0.0

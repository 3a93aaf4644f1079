"""The BENCH_PR9 byzantine lanes, at test scale.

The bench artifact runs three runtimes under the 2% corrupt + 2% stale
adversary; these smokes run the sim lane small enough for tier-1 and
assert the *gates*, not the magnitudes: nothing corrupted is ever
accepted, nothing is lost or duplicated, and the adversary was
demonstrably real (faults fired, defenses caught).  The asyncio and UDP
lanes are rows of :data:`repro.net.scenario.RUNTIMES`, tested with the
other rows in ``tests/net/test_lanes.py``.
"""

import pytest

from repro.sim.byzantine import AGED_EPOCH, run_sim_byzantine_lane

pytestmark = pytest.mark.slow


def _assert_defended(lane: dict) -> None:
    assert lane["corrupted_accepted"] == 0
    assert lane["lost_sightings"] == 0
    assert lane["duplicated_sightings"] == 0
    assert lane["faults_injected"] > 0
    caught = (
        lane["frames_corrupted"]
        + lane["messages_quarantined"]
        + lane["stale_epoch_rejected"]
    )
    assert caught > 0


class TestSimLane:
    def test_defends_and_loses_nothing(self):
        lane = run_sim_byzantine_lane(objects=120, ticks=6, seed=0)
        assert lane["transport"] == "sim"
        _assert_defended(lane)
        assert lane["epoch_consistent"]

    def test_lane_ages_the_epoch_past_the_heal_horizon(self):
        # At epoch 0 the stale-replay rewind saturates and the adversary
        # would be vacuous; the lane must age the topology first.
        lane = run_sim_byzantine_lane(objects=60, ticks=4, seed=1)
        assert lane["topology_epoch"] >= AGED_EPOCH

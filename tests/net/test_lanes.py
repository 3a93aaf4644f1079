"""Every row of the runtime table drives the same workload end to end.

One small commuter-rush workload per row of
:data:`repro.net.scenario.RUNTIMES`, each under the fault it exists to
show: the in-process rows under the byzantine adversary (corrupted and
stale-epoch traffic), the processes row over lossy UDP.  Every row must
lose nothing, track every object exactly once, and report the same
payload keys.
"""

import pytest

from repro.net.scenario import DEFENSE_COUNTERS, FAULT_COUNTERS, RUNTIMES, run_lane
from repro.sim.byzantine import AGED_EPOCH, byzantine_rule
from repro.sim.elastic import commuter_rush_workload

pytestmark = pytest.mark.slow

OBJECTS = 40

#: Each row's lane: the byzantine lanes' settings for the in-process
#: rows, the lossy-UDP lane's for the processes row.
BYZANTINE = dict(faults=byzantine_rule(), epoch=AGED_EPOCH, retries=12, sub_timeout=0.4)
LANES = {
    "asyncio": {**BYZANTINE, "timeout": 0.5},
    "udp": {**BYZANTINE, "timeout": 1.0},
    "processes": dict(drop_rate=0.02, timeout=0.8, retries=12, seed=1),
}

KEYS = {
    # drive_workload's payload
    "objects", "ticks", "reports", "envelopes", "elapsed_s", "reports_per_s",
    "registered", "found", "lost_sightings",
    # run_lane's tail
    "transport", "processes", "drop_rate", "driver_messages_sent",
    "driver_messages_dropped", "tracked_total", "duplicated_sightings",
    "corrupted_accepted", *FAULT_COUNTERS,
}


def test_every_row_has_a_lane():
    assert set(LANES) == set(RUNTIMES)


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
def test_row_loses_nothing_and_reports_one_key_set(runtime):
    lane = run_lane(commuter_rush_workload(OBJECTS, 3, 0), runtime, **LANES[runtime])
    assert set(lane) == KEYS
    assert lane["transport"] == runtime
    assert lane["registered"] == lane["found"] == OBJECTS
    assert lane["reports"] > 0
    assert lane["lost_sightings"] == 0
    assert lane["tracked_total"] == OBJECTS
    assert lane["duplicated_sightings"] == 0
    assert lane["driver_messages_sent"] > 0
    if runtime == "processes":
        assert lane["processes"] == 5
        assert lane["corrupted_accepted"] is None  # the stores are elsewhere
        assert lane["driver_messages_dropped"] > 0, "the loss was real"
        return
    # The adversary was real and was caught — at the frame layer (CRC /
    # resync) on the udp row, at the message layers on both.
    assert lane["processes"] == 1
    assert lane["corrupted_accepted"] == 0
    assert lane["faults_injected"] > 0
    assert sum(lane[name] for name in DEFENSE_COUNTERS) > 0


def test_a_row_refuses_a_fault_it_cannot_inject():
    workload = commuter_rush_workload(4, 1, 0)
    with pytest.raises(ValueError):
        run_lane(workload, "asyncio", drop_rate=0.1)
    with pytest.raises(ValueError):
        run_lane(workload, "processes", faults=byzantine_rule())

"""The acceptance path: elastic-scenario workloads run unmodified over
real sockets, and the same driver runs them on the in-process asyncio
runtime for the throughput comparison."""

import pytest

from repro.net.scenario import (
    run_workload_inprocess,
    run_workload_multiprocess,
)
from repro.sim.elastic import commuter_rush_workload, festival_surge_workload

pytestmark = pytest.mark.slow


class TestInProcessLane:
    def test_festival_surge_zero_lost(self):
        payload = run_workload_inprocess(
            festival_surge_workload(objects=60, ticks=3, seed=0)
        )
        assert payload["lost_sightings"] == 0
        assert payload["registered"] == 60
        assert payload["reports"] > 0
        assert payload["transport"] == "in-process"


class TestMultiProcessLane:
    def test_commuter_rush_over_udp_cluster(self):
        payload = run_workload_multiprocess(
            commuter_rush_workload(objects=60, ticks=3, seed=0),
            transport="udp",
            seed=0,
        )
        assert payload["lost_sightings"] == 0
        assert payload["tracked_total"] == 60
        assert payload["processes"] == 5
        assert payload["driver_messages_sent"] > 0

    def test_udp_loss_recovered_by_retries(self):
        payload = run_workload_multiprocess(
            commuter_rush_workload(objects=40, ticks=2, seed=1),
            transport="udp",
            drop_rate=0.02,
            retries=12,
            timeout=0.8,
            seed=1,
        )
        assert payload["lost_sightings"] == 0
        assert payload["tracked_total"] == 40
        assert payload["driver_messages_dropped"] > 0

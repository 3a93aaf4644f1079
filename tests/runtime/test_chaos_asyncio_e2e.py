"""Chaos end-to-end on the asyncio runtime: a full scenario workload
driven through ``FaultInjector`` loss, recovered entirely by the
protocol lane's retries — zero lost sightings at the end."""

import asyncio

import pytest

from repro.chaos import FaultInjector, LinkFaults
from repro.core.hierarchy import build_table2_hierarchy
from repro.core.server import LocationServer
from repro.net.scenario import drive_workload
from repro.runtime.asyncio_rt import AsyncioNetwork
from repro.sim.elastic import festival_surge_workload

pytestmark = pytest.mark.slow


def test_festival_surge_through_injected_loss():
    workload = festival_surge_workload(objects=50, ticks=3, seed=2)
    hierarchy = build_table2_hierarchy(1500.0)

    async def scenario():
        network = AsyncioNetwork()
        injector = FaultInjector(network, seed=2)
        for server_id in hierarchy.server_ids():
            server = LocationServer(hierarchy.config(server_id), sighting_ttl=1e9)
            server.topology_epoch = hierarchy.epoch
            network.join(server)
        # Every link from the workload driver into the hierarchy loses
        # 20% of its messages, both directions.
        for leaf_id in hierarchy.leaf_ids():
            injector.set_link(
                "wl-reporter", leaf_id, LinkFaults(drop_rate=0.2), symmetric=True
            )
        payload = await drive_workload(
            workload,
            hierarchy,
            network.join,
            timeout=0.4,
            retries=12,
        )
        await network.quiesce()
        return payload, network.stats

    payload, stats = asyncio.run(scenario())
    assert payload["lost_sightings"] == 0
    assert payload["registered"] == 50
    assert stats.faults_injected > 0
    assert stats.messages_dropped > 0

"""Regression tests: protocol-lane envelopes racing live rebalances.

A split or merge must never degrade the batched lane: an envelope that
reaches a server mid-retirement is forwarded *whole* to the successor —
it must not split back into per-object messages — and a batched tick
interleaved with rebalance rounds loses no sightings even when the
believed-agent map is stale or its aliases have been garbage-collected.
"""

import random

from repro.cluster import LoadMonitor, MergePlan, PlannerConfig, RebalancePlanner
from repro.core import messages as m
from repro.geo import Point
from repro.model import RegistrationInfo, SightingRecord
from repro.runtime.base import Endpoint
from repro.sim.elastic import ElasticHarness, _fresh_service, _populate
from repro.sim.metrics import MessageLedger
from repro.sim.scenario import table2_service

from tests.cluster.test_migration import force_split


class Courier(Endpoint):
    """Sends protocol-lane envelopes directly at chosen servers."""

    _counter = 0

    def __init__(self):
        type(self)._counter += 1
        super().__init__(f"batch-courier-{type(self)._counter}")


def split_and_merge(svc):
    """Split root.0, then merge the children back: both retired."""
    executor, split_report = force_split(svc)
    merge_report = executor.execute(
        MergePlan(parent_id="root.0", children=split_report.spawned)
    )
    return split_report, merge_report


class TestRetiredServerKeepsEnvelopesWhole:
    def test_update_envelope_forwarded_without_splitting(self):
        svc, homes = table2_service(object_count=200, seed=21)
        split_report, merge_report = split_and_merge(svc)
        retired_id = split_report.spawned[0]
        assert svc.retired_servers[retired_id].retired
        oids = list(merge_report.new_homes)[:8]
        courier = Courier()
        svc.network.join(courier)
        ledger = MessageLedger(svc.network.stats)
        area = svc.hierarchy.config("root.0").area
        sightings = tuple(
            SightingRecord(oid, 0.0, area.center, 10.0) for oid in oids
        )
        # The device fleet still addresses the merged-away child.
        res = svc.run(
            courier.request(
                retired_id,
                m.UpdateBatchReq(
                    request_id=courier.next_request_id(),
                    reply_to=courier.address,
                    sightings=sightings,
                ),
            )
        )
        assert isinstance(res, m.UpdateBatchRes)
        assert all(o.ok and o.agent == "root.0" for o in res.outcomes)
        delta = ledger.protocol_delta()
        # Exactly the original + the forwarded copy — never per-object.
        assert delta.get("UpdateBatchReq") == 2
        assert "UpdateReq" not in delta
        svc.check_consistency()

    def test_handover_envelope_forwarded_without_splitting(self):
        """A §6.5-cached direct handover dispatch hits a leaf that retired
        in the meantime: the whole envelope must travel on (and the path
        be repaired), never split per object."""
        svc, homes = table2_service(object_count=200, seed=22)
        split_report, merge_report = split_and_merge(svc)
        retired_id = split_report.spawned[1]
        target_area = svc.hierarchy.config("root.0").area
        # Fresh objects homed elsewhere, crossing into the merged leaf.
        donor = "root.3"
        oids = []
        for i in range(6):
            oid = f"race-{i}"
            pos = svc.hierarchy.config(donor).area.center
            svc.servers[donor].store.register(
                SightingRecord(oid, 0.0, pos, 10.0), 25.0, 100.0, "test", now=0.0
            )
            for below, above in zip(
                svc.hierarchy.path_to_root(donor),
                svc.hierarchy.path_to_root(donor)[1:],
            ):
                svc.servers[above].visitors.insert_forward(oid, below)
            oids.append(oid)
        courier = Courier()
        svc.network.join(courier)
        ledger = MessageLedger(svc.network.stats)
        items = tuple(
            m.HandoverBatchItem(
                sighting=SightingRecord(oid, 1.0, target_area.center, 10.0),
                reg_info=RegistrationInfo("test", 25.0, 100.0),
            )
            for oid in oids
        )
        res = svc.run(
            courier.request(
                retired_id,
                m.HandoverBatchReq(
                    request_id=courier.next_request_id(),
                    reply_to=courier.address,
                    sender=donor,
                    items=items,
                    direct=True,
                ),
            )
        )
        assert isinstance(res, m.HandoverBatchRes)
        assert all(o.new_agent == "root.0" for o in res.outcomes)
        delta = ledger.protocol_delta()
        assert delta.get("HandoverBatchReq") == 2  # original + forwarded
        for oid in oids:
            assert svc.pos_query(oid) is not None


class TestRebalanceRacingBatchedTicks:
    def test_batched_ticks_interleaved_with_rebalances_lose_nothing(self):
        """The full race: batched envelopes every tick, splits/merges and
        alias garbage collection between ticks, stale homes throughout."""
        svc = _fresh_service()
        rng = random.Random(17)
        placements = [
            (
                f"o{i}",
                Point(rng.uniform(300, 450), rng.uniform(300, 450)),
            )
            for i in range(220)
        ]
        homes = _populate(svc, placements)
        harness = ElasticHarness(
            svc,
            homes,
            monitor=LoadMonitor(half_life=5.0, gc_retired_after=1),
            planner=RebalancePlanner(
                PlannerConfig(split_load=60.0, hot_min_load=30.0, merge_load=10.0)
            ),
        )
        area = svc.hierarchy.root_area()
        positions = dict(placements)
        for tick in range(10):
            moves = []
            for oid, pos in positions.items():
                new_pos = Point(
                    min(max(pos.x + rng.uniform(-80, 220), area.min_x), area.max_x),
                    min(max(pos.y + rng.uniform(-80, 220), area.min_y), area.max_y),
                )
                positions[oid] = new_pos
                moves.append((oid, new_pos))
            harness.apply_reports(moves, envelope_timeout=2.0)
            harness.advance_migrations()
            svc.run(_sleep(svc, 1.0))
            harness.sample()  # also garbage-collects quiet aliases
            if tick % 2 == 1:
                harness.rebalance()
        harness.cutover_all()
        result = harness.verify(expected_tracked=220)
        assert result["lost_sightings"] == 0
        assert result["hierarchy_valid"] and result["consistency_ok"]
        assert harness.split_count() >= 1


async def _sleep(svc, dt):
    await svc.loop.sleep(dt)

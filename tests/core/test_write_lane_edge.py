"""The device-facing edge of the write lane (PR 14).

``UpdateReq`` / ``DeregisterReq`` are served as an envelope of one by
the same code that serves ``UpdateBatchReq`` / ``DeregisterBatchReq``;
these tests pin what single-object callers (``svc.update``,
``TrackedObject.report``, ``LocationClient.deregister``, raw requests
from a device that still believes a split or merged-away server is its
agent) observe in the unchanged ``UpdateRes`` / ``DeregisterRes``.
"""

import pytest

from repro.cluster import MergePlan
from repro.core import CacheConfig, LocationService, build_table2_hierarchy
from repro.core import messages as m
from repro.geo import Point, Rect
from repro.model import AccuracyModel
from repro.sim.scenario import table2_service

from tests.cluster.test_migration import Reporter as Device
from tests.cluster.test_migration import force_split


@pytest.fixture
def svc():
    return LocationService(build_table2_hierarchy(1500.0), sighting_ttl=1e9)


def handled(svc, server_id, message_type):
    return svc.servers[server_id].stats.messages_handled.get(message_type, 0)


def device(svc):
    """A bare endpoint standing in for a device with a stale agent belief."""
    return svc.network.join(Device())


def send_deregister(svc, endpoint, dest, oid):
    return svc.run(
        endpoint.request(
            dest,
            m.DeregisterReq(
                request_id=endpoint.next_request_id(),
                reply_to=endpoint.address,
                object_id=oid,
            ),
        )
    )


class TestSingleReport:
    def test_in_area_report_acks_with_current_agent(self, svc):
        obj = svc.register("truck", Point(100, 100), des_acc=25.0)
        res = svc.update(obj, Point(150, 160))
        assert res == m.UpdateRes(
            request_id=res.request_id, ok=True, agent="root.0", offered_acc=25.0
        )
        assert svc.pos_query("truck").pos == Point(150, 160)
        assert handled(svc, "root.0", "UpdateReq") == 1
        assert handled(svc, "root.0", "UpdateBatchReq") == 0

    def test_border_crossing_repoints_agent_and_offered_acc(self, svc):
        obj = svc.register("truck", Point(700, 100), des_acc=25.0, min_acc=100.0)
        assert obj.agent == "root.0"
        # The new agent can only do 40 m: the handover renegotiates.
        svc.servers["root.1"].store.accuracy = AccuracyModel(
            sensor_floor=40.0, update_slack=0.0
        )
        res = svc.update(obj, Point(800, 100))
        assert res.ok and res.agent == "root.1" and not res.deregistered
        assert obj.agent == "root.1"
        assert obj.offered_acc == res.offered_acc == 40.0
        assert svc.pos_query("truck").pos == Point(800, 100)
        # Fig. 6 hop structure, on the envelope type: leaf → root → leaf.
        assert handled(svc, "root", "HandoverBatchReq") == 1
        assert handled(svc, "root.1", "HandoverBatchReq") == 1
        assert handled(svc, "root.0", "HandoverBatchReq") == 0
        svc.check_consistency()

    def test_leaving_root_area_answers_deregistered(self, svc):
        obj = svc.register("truck", Point(100, 100))
        res = svc.update(obj, Point(5000, 5000))
        assert res.ok and res.deregistered and res.agent is None
        assert obj.deregistered and obj.agent is None
        assert svc.pos_query("truck") is None
        assert svc.total_tracked() == 0
        svc.check_consistency()

    def test_unknown_object_is_refused_with_the_server_named(self, svc):
        res = svc.run(device(svc).send_update("root.3", "ghost", Point(1200, 1200)))
        assert not res.ok
        assert res.error == "root.3 is not the agent of ghost"

    def test_single_deregister_tears_the_path_down(self, svc):
        obj = svc.register("truck", Point(100, 100))
        assert svc.run(obj.deregister()) is True
        svc.settle()
        assert svc.servers["root"].visitors.forward_ref("truck") is None
        assert handled(svc, "root", "PathTeardownBatch") == 1
        # A repeat finds nothing: plain ok=False, no reason on this edge.
        res = send_deregister(svc, device(svc), "root.0", "truck")
        assert res == m.DeregisterRes(request_id=res.request_id, ok=False)


class TestStaleAgentBelief:
    def test_requests_at_a_split_leaf_are_routed_down(self):
        svc, _ = table2_service(object_count=300, seed=4)
        _, report = force_split(svc)
        oid, other = list(report.new_homes)[:2]
        agent = report.new_homes[oid]
        dev = device(svc)
        pos = svc.servers[agent].config.area.center
        res = svc.run(dev.send_update("root.0", oid, pos))
        assert res.ok and res.agent == agent
        assert svc.pos_query(oid).pos == pos
        # The interior server forwarded an envelope, not the single.
        assert handled(svc, agent, "UpdateBatchReq") == 1
        assert handled(svc, agent, "UpdateReq") == 0
        assert send_deregister(svc, dev, "root.0", other).ok
        assert svc.pos_query(other) is None
        svc.settle()
        svc.check_consistency()

    def test_requests_at_a_retired_alias_reach_the_successor(self):
        svc, _ = table2_service(object_count=200, seed=21)
        executor, split_report = force_split(svc)
        merge_report = executor.execute(
            MergePlan(parent_id="root.0", children=split_report.spawned)
        )
        retired_id = split_report.spawned[0]
        assert svc.retired_servers[retired_id].retired
        oid, other = list(merge_report.new_homes)[:2]
        dev = device(svc)
        pos = svc.hierarchy.config("root.0").area.center
        res = svc.run(dev.send_update(retired_id, oid, pos))
        assert res.ok and res.agent == "root.0"
        assert svc.pos_query(oid).pos == pos
        assert send_deregister(svc, dev, retired_id, other).ok
        svc.settle()
        svc.check_consistency()


class TestStaleSelfAreaCache:
    def test_single_report_hands_over_through_the_parent(self):
        """Regression for the drift the deleted single-object handover had: a
        §6.5 area cache whose entry for the leaf *itself* is stale (it
        still claims ground the leaf gave up) must not dispatch the
        handover back at the leaf — it goes up through the hierarchy."""
        svc = LocationService(
            build_table2_hierarchy(1500.0),
            cache_config=CacheConfig.all_enabled(),
            sighting_ttl=1e9,
        )
        obj = svc.register("truck", Point(700, 100))
        leaf = svc.servers["root.0"]
        leaf.caches.note_leaf_area("root.0", Rect(0, 0, 1500, 1500))
        assert leaf.caches.leaf_for_point(800, 100) == "root.0"
        res = svc.update(obj, Point(800, 100))
        svc.settle()
        assert res.ok and res.agent == "root.1"
        assert handled(svc, "root.0", "HandoverBatchReq") == 0
        assert handled(svc, "root", "HandoverBatchReq") == 1
        assert leaf.stats.handovers_initiated == 1
        assert svc.servers["root.1"].stats.handovers_admitted == 1
        assert svc.pos_query("truck", entry_server="root.2").pos == Point(800, 100)
        svc.check_consistency()

"""Edge-case and race-condition tests for LocationServer internals."""

import pytest

from repro.core import LocationService, build_table2_hierarchy
from repro.core import messages as m
from repro.geo import Point, Rect
from repro.model import RangeQuery, SightingRecord


@pytest.fixture
def svc(lane):
    return LocationService(build_table2_hierarchy(), **lane)


class TestClientFacingGuards:
    def test_pos_query_at_non_leaf_answers_not_found(self, svc):
        svc.register("truck", Point(100, 100))
        client = svc.new_client(entry_server="root")  # misconfigured client
        assert svc.run(client.pos_query("truck")) is None

    def test_range_query_at_non_leaf_answers_empty(self, svc):
        svc.register("truck", Point(100, 100))
        client = svc.new_client(entry_server="root")
        answer = svc.run(client.range_query(Rect(0, 0, 1500, 1500), req_overlap=0.1))
        assert answer.entries == ()

    def test_neighbor_query_at_non_leaf_answers_empty(self, svc):
        svc.register("truck", Point(100, 100))
        client = svc.new_client(entry_server="root")
        answer = svc.run(client.neighbor_query(Point(0, 0)))
        assert answer.result.nearest is None

    def test_update_at_wrong_leaf_rejected(self, svc):
        obj = svc.register("truck", Point(100, 100))  # agent root.0
        client = svc.new_client(entry_server="root.3")
        rid = client.next_request_id()

        async def misdirected_update():
            return await client.request(
                "root.3",
                m.UpdateReq(
                    request_id=rid,
                    reply_to=client.address,
                    sighting=SightingRecord("truck", 1.0, Point(1400, 1400), 10.0),
                ),
            )

        res = svc.run(misdirected_update())
        assert isinstance(res, m.UpdateRes)
        assert not res.ok
        # The real agent still answers correctly.
        assert svc.pos_query("truck").pos == Point(100, 100)

    def test_change_acc_at_wrong_server_rejected(self, svc):
        svc.register("truck", Point(100, 100))
        client = svc.new_client(entry_server="root.3")

        async def misdirected():
            return await client.request(
                "root.3",
                m.ChangeAccReq(
                    request_id=client.next_request_id(),
                    reply_to=client.address,
                    object_id="truck",
                    des_acc=10.0,
                    min_acc=50.0,
                ),
            )

        res = svc.run(misdirected())
        assert isinstance(res, m.ChangeAccRes)
        assert not res.ok


def record_teardown_nacks(svc, server_id):
    """Capture the ``(object_id, reason)`` pairs NACKed back to a server."""
    nacks = []

    async def record(msg):
        nacks.extend(msg.object_ids)

    svc.servers[server_id].on(m.PathTeardownNack, record)
    return nacks


class TestPathTeardownRaceGuard:
    def test_stale_teardown_does_not_break_new_path(self, svc):
        """A teardown from a server that is no longer on the object's
        path must be ignored (the per-id guard in _on_path_teardown_batch)
        and NACKed as *redirected*."""
        obj = svc.register("truck", Point(700, 100))  # agent root.0
        svc.update(obj, Point(800, 100))  # handover to root.1
        svc.settle()
        assert svc.servers["root"].visitors.forward_ref("truck") == "root.1"
        nacks = record_teardown_nacks(svc, "root.0")
        # The *old* agent fabricates a late teardown (as if its soft state
        # had expired just before the handover completed).
        svc.servers["root.0"].send(
            "root", m.PathTeardownBatch(object_ids=("truck",), sender="root.0")
        )
        svc.settle()
        # The path still points at the new agent; queries still work.
        assert svc.servers["root"].visitors.forward_ref("truck") == "root.1"
        assert svc.pos_query("truck", entry_server="root.2").pos == Point(800, 100)
        assert nacks == [("truck", m.NACK_REDIRECTED)]

    def test_matching_teardown_removes_path(self, svc):
        svc.register("truck", Point(100, 100))
        nacks = record_teardown_nacks(svc, "root.0")
        teardown = m.PathTeardownBatch(object_ids=("truck",), sender="root.0")
        svc.servers["root.0"].send("root", teardown)
        svc.settle()
        assert "truck" not in svc.servers["root"].visitors
        assert nacks == []
        # A repeat of the same teardown finds the tombstone.
        svc.servers["root.0"].send("root", teardown)
        svc.settle()
        assert nacks == [("truck", m.NACK_ALREADY_GONE)]


class TestRemovePathIdempotency:
    def test_remove_path_for_unknown_object_is_noop(self, svc):
        svc.servers["root"].send("root.0", m.RemovePath(object_id="ghost"))
        svc.settle()
        assert svc.loop.task_errors == []

    def test_double_remove_path(self, svc):
        svc.register("truck", Point(100, 100))
        for _ in range(2):
            svc.servers["root"].deliver(m.RemovePath(object_id="truck"))
            svc.settle()
        assert svc.loop.task_errors == []


class TestInternalQueryApi:
    def test_evaluate_range_from_leaf(self, svc):
        svc.register("a", Point(100, 100))
        svc.register("b", Point(1400, 1400))
        query = RangeQuery(Rect(0, 0, 1500, 1500), req_acc=50.0, req_overlap=0.3)
        (entries,) = svc.run(svc.servers["root.0"].evaluate_range_many([query]))
        assert {oid for oid, _ in entries} == {"a", "b"}

    def test_evaluate_position_local_and_remote(self, svc):
        svc.register("a", Point(100, 100))
        local = svc.run(svc.servers["root.0"].evaluate_position("a"))
        remote = svc.run(svc.servers["root.3"].evaluate_position("a"))
        assert local == remote
        assert local.pos == Point(100, 100)

    def test_evaluate_position_unknown(self, svc):
        assert svc.run(svc.servers["root.0"].evaluate_position("ghost")) is None


class TestDegenerateTopologies:
    def test_single_server_service(self):
        from repro.core import build_grid_hierarchy

        svc = LocationService(build_grid_hierarchy(Rect(0, 0, 1000, 1000), []))
        obj = svc.register("only", Point(500, 500))
        assert obj.agent == "root"
        svc.update(obj, Point(600, 600))
        assert svc.pos_query("only").pos == Point(600, 600)
        answer = svc.range_query(Rect(0, 0, 1000, 1000), req_acc=50.0, req_overlap=0.3)
        assert len(answer.entries) == 1
        nn = svc.neighbor_query(Point(0, 0), req_acc=50.0)
        assert nn.result.nearest[0] == "only"
        # Leaving the area on a single-server LS deregisters directly.
        res = svc.update(obj, Point(5000, 5000))
        assert res.deregistered
        assert svc.total_tracked() == 0

    def test_deep_hierarchy(self):
        from repro.core import build_quad_hierarchy

        svc = LocationService(build_quad_hierarchy(Rect(0, 0, 1024, 1024), depth=3))
        assert len(svc.hierarchy.leaf_ids()) == 64
        obj = svc.register("deep", Point(3, 3))
        ld = svc.pos_query("deep", entry_server=svc.hierarchy.leaf_for_point(Point(1020, 1020)))
        assert ld.pos == Point(3, 3)
        svc.update(obj, Point(1020, 1020))
        svc.settle()
        svc.check_consistency()

    def test_nn_on_empty_deep_hierarchy(self):
        from repro.core import build_quad_hierarchy

        svc = LocationService(build_quad_hierarchy(Rect(0, 0, 1024, 1024), depth=2))
        answer = svc.neighbor_query(Point(512, 512))
        assert answer.result.nearest is None
        assert svc.loop.task_errors == []

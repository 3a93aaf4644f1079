"""End-to-end tests of the distributed LS on the simulated runtime."""

import pytest

from repro.core import LocationService, build_quad_hierarchy, build_table2_hierarchy
from repro.core import messages as m
from repro.errors import RegistrationError
from repro.geo import Point, Polygon, Rect
from repro.model import AccuracyModel


@pytest.fixture
def svc(lane):
    return LocationService(build_table2_hierarchy(), **lane)


class TestRegistration:
    def test_register_assigns_correct_agent(self, svc):
        obj = svc.register("truck-1", Point(100, 100))
        assert obj.agent == "root.0"
        obj2 = svc.register("truck-2", Point(1400, 100))
        assert obj2.agent == "root.1"

    def test_register_builds_forwarding_path(self, svc):
        svc.register("truck-1", Point(100, 100))
        assert svc.servers["root"].visitors.forward_ref("truck-1") == "root.0"
        svc.check_consistency()

    def test_register_via_wrong_entry_server(self, svc):
        # Entry server root.3 is not responsible; the request must travel
        # up and down the hierarchy to root.0.
        obj = svc.new_tracked_object("truck-1", entry_server="root.3")
        svc.run(obj.register(Point(100, 100), 25.0, 100.0))
        assert obj.agent == "root.0"
        svc.check_consistency()

    def test_register_outside_service_area(self, svc):
        obj = svc.new_tracked_object("lost", entry_server="root.0")
        with pytest.raises(RegistrationError):
            svc.run(obj.register(Point(5000, 5000), 25.0, 100.0))

    def test_register_unachievable_accuracy(self):
        svc = LocationService(
            build_table2_hierarchy(), accuracy=AccuracyModel(sensor_floor=50.0)
        )
        obj = svc.new_tracked_object("fussy", entry_server="root.0")
        with pytest.raises(RegistrationError):
            svc.run(obj.register(Point(100, 100), 1.0, 10.0))

    def test_offered_accuracy_negotiation(self, svc):
        obj = svc.new_tracked_object("truck-1", entry_server="root.0")
        offered = svc.run(obj.register(Point(100, 100), 20.0, 100.0))
        assert offered == 20.0

    def test_deregister_removes_path(self, svc):
        obj = svc.register("truck-1", Point(100, 100))
        assert svc.deregister(obj)
        svc.settle()
        assert svc.total_tracked() == 0
        assert "truck-1" not in svc.servers["root"].visitors
        assert svc.pos_query("truck-1") is None


class TestUpdatesAndHandover:
    def test_local_update(self, svc):
        obj = svc.register("truck-1", Point(100, 100))
        res = svc.update(obj, Point(200, 200))
        assert res.ok
        assert obj.agent == "root.0"
        ld = svc.pos_query("truck-1", entry_server="root.0")
        assert ld.pos == Point(200, 200)

    def test_move_within_offered_accuracy_sends_nothing(self, svc):
        obj = svc.register("truck-1", Point(100, 100), des_acc=25.0, sensor_acc=10.0)
        assert obj.offered_acc == 25.0
        sent = svc.network.stats.messages_sent
        # 15 m of drift is what the offer leaves beyond the sensor's 10 m.
        assert not svc.run(obj.move_to(Point(112, 109)))
        assert svc.network.stats.messages_sent == sent
        assert svc.pos_query("truck-1").pos == Point(100, 100)

    def test_move_beyond_offered_accuracy_reports(self, svc):
        obj = svc.register("truck-1", Point(700, 100), des_acc=25.0, sensor_acc=10.0)
        assert svc.run(obj.move_to(Point(716, 100)))
        assert svc.pos_query("truck-1").pos == Point(716, 100)
        assert svc.run(obj.move_to(Point(800, 100)))  # crosses into root.1
        assert obj.agent == "root.1"
        assert obj.policy.estimate(svc.loop.now) == Point(800, 100)
        svc.settle()
        svc.check_consistency()

    @pytest.mark.parametrize("sensor_acc", [25.0, 40.0])
    def test_a_sensor_no_better_than_the_offer_reports_every_move(self, svc, sensor_acc):
        obj = svc.register("truck-1", Point(100, 100), des_acc=25.0, sensor_acc=sensor_acc)
        assert obj.offered_acc == 25.0
        for x in (101.0, 101.5, 102.0):
            assert svc.run(obj.move_to(Point(x, 100)))
            assert svc.pos_query("truck-1").pos == Point(x, 100)

    def test_a_move_is_judged_against_the_new_offer(self, svc):
        obj = svc.register("truck-1", Point(100, 100), des_acc=25.0, sensor_acc=10.0)
        assert svc.run(obj.change_accuracy(60.0, 100.0)) == 60.0
        # 45 m of drift is within 60 - 10 m, and beyond it once the
        # service pushes a tighter offer of 35 m (notifyAvailAcc).
        assert not svc.run(obj.move_to(Point(145, 100)))
        svc.servers["root.0"].send(obj.address, m.NotifyAvailAcc("truck-1", 35.0))
        svc.settle()
        assert obj.offered_acc == 35.0
        assert svc.run(obj.move_to(Point(145, 100)))
        # The update answer names the agent's own record of the offer.
        assert obj.offered_acc == 60.0
        assert not svc.run(obj.move_to(Point(195, 100)))

    def test_handover_to_adjacent_leaf(self, svc):
        obj = svc.register("truck-1", Point(700, 100))
        res = svc.update(obj, Point(800, 100))  # crosses into root.1
        assert res.ok
        assert obj.agent == "root.1"
        svc.settle()
        svc.check_consistency()
        assert svc.servers["root"].visitors.forward_ref("truck-1") == "root.1"
        assert "truck-1" not in svc.servers["root.0"].visitors

    def test_handover_three_level(self):
        svc = LocationService(build_quad_hierarchy(Rect(0, 0, 1600, 1600), depth=2))
        obj = svc.register("truck-1", Point(100, 100))
        first_agent = obj.agent
        svc.update(obj, Point(1500, 1500))  # diagonal: crosses the root
        svc.settle()
        assert obj.agent != first_agent
        svc.check_consistency()
        ld = svc.pos_query("truck-1", entry_server=first_agent)
        assert ld.pos == Point(1500, 1500)

    def test_leaving_service_area_deregisters(self, svc):
        obj = svc.register("truck-1", Point(100, 100))
        res = svc.update(obj, Point(9999, 9999))
        assert res.deregistered
        assert obj.deregistered
        svc.settle()
        assert svc.total_tracked() == 0
        assert "truck-1" not in svc.servers["root"].visitors
        svc.check_consistency()

    def test_query_after_many_handovers(self, svc):
        obj = svc.register("walker", Point(100, 750))
        # Walk east across all quadrant boundaries and back.
        xs = [400, 760, 1100, 1400, 1100, 760, 400, 100]
        for x in xs:
            svc.update(obj, Point(x, 750))
            svc.settle()
            svc.check_consistency()
        ld = svc.pos_query("walker", entry_server="root.3")
        assert ld.pos == Point(100, 750)


class TestPositionQueries:
    def test_local_query(self, svc):
        svc.register("truck-1", Point(100, 100))
        ld = svc.pos_query("truck-1", entry_server="root.0")
        assert ld.pos == Point(100, 100)
        assert ld.acc == 25.0

    def test_remote_query(self, svc):
        svc.register("truck-1", Point(100, 100))
        ld = svc.pos_query("truck-1", entry_server="root.3")
        assert ld is not None
        assert ld.pos == Point(100, 100)

    def test_unknown_object(self, svc):
        assert svc.pos_query("ghost", entry_server="root.0") is None

    def test_remote_query_message_flow(self, svc):
        """A remote query touches entry, root and the agent leaf."""
        svc.register("truck-1", Point(100, 100))
        svc.network.stats.reset()
        svc.pos_query("truck-1", entry_server="root.3")
        by_type = svc.network.stats.by_type
        assert by_type.get("PosQueryFwd", 0) == 2  # entry→root, root→agent
        assert by_type.get("PosQueryAnswer", 0) == 1  # agent→entry direct


class TestRangeQueries:
    def setup_objects(self, svc):
        # A 5x5 grid spanning all four quadrants.
        for row in range(5):
            for col in range(5):
                svc.register(
                    f"o{row}{col}", Point(150 + col * 300.0, 150 + row * 300.0)
                )

    def test_local_range_query(self, svc):
        self.setup_objects(svc)
        answer = svc.range_query(
            Rect(0, 0, 700, 700), req_acc=50.0, req_overlap=0.5, entry_server="root.0"
        )
        ids = {oid for oid, _ in answer.entries}
        assert ids == {"o00", "o01", "o10", "o11"}

    def test_spanning_range_query(self, svc):
        self.setup_objects(svc)
        answer = svc.range_query(
            Rect(400, 400, 1100, 1100), req_acc=50.0, req_overlap=0.5, entry_server="root.0"
        )
        ids = {oid for oid, _ in answer.entries}
        expected = {
            f"o{row}{col}"
            for row in range(5)
            for col in range(5)
            if 400 <= 150 + col * 300 <= 1100 and 400 <= 150 + row * 300 <= 1100
        }
        assert ids == expected
        assert answer.servers_involved == 4

    def test_remote_range_query(self, svc):
        self.setup_objects(svc)
        answer = svc.range_query(
            Rect(0, 0, 700, 700), req_acc=50.0, req_overlap=0.5, entry_server="root.3"
        )
        ids = {oid for oid, _ in answer.entries}
        assert ids == {"o00", "o01", "o10", "o11"}

    def test_polygon_area(self, svc):
        self.setup_objects(svc)
        triangle = Polygon([Point(0, 0), Point(1500, 0), Point(0, 1500)])
        answer = svc.range_query(
            triangle, req_acc=50.0, req_overlap=0.9, entry_server="root.0"
        )
        ids = {oid for oid, _ in answer.entries}
        # Objects comfortably below the anti-diagonal qualify.
        assert "o00" in ids
        assert "o44" not in ids

    def test_empty_result(self, svc):
        answer = svc.range_query(Rect(0, 0, 100, 100), entry_server="root.0")
        assert answer.entries == ()

    def test_matches_oracle_semantics(self, svc):
        """The distributed answer equals a centralized evaluation."""
        from repro.model import RangeQuery, range_query as oracle_range

        self.setup_objects(svc)
        query = RangeQuery(Rect(200, 200, 1300, 800), req_acc=50.0, req_overlap=0.4)
        answer = svc.range_query(
            query.area, req_acc=50.0, req_overlap=0.4, entry_server="root.2"
        )
        all_entries = []
        for server in svc.servers.values():
            if server.is_leaf:
                for oid in server.store.sightings.object_ids():
                    all_entries.append((oid, server.store.position_query(oid)))
        expected = oracle_range(all_entries, query)
        assert list(answer.entries) == expected


class TestNeighborQueries:
    def test_nearest_in_same_leaf(self, svc):
        svc.register("near", Point(100, 100))
        svc.register("far", Point(1400, 1400))
        answer = svc.neighbor_query(Point(120, 120), req_acc=50.0, entry_server="root.0")
        assert answer.result.nearest[0] == "near"

    def test_nearest_in_remote_leaf(self, svc):
        svc.register("only", Point(1400, 1400))
        answer = svc.neighbor_query(Point(10, 10), req_acc=50.0, entry_server="root.0")
        assert answer.result.nearest[0] == "only"
        assert answer.rounds >= 1

    def test_empty_service(self, svc):
        answer = svc.neighbor_query(Point(10, 10), entry_server="root.0")
        assert answer.result.nearest is None

    def test_near_set_across_leaves(self, svc):
        # Two objects just either side of the quadrant boundary at x=750.
        svc.register("west", Point(740, 100))
        svc.register("east", Point(760, 100))
        answer = svc.neighbor_query(
            Point(745, 100), req_acc=50.0, near_qual=100.0, entry_server="root.0"
        )
        assert answer.result.nearest[0] == "west"
        assert [oid for oid, _ in answer.result.near_set] == ["east"]

    def test_accuracy_filter(self, svc):
        obj = svc.new_tracked_object("coarse", entry_server="root.0")
        svc.run(obj.register(Point(100, 100), 80.0, 200.0))  # offered 80
        svc.register("fine", Point(500, 500))  # offered 25
        answer = svc.neighbor_query(Point(110, 110), req_acc=50.0, entry_server="root.0")
        assert answer.result.nearest[0] == "fine"

    def test_matches_oracle(self, svc):
        import random

        from repro.model import NearestNeighborQuery, nearest_neighbor

        rng = random.Random(3)
        for i in range(40):
            svc.register(
                f"o{i}", Point(rng.uniform(0, 1500), rng.uniform(0, 1500))
            )
        probe = Point(600, 900)
        answer = svc.neighbor_query(
            probe, req_acc=50.0, near_qual=120.0, entry_server="root.1"
        )
        all_entries = []
        for server in svc.servers.values():
            if server.is_leaf:
                for oid in server.store.sightings.object_ids():
                    all_entries.append((oid, server.store.position_query(oid)))
        expected = nearest_neighbor(
            all_entries, NearestNeighborQuery(probe, req_acc=50.0, near_qual=120.0)
        )
        assert answer.result.nearest == expected.nearest
        assert set(answer.result.near_set) == set(expected.near_set)


class TestAccuracyChange:
    def test_change_accuracy(self, svc):
        obj = svc.register("truck-1", Point(100, 100))
        offered = svc.run(obj.change_accuracy(40.0, 200.0))
        assert offered == 40.0
        assert svc.pos_query("truck-1").acc == 40.0

    def test_change_accuracy_rejected(self):
        svc = LocationService(
            build_table2_hierarchy(), accuracy=AccuracyModel(sensor_floor=30.0)
        )
        obj = svc.register("truck-1", Point(100, 100), des_acc=40.0, min_acc=100.0)
        with pytest.raises(RegistrationError):
            svc.run(obj.change_accuracy(1.0, 10.0))


class TestNoTaskErrors:
    def test_mixed_workload_leaves_no_dangling_errors(self, svc):
        import random

        rng = random.Random(5)
        objects = {}
        for i in range(20):
            pos = Point(rng.uniform(0, 1500), rng.uniform(0, 1500))
            objects[f"o{i}"] = svc.register(f"o{i}", pos)
        for _ in range(50):
            oid = rng.choice(list(objects))
            action = rng.random()
            if action < 0.5:
                svc.update(objects[oid], Point(rng.uniform(0, 1500), rng.uniform(0, 1500)))
            elif action < 0.75:
                svc.pos_query(oid, entry_server=rng.choice(svc.hierarchy.leaf_ids()))
            else:
                svc.range_query(
                    Rect.from_center(
                        Point(rng.uniform(100, 1400), rng.uniform(100, 1400)), 200, 200
                    ),
                    req_acc=60.0,
                    req_overlap=0.3,
                    entry_server=rng.choice(svc.hierarchy.leaf_ids()),
                )
        svc.settle()
        assert svc.loop.task_errors == []
        svc.check_consistency()

"""Tests for the event mechanism (Section 1 / future-work extension)."""

import pytest

from repro.core import LocationService, build_table2_hierarchy
from repro.core.events import AreaOccupancy, Proximity
from repro.errors import LocationServiceError
from repro.geo import Point, Rect


@pytest.fixture
def svc(lane):
    return LocationService(build_table2_hierarchy(), **lane)


def drain(svc, seconds):
    async def wait():
        await svc.loop.sleep(seconds)

    svc.run(wait())


class TestPredicateValidation:
    def test_occupancy_threshold(self):
        with pytest.raises(ValueError):
            AreaOccupancy(Rect(0, 0, 10, 10), threshold=0)

    def test_proximity_distance(self):
        with pytest.raises(ValueError):
            Proximity("a", "b", distance=-1.0)

    def test_proximity_distinct_objects(self):
        with pytest.raises(ValueError):
            Proximity("a", "a", distance=10.0)


class TestAreaOccupancy:
    def test_fires_when_threshold_reached(self, svc):
        client = svc.new_client(entry_server="root.0")
        zone = Rect(0, 0, 300, 300)
        sub_id = svc.run(
            client.subscribe(
                AreaOccupancy(zone, threshold=2, req_acc=50.0, req_overlap=0.5),
                poll_interval=1.0,
            )
        )
        assert sub_id
        svc.register("a", Point(100, 100))
        drain(svc, 3.0)
        assert client.notifications == []  # one object: below threshold
        svc.register("b", Point(150, 150))
        drain(svc, 3.0)
        fired = [n for n in client.notifications if n.fired]
        assert len(fired) == 1
        assert set(fired[0].matched) == {"a", "b"}

    def test_edge_triggered_not_level(self, svc):
        client = svc.new_client(entry_server="root.0")
        zone = Rect(0, 0, 300, 300)
        svc.register("a", Point(100, 100))
        svc.run(
            client.subscribe(
                AreaOccupancy(zone, threshold=1, req_acc=50.0, req_overlap=0.5),
                poll_interval=1.0,
            )
        )
        drain(svc, 10.0)
        # Fires once on becoming true, not on every poll.
        assert len([n for n in client.notifications if n.fired]) == 1

    def test_notify_on_clear(self, svc):
        client = svc.new_client(entry_server="root.0")
        zone = Rect(0, 0, 300, 300)
        obj = svc.register("a", Point(100, 100))
        svc.run(
            client.subscribe(
                AreaOccupancy(zone, threshold=1, req_acc=50.0, req_overlap=0.5),
                poll_interval=1.0,
                notify_on_clear=True,
            )
        )
        drain(svc, 3.0)
        svc.update(obj, Point(1000, 1000))  # leaves the zone
        drain(svc, 3.0)
        states = [n.fired for n in client.notifications]
        assert states == [True, False]

    def test_remote_area_subscription(self, svc):
        # Subscribe at root.0 for a zone inside root.3's service area.
        client = svc.new_client(entry_server="root.0")
        zone = Rect(1200, 1200, 1400, 1400)
        svc.run(
            client.subscribe(
                AreaOccupancy(zone, threshold=1, req_acc=50.0, req_overlap=0.5),
                poll_interval=1.0,
            )
        )
        svc.register("far", Point(1300, 1300))
        drain(svc, 3.0)
        assert any(n.fired for n in client.notifications)

    def test_unsubscribe_stops_notifications(self, svc):
        client = svc.new_client(entry_server="root.0")
        zone = Rect(0, 0, 300, 300)
        sub_id = svc.run(
            client.subscribe(
                AreaOccupancy(zone, threshold=1, req_acc=50.0, req_overlap=0.5),
                poll_interval=1.0,
            )
        )
        assert svc.run(client.unsubscribe(sub_id))
        svc.register("a", Point(100, 100))
        drain(svc, 5.0)
        assert client.notifications == []
        assert svc.servers["root.0"].events.active_count == 0

    def test_unsubscribe_unknown_id(self, svc):
        client = svc.new_client(entry_server="root.0")
        assert not svc.run(client.unsubscribe("ghost"))


class TestProximity:
    def test_meeting_predicate(self, svc):
        client = svc.new_client(entry_server="root.0")
        alice = svc.register("alice", Point(100, 100))
        svc.register("bob", Point(1400, 1400))
        svc.run(
            client.subscribe(
                Proximity("alice", "bob", distance=50.0), poll_interval=1.0
            )
        )
        drain(svc, 3.0)
        assert client.notifications == []
        # Alice walks over to Bob.
        svc.update(alice, Point(1390, 1390))
        drain(svc, 3.0)
        fired = [n for n in client.notifications if n.fired]
        assert len(fired) == 1
        assert "alice" in fired[0].matched and "bob" in fired[0].matched

    def test_untracked_objects_do_not_fire(self, svc):
        client = svc.new_client(entry_server="root.0")
        svc.run(
            client.subscribe(Proximity("ghost1", "ghost2", distance=50.0), poll_interval=1.0)
        )
        drain(svc, 5.0)
        assert client.notifications == []


class TestSubscriptionRouting:
    def test_non_leaf_rejects_subscription(self, svc):
        client = svc.new_client(entry_server="root")
        with pytest.raises(LocationServiceError):
            svc.run(
                client.subscribe(AreaOccupancy(Rect(0, 0, 10, 10)), poll_interval=1.0)
            )

    def test_evaluations_counted(self, svc):
        client = svc.new_client(entry_server="root.0")
        sub_id = svc.run(
            client.subscribe(
                AreaOccupancy(Rect(0, 0, 300, 300), threshold=1), poll_interval=1.0
            )
        )
        drain(svc, 5.5)
        sub = svc.servers["root.0"].events._subscriptions[sub_id]
        assert sub.evaluations >= 5

"""Tests for the batched server-tick update path (PR 1).

``LocationService.update_many`` must be observationally equivalent to a
sequence of individual ``report`` calls: in-area moves land in the agent
leaf's store (through one batched index pass per leaf), boundary
crossings still run the full handover protocol, and the hierarchy's
forwarding paths stay consistent throughout.
"""

import random

import pytest

from repro.core import LocationService, build_table2_hierarchy
from repro.core.geo_service import GeoLocationService
from repro.geo import GeoCoordinate, Point, Rect


@pytest.fixture
def svc(lane):
    return LocationService(build_table2_hierarchy(1500.0), sighting_ttl=1e9, **lane)


def leaf_areas(svc):
    return {
        leaf: svc.hierarchy.config(leaf).area for leaf in svc.hierarchy.leaf_ids()
    }


class TestFastLane:
    def test_in_area_batch_is_all_fast(self, svc):
        objs = [
            svc.register(f"o{i}", Point(100.0 + i, 100.0 + i)) for i in range(8)
        ]
        stats = svc.update_many(
            [(obj, Point(110.0 + i, 110.0 + i)) for i, obj in enumerate(objs)]
        )
        assert stats == {"fast": 8, "protocol": 0}
        for i in range(8):
            assert svc.pos_query(f"o{i}").pos == Point(110.0 + i, 110.0 + i)
        svc.check_consistency()

    def test_fast_lane_counts_as_server_updates(self, svc):
        obj = svc.register("a", Point(100, 100))
        agent = obj.agent
        before = svc.servers[agent].stats.updates
        svc.update_many([(obj, Point(101, 101))])
        assert svc.servers[agent].stats.updates == before + 1

    def test_fast_lane_updates_client_state(self, svc):
        obj = svc.register("a", Point(100, 100))
        svc.update_many([(obj, Point(120, 130))])
        assert obj.policy.estimate(svc.loop.now) == Point(120, 130)
        assert obj.agent is not None

    def test_repeated_object_in_batch_last_wins(self, svc):
        obj = svc.register("a", Point(100, 100))
        svc.update_many([(obj, Point(110, 110)), (obj, Point(115, 116))])
        assert svc.pos_query("a").pos == Point(115, 116)


class TestProtocolLane:
    def test_boundary_crossing_triggers_handover(self, svc):
        obj = svc.register("a", Point(100, 100))  # SW leaf
        old_agent = obj.agent
        stats = svc.update_many([(obj, Point(1200, 1200))])  # NE leaf
        assert stats == {"fast": 0, "protocol": 1}
        assert obj.agent != old_agent
        assert svc.pos_query("a").pos == Point(1200, 1200)
        svc.check_consistency()

    def test_mixed_batch(self, svc):
        stay = svc.register("stay", Point(200, 200))
        cross = svc.register("cross", Point(200, 300))
        stats = svc.update_many(
            [(stay, Point(210, 210)), (cross, Point(1300, 200))]
        )
        assert stats == {"fast": 1, "protocol": 1}
        assert svc.pos_query("stay").pos == Point(210, 210)
        assert svc.pos_query("cross").pos == Point(1300, 200)
        svc.check_consistency()

    def test_unregistered_object_goes_through_protocol_error(self, svc):
        obj = svc.new_tracked_object("ghost")
        from repro.errors import LocationServiceError

        with pytest.raises(LocationServiceError):
            svc.update_many([(obj, Point(100, 100))])

    def test_leaving_root_area_deregisters(self, svc):
        obj = svc.register("a", Point(100, 100))
        stats = svc.update_many([(obj, Point(5000, 5000))])
        assert stats["protocol"] == 1
        assert obj.deregistered
        assert svc.pos_query("a") is None


class TestEquivalenceWithSequentialReports:
    def test_random_walk_matches_individual_updates(self):
        """Batched ticks equal one-by-one reports, crossings included."""
        area = Rect(0, 0, 1500, 1500)

        def drive(batched):
            # Identical seed for both runs => identical move streams.
            rng = random.Random(3)
            svc = LocationService(build_table2_hierarchy(1500.0), sighting_ttl=1e9)
            objs = {}
            positions = {}
            for i in range(12):
                pos = Point(rng.uniform(0, 1500), rng.uniform(0, 1500))
                objs[f"o{i}"] = svc.register(f"o{i}", pos)
                positions[f"o{i}"] = pos
            for _ in range(6):
                moves = []
                for oid, obj in objs.items():
                    old = positions[oid]
                    pos = Point(
                        min(area.max_x, max(0.0, old.x + rng.uniform(-400, 400))),
                        min(area.max_y, max(0.0, old.y + rng.uniform(-400, 400))),
                    )
                    positions[oid] = pos
                    moves.append((obj, pos))
                if batched:
                    svc.update_many(moves)
                else:
                    for obj, pos in moves:
                        svc.update(obj, pos)
            svc.check_consistency()
            return {oid: svc.pos_query(oid).pos for oid in objs}

        assert drive(batched=True) == drive(batched=False)


class TestGeoFacade:
    def test_update_many_projects_coordinates(self):
        geo = GeoLocationService.city(
            GeoCoordinate(48.7758, 9.1829), extent_m=4000, depth=1
        )
        t1 = geo.register("t1", GeoCoordinate(48.7761, 9.1840))
        t2 = geo.register("t2", GeoCoordinate(48.7770, 9.1855))
        stats = geo.update_many(
            [
                (t1, GeoCoordinate(48.7763, 9.1842)),
                (t2, GeoCoordinate(48.7772, 9.1857)),
            ]
        )
        assert stats["fast"] + stats["protocol"] == 2
        coord, acc = geo.pos_query("t1")
        assert coord.latitude == pytest.approx(48.7763, abs=1e-6)
        assert coord.longitude == pytest.approx(9.1842, abs=1e-6)
        assert acc > 0


class TestBatchOrderingEdgeCases:
    def test_same_object_mixed_lanes_last_report_wins(self, svc):
        """Out-of-area report followed by in-area report for the same
        object: the batch is one tick, so only the last report lands."""
        obj = svc.register("a", Point(100, 100))
        stats = svc.update_many(
            [(obj, Point(1200, 1200)), (obj, Point(120, 120))]
        )
        assert stats == {"fast": 1, "protocol": 0}
        assert svc.pos_query("a").pos == Point(120, 120)
        svc.check_consistency()

    def test_unregistered_object_fails_before_anything_applies(self, svc):
        from repro.errors import LocationServiceError

        obj = svc.register("a", Point(100, 100))
        ghost = svc.new_tracked_object("ghost")
        with pytest.raises(LocationServiceError):
            svc.update_many([(obj, Point(150, 150)), (ghost, Point(1, 1))])
        # Upfront validation: the registered object's report was NOT applied.
        assert svc.pos_query("a").pos == Point(100, 100)

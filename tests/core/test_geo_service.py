"""Tests for the WGS84-facing facade."""

import pytest

from repro.core import GeoLocationService
from repro.geo import GeoCoordinate, haversine_distance
from repro.model import LocationDescriptor

STUTTGART = GeoCoordinate(48.7758, 9.1829)


@pytest.fixture
def geo():
    return GeoLocationService.city(STUTTGART, extent_m=4_000.0, depth=1)


class TestCoordinatePlumbing:
    def test_anchor_maps_to_center(self, geo):
        local = geo.to_local(STUTTGART)
        assert local.x == pytest.approx(0.0)
        assert local.y == pytest.approx(0.0)
        center = geo.service.hierarchy.root_area().center
        assert (center.x, center.y) == (0.0, 0.0)

    def test_roundtrip(self, geo):
        coord = GeoCoordinate(48.78, 9.19)
        back = geo.to_geo(geo.to_local(coord))
        assert back.latitude == pytest.approx(coord.latitude, abs=1e-9)
        assert back.longitude == pytest.approx(coord.longitude, abs=1e-9)


    def test_descriptor_to_geo(self, geo):
        point = geo.to_local(GeoCoordinate(48.7800, 9.1900))
        coord, acc = geo.descriptor_to_geo(LocationDescriptor(point, 42.0))
        assert acc == 42.0
        assert coord.latitude == pytest.approx(48.7800, abs=1e-9)
        assert coord.longitude == pytest.approx(9.1900, abs=1e-9)


class TestGeoApi:
    def test_register_and_pos_query(self, geo):
        near_station = GeoCoordinate(48.7840, 9.1829)
        geo.register("taxi", near_station)
        result = geo.pos_query("taxi")
        assert result is not None
        coord, acc = result
        assert acc == 25.0
        assert haversine_distance(coord, near_station) < 1.0

    def test_pos_query_unknown(self, geo):
        assert geo.pos_query("ghost") is None

    def test_update_moves_object(self, geo):
        taxi = geo.register("taxi", STUTTGART)
        north = GeoCoordinate(48.7850, 9.1829)
        geo.update(taxi, north)
        coord, _ = geo.pos_query("taxi")
        assert haversine_distance(coord, north) < 1.0

    def test_range_query_around(self, geo):
        geo.register("near", GeoCoordinate(48.7760, 9.1832))
        geo.register("far", GeoCoordinate(48.7900, 9.2000))
        answer = geo.range_query_around(
            STUTTGART, radius_m=300.0, req_acc=50.0, req_overlap=0.5
        )
        assert {oid for oid, _ in answer.entries} == {"near"}

    def test_neighbor_query(self, geo):
        geo.register("close", GeoCoordinate(48.7762, 9.1832))
        geo.register("distant", GeoCoordinate(48.7890, 9.1990))
        answer = geo.neighbor_query(STUTTGART, req_acc=50.0)
        assert answer.result.nearest[0] == "close"

    def test_deregister(self, geo):
        taxi = geo.register("taxi", STUTTGART)
        assert geo.deregister(taxi)
        assert geo.pos_query("taxi") is None

    def test_cross_leaf_movement(self, geo):
        taxi = geo.register("taxi", GeoCoordinate(48.7740, 9.1800))  # SW-ish
        geo.update(taxi, GeoCoordinate(48.7790, 9.1880))  # NE-ish
        geo.service.settle()
        geo.service.check_consistency()
        coord, _ = geo.pos_query("taxi")
        assert haversine_distance(coord, GeoCoordinate(48.7790, 9.1880)) < 1.0

"""Tests for service-model records (Section 3 / Fig. 2 semantics)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geo import Point
from repro.model import LocationDescriptor, RegistrationInfo, SightingRecord
from repro.model.records import InvalidRecordError

finite = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False)
acc = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


class TestLocationDescriptor:
    def test_negative_accuracy_rejected(self):
        with pytest.raises(InvalidRecordError):
            LocationDescriptor(Point(0, 0), -1.0)

    def test_location_area_is_circle(self):
        ld = LocationDescriptor(Point(10, 20), 5.0)
        assert ld.location_area.center == Point(10, 20)
        assert ld.location_area.radius == 5.0

    def test_could_contain_fig2_invariant(self):
        ld = LocationDescriptor(Point(0, 0), 10.0)
        assert ld.could_contain(Point(6, 8))      # distance 10, on boundary
        assert not ld.could_contain(Point(8, 8))  # distance ~11.3

    def test_zero_accuracy_is_exact(self):
        ld = LocationDescriptor(Point(5, 5), 0.0)
        assert ld.could_contain(Point(5, 5))
        assert not ld.could_contain(Point(5.001, 5))

    def test_with_accuracy(self):
        ld = LocationDescriptor(Point(0, 0), 10.0)
        assert ld.with_accuracy(20.0).acc == 20.0
        assert ld.with_accuracy(20.0).pos == ld.pos

    @given(st.builds(Point, finite, finite), acc, st.builds(Point, finite, finite))
    def test_could_contain_matches_distance(self, pos, accuracy, real):
        ld = LocationDescriptor(pos, accuracy)
        assert ld.could_contain(real) == (pos.distance_to(real) <= accuracy)


class TestSightingRecord:
    def test_empty_id_rejected(self):
        with pytest.raises(InvalidRecordError):
            SightingRecord("", 0.0, Point(0, 0), 1.0)

    def test_negative_sensor_accuracy_rejected(self):
        with pytest.raises(InvalidRecordError):
            SightingRecord("o", 0.0, Point(0, 0), -0.5)


class TestRegistrationInfo:
    def test_valid_range(self):
        info = RegistrationInfo("client-1", des_acc=10.0, min_acc=50.0)
        assert (info.des_acc, info.min_acc) == (10.0, 50.0)

    def test_inverted_range_rejected(self):
        # des_acc must be the *tighter* (smaller) bound.
        with pytest.raises(InvalidRecordError):
            RegistrationInfo("client-1", des_acc=50.0, min_acc=10.0)

    def test_negative_rejected(self):
        with pytest.raises(InvalidRecordError):
            RegistrationInfo("client-1", des_acc=-1.0, min_acc=10.0)

    def test_equal_bounds_allowed(self):
        info = RegistrationInfo("c", des_acc=25.0, min_acc=25.0)
        assert info.des_acc == info.min_acc == 25.0

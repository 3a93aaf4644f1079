"""Tests for accuracy negotiation (Algorithm 6-1 lines 3-8)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model import AccuracyModel, NegotiationError

acc = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


class TestAccuracyModel:
    def test_achievable_is_floor_plus_slack(self):
        model = AccuracyModel(sensor_floor=10.0, update_slack=5.0)
        assert model.achievable == 15.0

    def test_negative_parameters_rejected(self):
        with pytest.raises(NegotiationError):
            AccuracyModel(sensor_floor=-1.0)

    def test_negotiate_within_range(self):
        model = AccuracyModel(sensor_floor=10.0, update_slack=5.0)
        # Client desires 20 m, accepts up to 100 m; service can do 15 m,
        # so it offers exactly the desired 20 m.
        assert model.negotiate(des_acc=20.0, min_acc=100.0) == 20.0

    def test_negotiate_clamped_to_achievable(self):
        model = AccuracyModel(sensor_floor=10.0, update_slack=5.0)
        # Client desires 1 m; the service can only do 15 m but the client
        # accepts up to 30 m: offer 15 m.
        assert model.negotiate(des_acc=1.0, min_acc=30.0) == 15.0

    def test_negotiate_fails_when_too_coarse(self):
        model = AccuracyModel(sensor_floor=100.0, update_slack=0.0)
        assert model.negotiate(des_acc=1.0, min_acc=50.0) is None

    def test_inverted_range_raises(self):
        model = AccuracyModel()
        with pytest.raises(NegotiationError):
            model.negotiate(des_acc=100.0, min_acc=10.0)

    @given(des=acc, extra=acc)
    def test_offer_respects_both_bounds(self, des, extra):
        model = AccuracyModel(sensor_floor=10.0, update_slack=5.0)
        min_acc = des + extra
        offered = model.negotiate(des, min_acc)
        if offered is not None:
            # Never better than desired (privacy), never worse than minimum.
            assert des <= offered <= min_acc
            assert offered >= model.achievable
        else:
            assert model.achievable > min_acc

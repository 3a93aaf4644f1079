"""Tests for the soft-state expiry timer."""

from hypothesis import given
from hypothesis import strategies as st

from repro.storage import ExpiryTimer


class TestExpiryTimer:
    def test_empty(self):
        timer = ExpiryTimer()
        assert len(timer) == 0
        assert timer.pop_expired(1e9) == []

    def test_schedule_and_expire(self):
        timer = ExpiryTimer()
        timer.schedule("a", 10.0)
        timer.schedule("b", 20.0)
        assert timer.pop_expired(10.0) == ["a"]
        assert timer.pop_expired(19.9) == []
        assert timer.pop_expired(20.0) == ["b"]
        assert len(timer) == 0

    def test_renew_extends_deadline(self):
        timer = ExpiryTimer()
        timer.schedule("a", 10.0)
        timer.renew("a", 30.0)
        assert timer.pop_expired(29.9) == []
        assert timer.pop_expired(30.0) == ["a"]

    def test_renew_can_shorten(self):
        timer = ExpiryTimer()
        timer.schedule("a", 100.0)
        timer.renew("a", 5.0)
        assert timer.pop_expired(5.0) == ["a"]

    def test_cancel(self):
        timer = ExpiryTimer()
        timer.schedule("a", 10.0)
        timer.cancel("a")
        assert "a" not in timer
        assert timer.pop_expired(100.0) == []

    def test_cancel_unknown_is_noop(self):
        ExpiryTimer().cancel("ghost")

    def test_pop_order_is_deadline_order(self):
        timer = ExpiryTimer()
        timer.schedule("late", 30.0)
        timer.schedule("early", 10.0)
        timer.schedule("mid", 20.0)
        assert timer.pop_expired(100.0) == ["early", "mid", "late"]

    def test_stale_entries_skipped_on_pop(self):
        timer = ExpiryTimer()
        timer.schedule("a", 5.0)
        timer.renew("a", 50.0)
        timer.schedule("b", 20.0)
        assert timer.pop_expired(20.0) == ["b"]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["k1", "k2", "k3", "k4"]),
                st.floats(min_value=0, max_value=1000, allow_nan=False),
            ),
            max_size=50,
        ),
        st.floats(min_value=0, max_value=1000, allow_nan=False),
    )
    def test_matches_reference_model(self, operations, now):
        """The lazy heap behaves like a plain dict of deadlines."""
        timer = ExpiryTimer()
        model: dict[str, float] = {}
        for key, deadline in operations:
            timer.schedule(key, deadline)
            model[key] = deadline
        expired = timer.pop_expired(now)
        expected = {k for k, d in model.items() if d <= now}
        assert set(expired) == expected
        # Expired keys are gone; survivors keep their deadlines.
        survivors = {k: d for k, d in model.items() if d > now}
        for key in model:
            assert (key in timer) == (key in survivors)
        for deadline in sorted(set(survivors.values())):
            due = {k for k, d in survivors.items() if d == deadline}
            assert set(timer.pop_expired(deadline)) == due

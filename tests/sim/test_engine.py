"""Tests for the deterministic discrete-event engine."""

import pytest

from repro.sim.engine import COMPACT_MIN, SimLoop, SimulationError


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert SimLoop().now == 0.0

    def test_events_run_in_time_order(self):
        loop = SimLoop()
        order = []
        loop.call_at(3.0, lambda: order.append("c"))
        loop.call_at(1.0, lambda: order.append("a"))
        loop.call_at(2.0, lambda: order.append("b"))
        loop.run_until_idle()
        assert order == ["a", "b", "c"]
        assert loop.now == 3.0

    def test_equal_time_fifo(self):
        loop = SimLoop()
        order = []
        for i in range(5):
            loop.call_at(1.0, lambda i=i: order.append(i))
        loop.run_until_idle()
        assert order == [0, 1, 2, 3, 4]

    def test_call_later_relative(self):
        loop = SimLoop()
        seen = []
        loop.call_at(5.0, lambda: loop.call_later(2.0, lambda: seen.append(loop.now)))
        loop.run_until_idle()
        assert seen == [7.0]

    def test_scheduling_in_past_rejected(self):
        loop = SimLoop()
        loop.call_at(10.0, lambda: None)
        loop.run_until_idle()
        with pytest.raises(SimulationError):
            loop.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SimLoop().call_later(-1.0, lambda: None)

    def test_cancel(self):
        loop = SimLoop()
        fired = []
        handle = loop.call_at(1.0, lambda: fired.append(1))
        handle.cancel()
        loop.run_until_idle()
        assert fired == []

    def test_max_time_pauses(self):
        loop = SimLoop()
        fired = []
        loop.call_at(1.0, lambda: fired.append(1))
        loop.call_at(10.0, lambda: fired.append(2))
        loop.run_until_idle(max_time=5.0)
        assert fired == [1]
        assert loop.now == 5.0
        loop.run_until_idle()
        assert fired == [1, 2]

    def test_livelock_guard(self):
        loop = SimLoop()

        def respawn():
            loop.call_soon(respawn)

        loop.call_soon(respawn)
        with pytest.raises(SimulationError):
            loop.run_until_idle(max_events=1000)


class TestCancelledTimers:
    """Cancelled timers are dropped from the heap once they outnumber
    the live ones (asyncio's rule), and the pop order does not change."""

    def test_heap_is_rebuilt_without_cancelled_timers(self):
        loop = SimLoop()
        order = []
        handles = [loop.call_at(float(i % 7), lambda i=i: order.append(i)) for i in range(400)]
        for handle in handles[::2]:
            handle.cancel()
        assert len(loop._queue) == 400  # half cancelled: kept
        handles[1].cancel()
        assert len(loop._queue) == 199
        assert not any(entry[3].cancelled for entry in loop._queue)
        loop.run_until_idle()
        live = list(range(3, 400, 2))
        assert order == sorted(live, key=lambda i: (i % 7, i))
        assert loop._queue == [] and loop._cancelled == 0

    def test_small_heaps_are_left_alone(self):
        loop = SimLoop()
        handles = [loop.call_at(1.0, lambda: None) for _ in range(COMPACT_MIN)]
        for handle in handles:
            handle.cancel()
            handle.cancel()  # a second cancel counts once
        assert len(loop._queue) == COMPACT_MIN and loop._cancelled == COMPACT_MIN
        loop.run_until_idle()
        assert loop._queue == [] and loop._cancelled == 0


class TestFutures:
    def test_set_and_get(self):
        loop = SimLoop()
        future = loop.create_future()
        future.set_result(42)
        assert future.done()
        assert future.result() == 42

    def test_double_resolve_rejected(self):
        loop = SimLoop()
        future = loop.create_future()
        future.set_result(1)
        with pytest.raises(SimulationError):
            future.set_result(2)

    def test_result_before_done_rejected(self):
        with pytest.raises(SimulationError):
            SimLoop().create_future().result()

    def test_exception_propagates(self):
        loop = SimLoop()
        future = loop.create_future()
        future.set_exception(ValueError("boom"))
        with pytest.raises(ValueError):
            future.result()

    def test_callback_after_done_still_fires(self):
        loop = SimLoop()
        future = loop.create_future()
        future.set_result("x")
        seen = []
        future.add_done_callback(lambda f: seen.append(f.result()))
        loop.run_until_idle()
        assert seen == ["x"]


class TestTasks:
    def test_run_until_complete(self):
        loop = SimLoop()

        async def main():
            return 7

        assert loop.run_until_complete(main()) == 7

    def test_sleep_advances_virtual_time(self):
        loop = SimLoop()

        async def main():
            await loop.sleep(5.0)
            return loop.now

        assert loop.run_until_complete(main()) == 5.0

    def test_sequential_awaits(self):
        loop = SimLoop()
        timeline = []

        async def main():
            await loop.sleep(1.0)
            timeline.append(loop.now)
            await loop.sleep(2.0)
            timeline.append(loop.now)

        loop.run_until_complete(main())
        assert timeline == [1.0, 3.0]

    def test_concurrent_tasks_interleave(self):
        loop = SimLoop()
        timeline = []

        async def worker(name, delay):
            await loop.sleep(delay)
            timeline.append((loop.now, name))

        loop.create_task(worker("slow", 3.0))
        loop.create_task(worker("fast", 1.0))
        loop.run_until_idle()
        assert timeline == [(1.0, "fast"), (3.0, "slow")]

    def test_task_awaits_task(self):
        loop = SimLoop()

        async def producer():
            await loop.sleep(2.0)
            return "data"

        async def consumer():
            task = loop.create_task(producer())
            value = await task
            return value, loop.now

        assert loop.run_until_complete(consumer()) == ("data", 2.0)

    def test_exception_propagates_to_awaiter(self):
        loop = SimLoop()

        async def failing():
            raise RuntimeError("inner")

        async def outer():
            try:
                await loop.create_task(failing())
            except RuntimeError as exc:
                return str(exc)

        assert loop.run_until_complete(outer()) == "inner"

    def test_unawaited_failure_is_recorded(self):
        loop = SimLoop()

        async def failing():
            raise RuntimeError("lost")

        loop.create_task(failing())
        loop.run_until_idle()
        assert len(loop.task_errors) == 1
        assert "lost" in str(loop.task_errors[0][1])

    def test_incomplete_main_task_detected(self):
        loop = SimLoop()

        async def stuck():
            await loop.create_future()  # never resolved

        with pytest.raises(SimulationError):
            loop.run_until_complete(stuck())

    def test_awaiting_foreign_object_fails_cleanly(self):
        loop = SimLoop()

        async def bad():
            await object()  # type: ignore[misc]

        loop.create_task(bad())
        loop.run_until_idle()
        assert loop.task_errors


class TestCallbackBatching:
    """SimFuture drains multi-callback lists in one queue event."""

    def test_many_callbacks_fire_in_registration_order(self):
        loop = SimLoop()
        future = loop.create_future()
        order = []
        for i in range(6):
            future.add_done_callback(lambda fut, i=i: order.append(i))
        future.set_result("x")
        loop.run_until_idle()
        assert order == list(range(6))

    def test_single_queue_event_for_all_callbacks(self):
        loop = SimLoop()
        future = loop.create_future()
        for _ in range(5):
            future.add_done_callback(lambda fut: None)
        future.set_result(None)
        # All five callbacks ride one scheduled event.
        assert len(loop._queue) == 1

    def test_no_event_scheduled_without_callbacks(self):
        loop = SimLoop()
        future = loop.create_future()
        future.set_result(None)
        assert loop._queue == []

    def test_callback_added_after_resolution_runs_separately(self):
        loop = SimLoop()
        future = loop.create_future()
        future.set_result(1)
        seen = []
        future.add_done_callback(lambda fut: seen.append(fut.result()))
        loop.run_until_idle()
        assert seen == [1]

    def test_callbacks_see_result_and_interleave_consistently(self):
        loop = SimLoop()
        future = loop.create_future()
        order = []
        future.add_done_callback(lambda fut: order.append(("cb1", fut.result())))
        future.add_done_callback(
            lambda fut: loop.call_soon(lambda: order.append(("spawned", loop.now)))
        )
        future.add_done_callback(lambda fut: order.append(("cb3", fut.result())))
        loop.call_at(2.0, lambda: future.set_result("done"))
        loop.run_until_idle()
        # Work scheduled by a callback runs after the whole drain.
        assert order == [("cb1", "done"), ("cb3", "done"), ("spawned", 2.0)]

    def test_raising_callback_does_not_eat_successors(self):
        """A raising callback must not swallow the rest of the drain —
        each had its own queue event in the unbatched scheme."""
        loop = SimLoop()
        future = loop.create_future()
        seen = []

        def boom(fut):
            raise RuntimeError("boom")

        future.add_done_callback(lambda fut: seen.append("first"))
        future.add_done_callback(boom)
        future.add_done_callback(lambda fut: seen.append("after-boom"))
        future.set_result(None)
        with pytest.raises(RuntimeError):
            loop.run_until_idle()
        # The survivor was re-queued; resuming the loop runs it.
        loop.run_until_idle()
        assert seen == ["first", "after-boom"]

"""Deterministic discrete-event engine with async/await support.

The paper's distributed evaluation ran on five physical machines.  We
replace the testbed with a virtual-time simulation: this
module is the event loop.  It drives ordinary ``async def`` coroutines —
the same server code that runs under asyncio — against a *virtual* clock,
so distributed experiments are deterministic and independent of host
speed.

Design notes:

* Events fire in (time, sequence) order; equal-time events run in
  scheduling order, which makes runs reproducible.
* :class:`SimFuture` is a minimal awaitable future compatible with the
  ``await`` protocol; :class:`SimTask` is the coroutine driver.
* The loop is *not* thread-safe; simulations are single-threaded by
  construction.
* A cancelled timer stays in the heap until it is popped, unless
  cancelled timers grow past half of a heap of more than
  :data:`COMPACT_MIN` entries: then the heap is rebuilt without them
  (asyncio's rule).  Live events keep their (time, sequence) keys, so
  the pop order does not change.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Coroutine, Generator

from repro.errors import LocationServiceError


#: Heaps this small are never compacted (asyncio's
#: ``_MIN_SCHEDULED_TIMER_HANDLES``).
COMPACT_MIN = 100


class SimulationError(LocationServiceError):
    """Engine misuse (await across loops, double result, ...)."""


class SimFuture:
    """A single-assignment result container, awaitable from sim coroutines."""

    __slots__ = ("_loop", "_done", "_result", "_exception", "_callbacks")

    def __init__(self, loop: "SimLoop") -> None:
        self._loop = loop
        self._done = False
        self._result: Any = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["SimFuture"], None]] = []

    def done(self) -> bool:
        return self._done

    def set_result(self, result: Any) -> None:
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._result = result
        self._fire_callbacks()

    def set_exception(self, exception: BaseException) -> None:
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._exception = exception
        self._fire_callbacks()

    def result(self) -> Any:
        if not self._done:
            raise SimulationError("future is not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._result

    def add_done_callback(self, callback: Callable[["SimFuture"], None]) -> None:
        if self._done:
            self._loop.call_soon(lambda: callback(self))
        else:
            self._callbacks.append(callback)

    def _fire_callbacks(self) -> None:
        callbacks = self._callbacks
        if not callbacks:
            return
        self._callbacks = []
        # One queue event drains the whole list instead of allocating a
        # closure + heap entry per callback.  The callbacks were enqueued
        # back to back before, so running them consecutively inside a
        # single event preserves the observable order.
        if len(callbacks) == 1:
            callback = callbacks[0]
            self._loop.call_soon(lambda: callback(self))
        else:
            self._loop.call_soon(lambda: self._drain_callbacks(callbacks))

    def _drain_callbacks(self, callbacks: list[Callable[["SimFuture"], None]]) -> None:
        """Run queued callbacks in order; a raising callback must not eat
        its successors (each had its own queue event in the unbatched
        scheme, so the rest are re-queued before the error propagates).
        On that abnormal path the survivors run after any events earlier
        callbacks scheduled — a small departure from the unbatched
        interleaving, only observable when a done-callback raises."""
        for i, callback in enumerate(callbacks):
            try:
                callback(self)
            except BaseException:
                remaining = callbacks[i + 1 :]
                if remaining:
                    self._loop.call_soon(lambda: self._drain_callbacks(remaining))
                raise

    def __await__(self) -> Generator["SimFuture", None, Any]:
        if not self._done:
            yield self
        return self.result()


class SimTask:
    """Drives a coroutine over a :class:`SimLoop`.

    The task is itself future-like: awaiting it yields the coroutine's
    return value; exceptions propagate to the awaiter.  Unawaited task
    failures are collected in ``loop.task_errors`` so tests can assert
    that nothing crashed silently.
    """

    __slots__ = ("_loop", "_coro", "_future", "name")

    def __init__(self, loop: "SimLoop", coro: Coroutine, name: str = "task") -> None:
        self._loop = loop
        self._coro = coro
        self._future = SimFuture(loop)
        self.name = name
        loop.call_soon(lambda: self._step(None, None))

    def done(self) -> bool:
        return self._future.done()

    def result(self) -> Any:
        return self._future.result()

    def _step(self, value: Any, error: BaseException | None) -> None:
        try:
            if error is not None:
                yielded = self._coro.throw(error)
            else:
                yielded = self._coro.send(value)
        except StopIteration as stop:
            self._future.set_result(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - task boundary
            had_waiters = bool(self._future._callbacks)
            self._future.set_exception(exc)
            if not had_waiters:
                self._loop._note_task_error(self, exc)
            return
        if not isinstance(yielded, SimFuture):
            self._step(
                None,
                SimulationError(
                    f"sim task {self.name!r} awaited a non-sim awaitable: {yielded!r}"
                ),
            )
            return
        yielded.add_done_callback(self._resume)

    def _resume(self, future: SimFuture) -> None:
        try:
            value = future.result()
        except BaseException as exc:  # noqa: BLE001 - forwarded into coroutine
            self._step(None, exc)
            return
        self._step(value, None)

    def __await__(self) -> Generator[SimFuture, None, Any]:
        return self._future.__await__()


class TimerHandle:
    """Cancellation handle returned by :meth:`SimLoop.call_later`."""

    __slots__ = ("cancelled", "_loop")

    def __init__(self, loop: "SimLoop") -> None:
        self.cancelled = False
        self._loop = loop

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._loop._note_cancelled()


class SimLoop:
    """A minimal deterministic event loop over virtual time (seconds)."""

    __slots__ = ("_now", "_sequence", "_queue", "_cancelled", "task_errors")

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._queue: list[tuple[float, int, Callable[[], None], TimerHandle]] = []
        #: cancelled handles still in ``_queue``
        self._cancelled = 0
        #: (task, exception) pairs from tasks that died un-awaited.
        self.task_errors: list[tuple[SimTask, BaseException]] = []

    # -- clock & scheduling ---------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def call_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        if when < self._now:
            raise SimulationError(f"cannot schedule in the past ({when} < {self._now})")
        handle = TimerHandle(self)
        self._sequence += 1
        heapq.heappush(self._queue, (when, self._sequence, callback, handle))
        return handle

    def call_later(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, callback)

    def call_soon(self, callback: Callable[[], None]) -> TimerHandle:
        return self.call_at(self._now, callback)

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        queue = self._queue
        if len(queue) > COMPACT_MIN and 2 * self._cancelled > len(queue):
            queue[:] = [entry for entry in queue if not entry[3].cancelled]
            heapq.heapify(queue)
            self._cancelled = 0

    # -- futures & tasks --------------------------------------------------------

    def create_future(self) -> SimFuture:
        return SimFuture(self)

    def create_task(self, coro: Coroutine, name: str = "task") -> SimTask:
        return SimTask(self, coro, name=name)

    def sleep(self, delay: float) -> SimFuture:
        """A future that resolves ``delay`` virtual seconds from now."""
        future = self.create_future()
        self.call_later(delay, lambda: future.set_result(None))
        return future

    # -- execution ---------------------------------------------------------------

    def run_until_idle(self, max_time: float | None = None, max_events: int = 10_000_000) -> float:
        """Process events until the queue drains (or limits trip).

        Returns the final virtual time.
        """
        events = 0
        while self._queue:
            when, _, callback, handle = heapq.heappop(self._queue)
            if handle.cancelled:
                self._cancelled -= 1
                continue
            if max_time is not None and when > max_time:
                # Leave the event for a later run; freeze time at the cap.
                self._sequence += 1
                heapq.heappush(self._queue, (when, self._sequence, callback, handle))
                self._now = max_time
                return self._now
            self._now = when
            callback()
            events += 1
            if events >= max_events:
                raise SimulationError(f"exceeded {max_events} events; likely a livelock")
        return self._now

    def run_until_complete(self, coro: Coroutine, max_time: float | None = None) -> Any:
        """Drive a coroutine to completion and return its result.

        Stops as soon as the coroutine finishes — background periodic
        work (e.g. soft-state sweeps) keeps its pending events for later
        runs instead of keeping this call alive forever.
        """
        task = self.create_task(coro, name="main")
        events = 0
        while self._queue and not task.done():
            when, _, callback, handle = heapq.heappop(self._queue)
            if handle.cancelled:
                self._cancelled -= 1
                continue
            if max_time is not None and when > max_time:
                self._sequence += 1
                heapq.heappush(self._queue, (when, self._sequence, callback, handle))
                self._now = max_time
                break
            self._now = when
            callback()
            events += 1
            if events >= 10_000_000:
                raise SimulationError("exceeded 10000000 events; likely a livelock")
        if not task.done():
            raise SimulationError("loop went idle before the main task finished")
        return task.result()

    def _note_task_error(self, task: SimTask, exc: BaseException) -> None:
        self.task_errors.append((task, exc))

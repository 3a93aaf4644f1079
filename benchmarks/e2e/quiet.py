"""Stay on whichever processor core is quiet right now.

The sandbox's two cores belong to a shared host.  Each of them, on its own
and for ten to thirty seconds at a stretch, runs the same Python 1.3 to 1.8
times slower (a busy neighbour on the physical core); minutes apart the two
are rarely slow together.  A run that happened to sit on the slow core from
start to finish is what spread identical code by 20-50 % between runs.

So the benchmark pins itself to one core and, at every barrier between two
groups of operations — nothing is in flight there — times a fixed kernel of
about a millisecond.  While that reads as fast as the fastest reading of
this process, nothing else happens.  When it reads slow, the other cores
are tried and the process moves to the fastest.  The program under test
never runs while this does, and which core it runs on is not something it
can observe.
"""

from __future__ import annotations

import os
import time

#: a reading this far above the fastest one seen is a busy core.
SLOW = 1.15


def _kernel() -> None:
    """Dict and integer work, the kind the program does; ~0.8 ms."""
    table: dict[int, int] = {}
    for i in range(6000):
        table[i % 499] = table.get(i % 499, 0) + i


def reading() -> float:
    """Seconds the kernel takes here and now: the fastest of three, so a
    single interrupt does not pass for a busy core."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - started)
    return best


class QuietCore:
    def __init__(self) -> None:
        self.fastest = float("inf")
        self.moves = 0
        self.slow_starts = 0  # groups that began on a busy core all the same
        self.core = None  # wherever the scheduler puts the process
        try:
            self.cores = sorted(os.sched_getaffinity(0))
            # Start on the fastest core, knowing what every core reads.
            readings = {}
            for core in self.cores:
                self._pin(core)
                readings[core] = self._read()
            self._pin(min(readings, key=readings.get))
        except (AttributeError, OSError):  # no such call here, or not allowed
            self.cores = []

    def _pin(self, core: int) -> None:
        os.sched_setaffinity(0, {core})
        self.core = core

    def _read(self) -> float:
        seconds = reading()
        self.fastest = min(self.fastest, seconds)
        return seconds

    def settle(self) -> None:
        """Call at a barrier: if this core reads busy, move to the fastest."""
        here = self._read()
        if here <= SLOW * self.fastest:
            return
        home = self.core
        readings = {home: here}
        for core in self.cores:
            if core != home:
                self._pin(core)
                readings[core] = self._read()
        best = min(readings, key=readings.get)
        if best != self.core:
            self._pin(best)
        self.moves += best != home
        self.slow_starts += readings[best] > SLOW * self.fastest

"""Soft-state expiry of sighting records (paper Section 5).

"Each sighting record is associated with an expiration date, which is
extended accordingly whenever the visitor contacts the location server
[...].  When the sighting record expires, the visitor is automatically
deregistered."

The timer is a lazy-deletion heap: renewals push a fresh entry with a new
version instead of rebuilding the heap, and stale entries are skipped on
pop.  All times are plain floats so both the virtual simulation clock and
wall clocks can drive it.
"""

from __future__ import annotations

import heapq


class ExpiryTimer:
    """Tracks per-key deadlines and pops the keys whose deadline passed."""

    __slots__ = ("_heap", "_deadline", "_version")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, str]] = []
        self._deadline: dict[str, float] = {}
        self._version: dict[str, int] = {}

    def schedule(self, key: str, deadline: float) -> None:
        """Set (or move) the deadline for ``key``."""
        version = self._version.get(key, 0) + 1
        self._version[key] = version
        self._deadline[key] = deadline
        heapq.heappush(self._heap, (deadline, version, key))

    def renew(self, key: str, deadline: float) -> None:
        """Alias of :meth:`schedule`, matching the paper's wording."""
        self.schedule(key, deadline)

    def cancel(self, key: str) -> None:
        """Stop tracking ``key`` (explicit deregistration)."""
        self._deadline.pop(key, None)
        self._version.pop(key, None)

    def pop_expired(self, now: float) -> list[str]:
        """All keys whose deadline is ``<= now``, removed from the timer."""
        expired = []
        while self._heap:
            self._drop_stale_head()
            if not self._heap or self._heap[0][0] > now:
                break
            _, _, key = heapq.heappop(self._heap)
            del self._deadline[key]
            del self._version[key]
            expired.append(key)
        return expired

    def _drop_stale_head(self) -> None:
        heap = self._heap
        while heap:
            deadline, version, key = heap[0]
            if self._version.get(key) == version and self._deadline.get(key) == deadline:
                return
            heapq.heappop(heap)

    def __len__(self) -> int:
        return len(self._deadline)

    def __contains__(self, key: str) -> bool:
        return key in self._deadline

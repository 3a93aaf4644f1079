"""Columnar point storage: the million-object hot path (ROADMAP dir. 3).

At 10^6+ tracked objects the object-per-sighting design pays the
interpreter, not the algorithm: every update allocates a ``Point``,
touches two dicts and rewrites a per-object record.  This module stores
the hot state as **contiguous columns** instead — one float64 array per
attribute (x, y, and whatever extra columns the sighting DB registers:
timestamp, accuracy, expiry deadline), an id ↔ slot map, a free list
that recycles slots after deregistration, and amortized doubling growth.
A position update is then two column stores; a *batched* update is one
vectorized scatter (``xs[slots] = new_xs``) costing nanoseconds per
object instead of microseconds.

Queries take the opposite trade: with no cell/tree structure to
maintain, a rect query is a vectorized boolean mask over the whole
column (branch-free SIMD compare, ~1 ms per 10^6 entries) and
nearest-neighbor is a vectorized distance computation plus a partial
sort.  For the paper's update-dominant workload (Table 1: updates
outnumber queries by an order of magnitude) this is the right corner of
the design space, and every service leaf's default store; the paper's
quadtree stays as the ``objects`` backend's index (the ablation).

Dead slots are marked by an ``nan`` sentinel in every column: IEEE
comparisons with nan are false, so vectorized masks skip free slots for
free.  (Coordinates are validated non-nan on the way in; the runtime
validation layer already quarantines nan positions at the protocol
boundary.)

Slot handles
------------

Callers that update the same population every tick (the streaming sim
lane) resolve their object ids to a :class:`SlotHandle` once and then
scatter positions directly, skipping the per-id dict lookup entirely.
Any mutation that changes the id ↔ slot mapping (insert, remove,
bulk load, compact, clear) bumps the engine's ``version``; a handle
stamped with an older version is refused with :class:`StaleHandleError`
and must be re-resolved — so a deregistration between ticks can never
silently redirect a walker's update into a recycled slot.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import StorageError
from repro.geo import Point, Rect
from repro.spatial.base import NeighborHit, SpatialIndex

_NAN = float("nan")
_INF = float("inf")


class StaleHandleError(StorageError):
    """A :class:`SlotHandle` outlived a slot-mapping change; re-resolve."""


class SlotHandle:
    """A resolved id → slot mapping, valid for one engine ``version``."""

    __slots__ = ("slots", "version", "object_ids")

    def __init__(self, slots, version: int, object_ids: tuple[str, ...]) -> None:
        self.slots = slots  # np.intp array
        self.version = version
        self.object_ids = object_ids

    def __len__(self) -> int:
        return len(self.slots)


class ColumnarIndex(SpatialIndex):
    """Column-table point index with free-list slot reuse.

    Args:
        capacity: initial slot capacity (grown by doubling).
    """

    __slots__ = (
        "_capacity",
        "_size",
        "_next",
        "_ids",
        "_slot_of",
        "_free",
        "_cols",
        "_fills",
        "_version",
    )

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._size = 0  # live entries
        self._next = 0  # high-water mark: slots >= _next never allocated
        self._ids: list[str | None] = [None] * capacity
        self._slot_of: dict[str, int] = {}
        self._free: list[int] = []
        self._cols: dict[str, object] = {}
        self._fills: dict[str, float] = {}
        self._version = 0
        self.add_column("x")
        self.add_column("y")

    # -- engine: columns, slots, growth --------------------------------------

    def add_column(self, name: str, fill: float = _NAN) -> None:
        """Register an extra float64 column (e.g. the sighting DB's
        timestamp column), grown in lockstep with x/y."""
        if name in self._cols:
            raise StorageError(f"column {name!r} already registered")
        self._cols[name] = np.full(self._capacity, fill, dtype=np.float64)
        self._fills[name] = fill

    def column(self, name: str):
        """The raw column array; only live slots hold meaningful values."""
        return self._cols[name]

    def _grow(self, needed: int) -> None:
        new_cap = max(64, self._capacity)
        while new_cap < needed:
            new_cap *= 2
        if new_cap == self._capacity:
            return
        for name, col in self._cols.items():
            grown = np.full(new_cap, self._fills[name], dtype=np.float64)
            grown[: self._capacity] = col
            self._cols[name] = grown
        self._ids.extend([None] * (new_cap - self._capacity))
        self._capacity = new_cap

    def alloc_slot(self, object_id: str) -> int:
        """Give an id the caller checked is absent a slot (the most
        recently freed one first) and bump the version; the caller writes
        the columns, so the sighting DB sets its extra columns at the same
        slot."""
        self._version += 1
        if self._free:
            slot = self._free.pop()
        else:
            if self._next >= self._capacity:
                self._grow(self._next + 1)
            slot = self._next
            self._next += 1
        self._ids[slot] = object_id
        self._slot_of[object_id] = slot
        self._size += 1
        return slot

    @property
    def version(self) -> int:
        """Bumped on every id ↔ slot mapping change (handle validity)."""
        return self._version

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def free_slots(self) -> int:
        return len(self._free)

    def slot_of(self, object_id: str) -> int:
        """The live slot for an id; ``KeyError`` if absent."""
        return self._slot_of[object_id]

    def id_at(self, slot: int) -> str | None:
        """The id occupying a slot (``None`` for free slots)."""
        return self._ids[slot]

    def check_handle(self, handle: SlotHandle) -> None:
        if handle.version != self._version:
            raise StaleHandleError(
                "slot handle is stale (the id/slot mapping changed since it "
                "was issued)"
            )

    # -- mutation (object API) -----------------------------------------------

    def insert(self, object_id: str, point: Point) -> None:
        if object_id in self._slot_of:
            raise KeyError(f"duplicate insert for {object_id!r}")
        slot = self.alloc_slot(object_id)
        self._cols["x"][slot] = point.x
        self._cols["y"][slot] = point.y

    def remove(self, object_id: str) -> Point:
        slot = self._slot_of[object_id]  # KeyError if absent, per contract
        point = Point(float(self._cols["x"][slot]), float(self._cols["y"][slot]))
        self.remove_many((object_id,))
        return point

    def remove_many(self, object_ids: Iterable[str]) -> None:
        """Remove each id with one version bump and one fill per column
        (``KeyError`` before anything changes if an id is absent or
        repeated); the freed slots join the free list in the order per-id
        removes would leave them, so slot reuse is unchanged."""
        slot_of = self._slot_of
        pairs = [(oid, slot_of[oid]) for oid in object_ids]
        if not pairs:
            return
        slots = [slot for _, slot in pairs]
        if len(set(slots)) != len(slots):
            raise KeyError("duplicate id in remove_many batch")
        self._version += 1
        ids = self._ids
        for oid, slot in pairs:
            del slot_of[oid]
            ids[slot] = None
        for name, col in self._cols.items():
            col[slots] = self._fills[name]
        self._free.extend(slots)
        self._size -= len(slots)

    def update(self, object_id: str, point: Point) -> None:
        slot = self._slot_of[object_id]
        self._cols["x"][slot] = point.x
        self._cols["y"][slot] = point.y

    def update_many(self, moves: Iterable[tuple[str, Point]]) -> None:
        slot_of = self._slot_of
        xs = self._cols["x"]
        ys = self._cols["y"]
        for object_id, point in moves:
            slot = slot_of[object_id]
            xs[slot] = point.x
            ys[slot] = point.y

    def update_slots(self, handle: SlotHandle, xs, ys) -> None:
        """Vectorized scatter of new positions into resolved slots.

        ``xs``/``ys`` are sequences (numpy arrays, typically) positionally
        matching ``handle.object_ids``.
        """
        self.check_handle(handle)
        if len(xs) != len(handle.slots) or len(ys) != len(handle.slots):
            raise ValueError("position arrays must match the handle length")
        self._cols["x"][handle.slots] = xs
        self._cols["y"][handle.slots] = ys

    def fill_slots(self, name: str, handle: SlotHandle, value) -> None:
        """Scatter a scalar (or per-slot sequence) into an extra column."""
        self.check_handle(handle)
        self._cols[name][handle.slots] = value

    def bulk_load(self, entries: Iterable[tuple[str, Point]]) -> None:
        fresh = self._validated_batch(entries)
        ids = list(fresh)
        xs = [fresh[oid].x for oid in ids]
        ys = [fresh[oid].y for oid in ids]
        self._bulk_alloc(ids, xs, ys)

    def bulk_load_arrays(self, object_ids: Sequence[str], xs, ys) -> SlotHandle:
        """Array-native bulk load; returns the handle for the new slots.

        Validates ids exactly like :meth:`bulk_load` (no duplicates within
        the batch or against the current contents) before anything lands.
        """
        if len(object_ids) != len(xs) or len(object_ids) != len(ys):
            raise ValueError("id and coordinate arrays must have equal length")
        if len(set(object_ids)) != len(object_ids):
            raise KeyError("duplicate insert within bulk_load_arrays batch")
        slot_of = self._slot_of
        for oid in object_ids:
            if oid in slot_of:
                raise KeyError(f"duplicate insert for {oid!r}")
        slots = np.asarray(self._bulk_alloc(list(object_ids), xs, ys), dtype=np.intp)
        return SlotHandle(slots, self._version, tuple(object_ids))

    def _bulk_alloc(self, ids: list[str], xs, ys) -> list[int]:
        """Allocate slots for pre-validated ids and store coordinates.

        The common registration shape — no free slots yet — takes one
        contiguous range and two vectorized column writes; recycled
        slots (after deregistration churn) fall back to
        :meth:`alloc_slot`.
        """
        if self._free:
            slots = list(map(self.alloc_slot, ids))
            self._cols["x"][slots] = xs
            self._cols["y"][slots] = ys
            return slots
        self._version += 1
        n = len(ids)
        start = self._next
        self._grow(start + n)
        stop = start + n
        self._ids[start:stop] = ids
        slots = list(range(start, stop))
        self._slot_of.update(zip(ids, slots))
        self._cols["x"][start:stop] = xs
        self._cols["y"][start:stop] = ys
        self._next = stop
        self._size += n
        return slots

    def clear(self) -> None:
        """Drop every entry, keeping the registered column layout."""
        self._version += 1
        self._size = 0
        self._next = 0
        self._ids = [None] * self._capacity
        self._slot_of.clear()
        self._free.clear()
        for name in self._cols:
            self._cols[name] = np.full(self._capacity, self._fills[name], dtype=np.float64)

    def compact(self) -> None:
        """Densify the columns when fragmentation got significant.

        Long deregistration churn leaves free slots interleaved with live
        ones; queries still skip them (nan sentinel) but pay the scan.
        When more than half the allocated range is free, re-pack every
        live entry into the low slots (one vectorized gather per column)
        and reset the free list.  Bumps ``version`` — outstanding
        handles must re-resolve.
        """
        if not self._free or len(self._free) * 2 < self._next:
            return
        live = [slot for slot, oid in enumerate(self._ids[: self._next]) if oid is not None]
        self._version += 1
        new_ids: list[str | None] = [None] * self._capacity
        gather = np.asarray(live, dtype=np.intp)
        for name, col in self._cols.items():
            packed = np.full(self._capacity, self._fills[name], dtype=np.float64)
            packed[: len(live)] = col[gather]
            self._cols[name] = packed
        for new_slot, old_slot in enumerate(live):
            oid = self._ids[old_slot]
            new_ids[new_slot] = oid
            self._slot_of[oid] = new_slot
        self._ids = new_ids
        self._next = len(live)
        self._free.clear()

    # -- lookup & queries ------------------------------------------------------

    def get(self, object_id: str) -> Point | None:
        slot = self._slot_of.get(object_id)
        if slot is None:
            return None
        return Point(float(self._cols["x"][slot]), float(self._cols["y"][slot]))

    def __len__(self) -> int:
        return self._size

    def items(self) -> Iterator[tuple[str, Point]]:
        xs = self._cols["x"]
        ys = self._cols["y"]
        for slot, oid in enumerate(self._ids[: self._next]):
            if oid is not None:
                yield oid, Point(float(xs[slot]), float(ys[slot]))

    def live_slots(self) -> Iterator[tuple[int, str]]:
        """All ``(slot, object_id)`` pairs currently occupied."""
        for slot, oid in enumerate(self._ids[: self._next]):
            if oid is not None:
                yield slot, oid

    def _rect_mask(self, rect: Rect):
        """Boolean mask over the allocated slots: live and inside a
        closed rect (free slots hold nan, which compares false)."""
        n = self._next
        vx = self._cols["x"][:n]
        vy = self._cols["y"][:n]
        mask = (vx >= rect.min_x) & (vx <= rect.max_x)
        mask &= (vy >= rect.min_y) & (vy <= rect.max_y)
        return mask

    def query_rect(self, rect: Rect) -> Iterator[tuple[str, Point]]:
        xs = self._cols["x"]
        ys = self._cols["y"]
        ids = self._ids
        for slot in self._rect_mask(rect).nonzero()[0].tolist():
            yield ids[slot], Point(float(xs[slot]), float(ys[slot]))

    def counts_in_rects(self, rects: Iterable[Rect]) -> list[int]:
        """Entry counts per rect without materializing a single Point.

        The planner's cut-costing primitive: each rect is one vectorized
        mask + popcount over the columns.
        """
        return [int(np.count_nonzero(self._rect_mask(rect))) for rect in rects]

    def nearest(
        self, point: Point, k: int = 1, max_distance: float = _INF
    ) -> list[NeighborHit]:
        if k < 1 or self._size == 0:
            return []
        ids = self._ids
        xs = self._cols["x"]
        ys = self._cols["y"]
        n = self._next
        dx = xs[:n] - point.x
        dy = ys[:n] - point.y
        d2 = dx * dx + dy * dy
        if math.isinf(max_distance):
            cand = np.nonzero(~np.isnan(d2))[0]
        else:
            # A hair of slack so the exact scalar distance below (the
            # same arithmetic the other indexes use) decides the
            # boundary, not the squared prefilter's rounding.
            cand = np.nonzero(d2 <= (max_distance * max_distance) * (1.0 + 1e-9))[0]
        if cand.size == 0:
            return []
        if cand.size > k:
            kth = np.partition(d2[cand], k - 1)[k - 1]
            cand = cand[d2[cand] <= kth * (1.0 + 1e-9)]
        hits = []
        for slot in cand.tolist():
            p = Point(float(xs[slot]), float(ys[slot]))
            d = point.distance_to(p)
            if d > max_distance:
                continue
            hits.append(NeighborHit(ids[slot], p, d))
        hits.sort(key=lambda h: (h.distance, h.object_id))
        return hits[:k]

    # -- diagnostics -----------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate column storage footprint (excludes the id maps)."""
        return sum(col.nbytes for col in self._cols.values())

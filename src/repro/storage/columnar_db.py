"""Columnar sighting database: sightings as columns, not objects.

:class:`~repro.storage.sighting_db.SightingDB` keeps one frozen
``SightingRecord`` per visitor plus a heap-based expiry timer — at 10^6
visitors that is millions of small allocations per simulated minute.
:class:`ColumnarSightingDB` keeps the same *logical* contents in the
:class:`~repro.spatial.columnar.ColumnarIndex` column table instead:
the engine's x/y columns double as the spatial index, and three extra
columns registered here hold each sighting's timestamp (``t``), sensed
accuracy (``acc``) and soft-state expiry deadline (``deadline``).  A
``SightingRecord`` is materialized only when a caller actually asks for
one; the tick-rate hot path (:meth:`update_positions`) never builds any.
A batch lands from its :class:`~repro.model.SightingColumns` view (an
envelope off the wire is one) as five fancy-index stores, the newest
sighting rule one compare on ``t``; a one-record call writes one slot.

Soft state lives in the ``deadline`` column rather than an
:class:`~repro.storage.soft_state.ExpiryTimer` heap: renewing a record's
lifetime is one float store, and :meth:`expire_due` is a vectorized
``deadline <= now`` scan.  Dead slots hold ``nan`` deadlines, which
compare false, so free-list reuse needs no timer bookkeeping at all.
Deadlines armed for ids *without* a sighting yet (crash recovery —
:meth:`schedule_expiry`) are the rare case and sit in a side dict.

The public surface is the exact :class:`SightingDB` contract — the
location server, handover, recovery and query layers run unmodified on
either backend; the equivalence property suite drives both with the
same operation interleavings and asserts identical answers.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import StorageError
from repro.model import SightingColumns, SightingRecord
from repro.geo import Point, Rect
from repro.spatial.columnar import ColumnarIndex, SlotHandle
from repro.storage.sighting_db import DEFAULT_TTL, SightingDB


class ColumnarSightingDB(SightingDB):
    """Drop-in :class:`SightingDB` backed by contiguous columns."""

    __slots__ = ("_pending_expiry",)

    def __init__(
        self,
        index: ColumnarIndex | None = None,
        default_ttl: float = DEFAULT_TTL,
    ) -> None:
        if index is None:
            index = ColumnarIndex()
        elif not isinstance(index, ColumnarIndex):
            raise StorageError(
                "ColumnarSightingDB requires a ColumnarIndex (its columns "
                f"hold the sighting state), got {type(index).__name__}"
            )
        # The record dict and timer are replaced by columns; leaving the
        # parent slots unset makes any missed override fail loudly.
        self._index = index
        self._default_ttl = default_ttl
        for name in ("t", "acc", "deadline"):
            index.add_column(name)
        #: deadlines armed for ids that have no sighting slot (recovery).
        self._pending_expiry: dict[str, float] = {}

    # -- record materialization ------------------------------------------------

    def _record_at(self, slot: int, oid: str) -> SightingRecord:
        cols = self._index._cols
        return SightingRecord(
            oid,
            cols["t"].item(slot),
            Point(cols["x"].item(slot), cols["y"].item(slot)),
            cols["acc"].item(slot),
        )

    def _write(self, slot: int, sighting: SightingRecord, deadline: float) -> None:
        """One sighting into one slot: five scalar stores, no array set-up."""
        cols = self._index._cols
        cols["x"][slot] = sighting.pos.x
        cols["y"][slot] = sighting.pos.y
        cols["t"][slot] = sighting.timestamp
        cols["acc"][slot] = sighting.acc_sens
        cols["deadline"][slot] = deadline

    def _scatter(self, slots: list, view: SightingColumns, deadline: float, newest=True) -> None:
        """``view``'s items into ``slots``: five fancy-index stores.  A slot
        named twice takes its item with the largest ``t`` (``newest``) or
        its last item, on a tie the later one, as one-by-one writes would;
        with ``newest`` a slot whose stored sighting is newer keeps it."""
        columns = [np.array(slots, dtype=np.intp), view.t, view.x, view.y, view.acc]
        if len(set(slots)) < len(slots):
            at, t = columns[:2]
            order = np.arange(len(slots))
            order = np.lexsort((order, t, at) if newest else (order, at))
            ordered = at[order]
            last = order[np.append(ordered[1:] != ordered[:-1], True)]  # each slot's last
            columns = [column[last] for column in columns]
        cols = self._index._cols
        if newest:
            stale = cols["t"][columns[0]] > columns[1]  # a fresh slot's nan: written
            if stale.nonzero()[0].size:
                columns = [column[~stale] for column in columns]
        at, t, x, y, acc = columns
        cols["t"][at], cols["x"][at], cols["y"][at], cols["acc"][at] = t, x, y, acc
        cols["deadline"][at] = deadline

    def _deadline(self, now: float, ttl: float | None) -> float:
        return now + (ttl if ttl is not None else self._default_ttl)

    # -- mutation ---------------------------------------------------------------

    def insert(self, sighting: SightingRecord, now: float = 0.0, ttl: float | None = None) -> None:
        oid = sighting.object_id
        if oid in self:
            raise KeyError(f"sighting for {oid!r} already present; use update()")
        self.upsert(sighting, now, ttl)

    def update(self, sighting: SightingRecord, now: float = 0.0, ttl: float | None = None) -> None:
        slot = self._index.slot_of(sighting.object_id)  # KeyError(oid) if absent
        self._write(slot, sighting, self._deadline(now, ttl))

    def upsert(self, sighting: SightingRecord, now: float = 0.0, ttl: float | None = None) -> None:
        index, oid = self._index, sighting.object_id
        slot = index._slot_of.get(oid)
        if slot is None:
            slot = index.alloc_slot(oid)
            self._pending_expiry.pop(oid, None)
        elif index._cols["t"][slot] > sighting.timestamp:
            return  # the newest sighting wins, whatever the arrival order
        self._write(slot, sighting, self._deadline(now, ttl))

    def update_many(
        self,
        sightings: Iterable[SightingRecord],
        now: float = 0.0,
        ttl: float | None = None,
    ) -> None:
        view = SightingColumns.of(sightings)
        slots = list(map(self._index.slot_of, view.ids))  # KeyError before any write
        self._scatter(slots, view, self._deadline(now, ttl), newest=False)

    def upsert_many(
        self,
        sightings: Iterable[SightingRecord],
        now: float = 0.0,
        ttl: float | None = None,
    ) -> None:
        view = SightingColumns.of(sightings)
        index = self._index
        slots = list(map(index._slot_of.get, view.ids))
        if None in slots:  # unknown ids get slots in arrival order
            for oid in view.ids:
                if oid not in index._slot_of:
                    index.alloc_slot(oid)
                    self._pending_expiry.pop(oid, None)
            slots = list(map(index._slot_of.__getitem__, view.ids))
        self._scatter(slots, view, self._deadline(now, ttl))

    def bulk_insert(
        self,
        sightings: Iterable[SightingRecord],
        now: float = 0.0,
        ttl: float | None = None,
    ) -> None:
        view = SightingColumns.of(sightings)
        for oid in view.ids:
            if oid in self:
                raise KeyError(f"sighting for {oid!r} already present; use update()")
        slots = self._index.bulk_load_arrays(view.ids, view.x, view.y).slots
        cols = self._index._cols
        cols["t"][slots], cols["acc"][slots] = view.t, view.acc
        cols["deadline"][slots] = self._deadline(now, ttl)
        for oid in view.ids:
            self._pending_expiry.pop(oid, None)

    def remove(self, object_id: str) -> SightingRecord:
        slot = self._index.slot_of(object_id)  # KeyError if absent
        record = self._record_at(slot, object_id)
        self.remove_many((object_id,))
        return record

    def remove_many(self, object_ids: Iterable[str]) -> None:
        ids = list(object_ids)
        self._index.remove_many(ids)  # nan-fills every column; KeyError first
        for oid in ids:
            self._pending_expiry.pop(oid, None)

    def clear(self) -> None:
        self._index.clear()
        self._pending_expiry.clear()

    # -- lookup -----------------------------------------------------------------

    def get(self, object_id: str) -> SightingRecord | None:
        slot = self._index._slot_of.get(object_id)
        return None if slot is None else self._record_at(slot, object_id)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._index._slot_of

    def __len__(self) -> int:
        return len(self._index)

    def object_ids(self) -> Iterator[str]:
        for _slot, oid in self._index.live_slots():
            yield oid

    def records(self) -> Iterator[SightingRecord]:
        for slot, oid in self._index.live_slots():
            yield self._record_at(slot, oid)

    # -- queries ----------------------------------------------------------------
    # objects_in_area(s), positions_in_rect(s) and nearest_neighbors are
    # inherited: they only touch self._index and the acc_of callback.

    def counts_in_rects(self, rects: Iterable[Rect]) -> list[int]:
        """Vectorized popcounts — no candidate materialization at all."""
        return self._index.counts_in_rects(list(rects))

    # -- soft state -------------------------------------------------------------

    def schedule_expiry(self, object_id: str, now: float, ttl: float | None = None) -> None:
        deadline = self._deadline(now, ttl)
        try:
            slot = self._index.slot_of(object_id)
        except KeyError:
            self._pending_expiry[object_id] = deadline
        else:
            self._index.column("deadline")[slot] = deadline

    def expire_due(self, now: float) -> list[str]:
        index = self._index
        col_dl = index.column("deadline")
        due = col_dl[: index._next] <= now  # nan compares false
        expired = [index.id_at(slot) for slot in due.nonzero()[0].tolist()]
        index.remove_many(expired)
        for oid, deadline in list(self._pending_expiry.items()):
            if deadline <= now:
                del self._pending_expiry[oid]
                expired.append(oid)
        return expired

    # -- array-native fast lane --------------------------------------------------

    def update_positions(
        self,
        handle: SlotHandle,
        xs,
        ys,
        now: float,
        acc=None,
        ttl: float | None = None,
    ) -> None:
        """The tick-rate hot path: scatter new positions for a resolved
        population and stamp timestamp + deadline, allocating nothing.

        Raises :class:`~repro.spatial.columnar.StaleHandleError` when the
        slot mapping changed since the handle was resolved (a walker
        deregistered, a migration landed) — re-resolve and retry.
        """
        index = self._index
        index.update_slots(handle, xs, ys)
        index.fill_slots("t", handle, now)
        index.fill_slots("deadline", handle, self._deadline(now, ttl))
        if acc is not None:
            index.fill_slots("acc", handle, acc)

    def bulk_insert_arrays(
        self,
        object_ids: Sequence[str],
        xs,
        ys,
        now: float,
        acc: float,
        ttl: float | None = None,
    ) -> SlotHandle:
        """Array-native registration: admit a whole population in one
        bulk load and return the handle for subsequent ticks."""
        handle = self._index.bulk_load_arrays(object_ids, xs, ys)
        index = self._index
        index.fill_slots("t", handle, now)
        index.fill_slots("acc", handle, acc)
        index.fill_slots("deadline", handle, self._deadline(now, ttl))
        for oid in object_ids:
            self._pending_expiry.pop(oid, None)
        return handle

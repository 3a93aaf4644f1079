"""The main-memory sighting database (paper Section 5 and Fig. 7).

Leaf servers store one sighting record per visitor in volatile memory,
indexed two ways:

* a **hash index** over object identifiers (``sightingDB.objectHash``)
  for position queries, and
* a **spatial index** over positions (``sightingDB.spatialIndex``) for
  range and nearest-neighbor queries.

The DB also owns the soft-state expiry timer: every insert/update renews
the record's expiration date; :meth:`expire_due` pops the visitors whose
records lapsed so the server can deregister them hierarchy-wide.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator

from repro.geo import Point, Rect
from repro.model import (
    LocationDescriptor,
    NearestNeighborQuery,
    NearestNeighborResult,
    ObjectEntry,
    RangeQuery,
    SightingRecord,
    candidate_bounds,
    nearest_neighbor,
    qualifying_indexes,
)
from repro.spatial import SpatialIndex, make_index
from repro.storage.soft_state import ExpiryTimer

#: Default sighting time-to-live, seconds.  An object updating at the
#: paper's reference rate (3 km/h with 25 m accuracy ⇒ one update every
#: ~30 s) refreshes its record many times within this window.
DEFAULT_TTL = 300.0


class SightingDB:
    """Volatile store of sighting records with hash + spatial indexes."""

    __slots__ = ("_records", "_index", "_timer", "_default_ttl")

    def __init__(
        self,
        index: SpatialIndex | None = None,
        default_ttl: float = DEFAULT_TTL,
    ) -> None:
        """
        Args:
            index: spatial index instance; defaults to a fresh
                :class:`~repro.spatial.quadtree.PointQuadtree`, the
                paper's choice.
            default_ttl: soft-state lifetime for records whose insert does
                not specify one.
        """
        self._records: dict[str, SightingRecord] = {}
        self._index = index if index is not None else make_index("quadtree")
        self._timer = ExpiryTimer()
        self._default_ttl = default_ttl

    # -- mutation --------------------------------------------------------------

    def insert(self, sighting: SightingRecord, now: float = 0.0, ttl: float | None = None) -> None:
        """Store a new visitor's sighting (registration or handover arrival)."""
        oid = sighting.object_id
        if oid in self._records:
            raise KeyError(f"sighting for {oid!r} already present; use update()")
        self._records[oid] = sighting
        self._index.insert(oid, sighting.pos)
        self._timer.schedule(oid, now + (ttl if ttl is not None else self._default_ttl))

    def update(self, sighting: SightingRecord, now: float = 0.0, ttl: float | None = None) -> None:
        """Refresh an existing visitor's sighting (position update)."""
        oid = sighting.object_id
        if oid not in self._records:
            raise KeyError(oid)
        self._records[oid] = sighting
        self._index.update(oid, sighting.pos)
        self._timer.renew(oid, now + (ttl if ttl is not None else self._default_ttl))

    def upsert(self, sighting: SightingRecord, now: float = 0.0, ttl: float | None = None) -> None:
        """Insert, or update unless the stored sighting is newer."""
        stored = self._records.get(sighting.object_id)
        if stored is None:
            self.insert(sighting, now, ttl)
        elif sighting.timestamp >= stored.timestamp:
            self.update(sighting, now, ttl)

    def update_many(
        self,
        sightings: Iterable[SightingRecord],
        now: float = 0.0,
        ttl: float | None = None,
    ) -> None:
        """Refresh many existing sightings with one batched index update.

        All object ids are validated before anything is applied, then the
        spatial index sees a single :meth:`~repro.spatial.SpatialIndex.
        update_many` call (the in-place fast paths) and the expiry timers
        are renewed to one shared deadline.  Raises ``KeyError`` (without
        side effects) if any sighting refers to an unknown object.
        """
        batch = list(sightings)
        records = self._records
        for sighting in batch:
            if sighting.object_id not in records:
                raise KeyError(sighting.object_id)
        self._index.update_many((s.object_id, s.pos) for s in batch)
        deadline = now + (ttl if ttl is not None else self._default_ttl)
        timer = self._timer
        for sighting in batch:
            records[sighting.object_id] = sighting
            timer.renew(sighting.object_id, deadline)

    def upsert_many(
        self,
        sightings: Iterable[SightingRecord],
        now: float = 0.0,
        ttl: float | None = None,
    ) -> None:
        """Batched upsert: updates take the batched fast path.

        Sightings for known objects go through :meth:`update_many` unless
        the stored one is newer (arrival order does not matter: an object
        named twice ends at its newest, on a tie the later); the rare
        unknown ones (registration, crash recovery) are inserted one by one.
        """
        records = self._records
        newest: dict[str, SightingRecord] = {}
        for sighting in sightings:
            stored = newest.get(sighting.object_id) or records.get(sighting.object_id)
            if stored is None:
                self.insert(sighting, now=now, ttl=ttl)
            elif sighting.timestamp >= stored.timestamp:
                newest[sighting.object_id] = sighting
        if newest:
            self.update_many(newest.values(), now=now, ttl=ttl)

    def bulk_insert(
        self,
        sightings: Iterable[SightingRecord],
        now: float = 0.0,
        ttl: float | None = None,
    ) -> None:
        """Admit many *new* visitors through the index's bulk-load path.

        The migration fast path: one :meth:`~repro.spatial.SpatialIndex.
        bulk_load` call instead of per-record inserts.  Raises ``KeyError``
        (before anything is applied) when a record is already present.
        """
        batch = list(sightings)
        records = self._records
        for sighting in batch:
            if sighting.object_id in records:
                raise KeyError(
                    f"sighting for {sighting.object_id!r} already present; use update()"
                )
        self._index.bulk_load((s.object_id, s.pos) for s in batch)
        deadline = now + (ttl if ttl is not None else self._default_ttl)
        timer = self._timer
        for sighting in batch:
            records[sighting.object_id] = sighting
            timer.schedule(sighting.object_id, deadline)

    def remove(self, object_id: str) -> SightingRecord:
        """Drop a visitor's sighting (deregistration or handover departure)."""
        record = self._records.pop(object_id)
        self._index.remove(object_id)
        self._timer.cancel(object_id)
        return record

    def remove_many(self, object_ids: Iterable[str]) -> None:
        """Drop many visitors' sightings (an envelope's departures) without
        handing any record back."""
        for object_id in object_ids:
            self.remove(object_id)

    def clear(self) -> None:
        """Wipe all volatile state (used to simulate a crash)."""
        self._records.clear()
        self._timer = ExpiryTimer()
        self._index.clear()

    # -- lookup ------------------------------------------------------------------

    def get(self, object_id: str) -> SightingRecord | None:
        """Hash-index lookup (``sightingDB.objectHash``)."""
        return self._records.get(object_id)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def object_ids(self) -> Iterator[str]:
        return iter(self._records)

    def records(self) -> Iterator[SightingRecord]:
        return iter(self._records.values())

    # -- queries -------------------------------------------------------------------

    def objects_in_area(
        self,
        query: RangeQuery,
        acc_of: Callable[[str], float],
        max_acc: float = math.inf,
    ) -> list[ObjectEntry]:
        """The paper's ``spatialIndex.objectsInArea(area, reqAcc, reqOverlap)``.

        The spatial index narrows candidates to the query's
        :func:`~repro.model.queries.candidate_bounds` (Algorithm 6-5's
        ``Enlarge(area, reqAcc)``, tightened); the exact overlap/accuracy
        semantics then run once over the candidate arrays
        (:func:`~repro.model.queries.qualifying_indexes`), and a
        descriptor is built only for members.  ``acc_of`` maps an object
        id to its *offered* accuracy (stored in the visitor DB, not here —
        Algorithm 6-5 line 5 builds ``ld(s.pos,
        visitorDB(s.oId).offeredAcc)``); ``max_acc`` is the caller's
        promise that ``acc_of`` never exceeds it, which bounds the scan.
        The result is sorted by object id.
        """
        candidates = self._index.query_rect(candidate_bounds(query, max_acc))
        return _members(query, list(candidates), acc_of)

    def objects_in_areas(
        self,
        queries: Iterable[RangeQuery],
        acc_of: Callable[[str], float],
        max_acc: float = math.inf,
    ) -> list[list[ObjectEntry]]:
        """Answer many range queries with one shared index traversal.

        The batched counterpart of :meth:`objects_in_area`: all candidate
        rects go through one :meth:`~repro.spatial.SpatialIndex.
        query_rect_many` call, then each query's candidates are filtered
        exactly as there.  Result ``i`` matches ``queries[i]``.
        """
        query_list = list(queries)
        candidate_lists = self._index.query_rect_many(
            [candidate_bounds(q, max_acc) for q in query_list]
        )
        return [
            _members(query, candidates, acc_of)
            for query, candidates in zip(query_list, candidate_lists)
        ]

    def positions_in_rects(self, rects: Iterable[Rect]) -> list[list[tuple[str, Point]]]:
        """Raw scans for many rects via one batched index traversal
        (:meth:`~repro.spatial.SpatialIndex.query_rect_many`); result
        ``i`` matches ``rects[i]``."""
        return self._index.query_rect_many(list(rects))

    def counts_in_rects(self, rects: Iterable[Rect]) -> list[int]:
        """Entry counts per rect, via one batched index traversal.

        The rebalance planner costs candidate cut lines with this: all
        rects share one :meth:`~repro.spatial.SpatialIndex.
        query_rect_many` pass over the index.
        """
        return [len(hits) for hits in self._index.query_rect_many(list(rects))]

    def compact_index(self) -> None:
        """Re-tighten the spatial index's internal bounds (see
        :meth:`~repro.spatial.SpatialIndex.compact`)."""
        self._index.compact()

    def nearest_neighbors(
        self,
        query: NearestNeighborQuery,
        acc_of: Callable[[str], float],
        probe_k: int = 16,
        within: Rect | None = None,
    ) -> NearestNeighborResult:
        """Nearest-neighbor semantics over the local records.

        One probe of the spatial index settles the common case: when its
        ``probe_k`` nearest positions hold a qualifying object and the
        whole ``nearQual`` ring around it, no farther object can change
        the answer.  Otherwise (few objects satisfy ``reqAcc``, or the
        ring is wide) one scan of the candidates answers it: a best-first
        search costs several times a scan per object it returns, so a
        growing ``k`` would cost more than the scan it avoids.  ``within``
        restricts the candidates to a closed rect: the probe asks no
        farther than its farthest corner and the scan covers just it.
        """
        reach = math.inf if within is None else within.max_distance_to_point(query.pos)
        hits = self._index.nearest(query.pos, k=probe_k, max_distance=reach)
        entries = [
            (hit.object_id, LocationDescriptor(hit.point, acc_of(hit.object_id)))
            for hit in hits
            if within is None or within.contains_point(hit.point)
        ]
        result = nearest_neighbor(entries, query)
        if len(hits) < probe_k:  # the probe saw every candidate
            return result
        if result.nearest is not None:
            selected_distance = result.nearest[1].pos.distance_to(query.pos)
            ring = selected_distance + query.near_qual
            # The k-th candidate bounds every unseen object's distance;
            # if it lies beyond the ring, no unseen object can qualify.
            if hits[-1].distance > ring:
                return result
        scan = self._index.items() if within is None else self._index.query_rect(within)
        return nearest_neighbor(
            [
                (oid, LocationDescriptor(pos, acc))
                for oid, pos in scan
                if (acc := acc_of(oid)) <= query.req_acc
            ],
            query,
        )

    # -- soft state -----------------------------------------------------------------

    def schedule_expiry(self, object_id: str, now: float, ttl: float | None = None) -> None:
        """Arm (or re-arm) the soft-state deadline for an id that may not
        have a sighting yet — used after crash recovery, when persistent
        visitor records exist but volatile sightings are gone."""
        self._timer.schedule(object_id, now + (ttl if ttl is not None else self._default_ttl))

    def expire_due(self, now: float) -> list[str]:
        """Remove and return the ids whose sighting records expired."""
        expired = self._timer.pop_expired(now)
        for oid in expired:
            self._records.pop(oid, None)
            if self._index.get(oid) is not None:
                self._index.remove(oid)
        return expired


def _members(
    query: RangeQuery,
    candidates: list[tuple[str, Point]],
    acc_of: Callable[[str], float],
) -> list[ObjectEntry]:
    """The candidates of one index scan that satisfy ``query``, by id."""
    accs = [acc_of(oid) for oid, _ in candidates]
    members = qualifying_indexes(
        query.area,
        [pos.x for _, pos in candidates],
        [pos.y for _, pos in candidates],
        accs,
        query.req_acc,
        query.req_overlap,
    )
    matched = [
        (candidates[i][0], LocationDescriptor(candidates[i][1], accs[i])) for i in members
    ]
    matched.sort(key=lambda entry: entry[0])
    return matched

"""The per-server data storage component (paper Fig. 7).

``LocalDataStore`` bundles the volatile sighting DB (hash + spatial
index) with the persistent visitor DB and the accuracy model into the
store a **leaf** location server operates on.  It is also:

* the unit Table 1 benchmarks (throughput of registration, updates,
  position / range queries against one store), and
* the entire implementation of the centralized baseline
  (:mod:`repro.baselines.central`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import AccuracyUnavailableError, StorageError, UnknownObjectError
from repro.geo import Rect
from repro.model import (
    AccuracyModel,
    LocationDescriptor,
    NearestNeighborQuery,
    NearestNeighborResult,
    ObjectEntry,
    RangeQuery,
    RegistrationInfo,
    SightingColumns,
    SightingRecord,
)
from repro.spatial import SpatialIndex
from repro.spatial.columnar import SlotHandle
from repro.storage.columnar_db import ColumnarSightingDB
from repro.storage.persistence import PersistentStore
from repro.storage.sighting_db import DEFAULT_TTL, SightingDB
from repro.storage.visitor_db import LeafVisitorRecord, VisitorDB

#: Sighting-storage backends selectable per store: ``objects`` is the
#: record-per-visitor :class:`SightingDB` (Table 1's store, the default
#: here); ``columnar`` stores sightings as contiguous columns
#: (:class:`ColumnarSightingDB`), is every service leaf's default and
#: enables the array-native fast lane (:meth:`LocalDataStore.
#: bulk_register_arrays` / :meth:`LocalDataStore.update_positions`).
BACKENDS = ("objects", "columnar")


class StoreMirror:
    """Observer protocol for the migration dual-write window.

    While a phased migration copies a leaf's objects to their future
    owners, the source store keeps serving; a mirror attached via
    :meth:`LocalDataStore.attach_mirror` sees every visitor-state
    mutation so the staged copy stays exactly in sync until cutover.
    The hooks run *after* the local mutation succeeded, inside the same
    loop turn — there is no window in which source and staging disagree.
    """

    def record_upsert(self, sighting, offered_acc, reg_info) -> None:
        """A visitor was admitted or its sighting moved."""

    def record_remove(self, object_id: str) -> None:
        """A visitor left (deregistration, handover away, expiry)."""

    def record_acc(self, object_id: str, offered_acc: float) -> None:
        """A visitor's negotiated accuracy changed (``changeAcc``)."""


class LocalDataStore:
    """Leaf-server storage: sightings in memory, visitor records durable."""

    __slots__ = ("sightings", "visitors", "accuracy", "backend", "_ttl", "_mirror")

    def __init__(
        self,
        accuracy: AccuracyModel | None = None,
        index: SpatialIndex | None = None,
        store: PersistentStore | None = None,
        ttl: float = DEFAULT_TTL,
        backend: str = "objects",
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown storage backend {backend!r}; choose from {BACKENDS}"
            )
        self.accuracy = accuracy if accuracy is not None else AccuracyModel()
        if backend == "columnar":
            # ColumnarSightingDB builds its own ColumnarIndex when none is
            # given and rejects non-columnar indexes (its extra columns
            # live inside the index's column table).
            self.sightings: SightingDB = ColumnarSightingDB(
                index=index, default_ttl=ttl
            )
        else:
            self.sightings = SightingDB(index=index, default_ttl=ttl)
        self.backend = backend
        self.visitors = VisitorDB(store=store)
        self._ttl = ttl
        self._mirror: StoreMirror | None = None

    # -- dual-write mirroring (repro.cluster phased migration) ----------------

    def attach_mirror(self, mirror: StoreMirror) -> None:
        """Start mirroring every mutation into ``mirror`` (at most one)."""
        if self._mirror is not None:
            raise StorageError("a migration mirror is already attached")
        self._mirror = mirror

    def detach_mirror(self) -> StoreMirror | None:
        """Stop mirroring; returns the detached mirror (or ``None``)."""
        mirror, self._mirror = self._mirror, None
        return mirror

    @property
    def mirrored(self) -> bool:
        return self._mirror is not None

    # -- registration & updates (local halves of Algorithms 6-1 / 6-2) -------

    def register(
        self,
        sighting: SightingRecord,
        des_acc: float,
        min_acc: float,
        registrar: str,
        now: float = 0.0,
    ) -> float:
        """Admit a new visitor; returns the offered accuracy.

        Raises:
            AccuracyUnavailableError: when the achievable accuracy lies
                outside ``[des_acc, min_acc]`` (the paper's
                ``registerFailed``).
        """
        offered = self.accuracy.negotiate(des_acc, min_acc)
        if offered is None:
            raise AccuracyUnavailableError(self.accuracy.achievable, min_acc)
        reg_info = RegistrationInfo(registrar, des_acc, min_acc)
        self.visitors.insert_leaf(sighting.object_id, offered, reg_info)
        self.sightings.upsert(sighting, now=now)
        if self._mirror is not None:
            self._mirror.record_upsert(sighting, offered, reg_info)
        return offered

    def _admit_visitor(
        self, sighting: SightingRecord, reg_info: RegistrationInfo
    ) -> float:
        """Negotiate and install one arriving visitor record (Alg. 6-3);
        the per-item core of :meth:`admit_handover_many`."""
        offered = self.accuracy.negotiate(reg_info.des_acc, reg_info.min_acc)
        if offered is None:
            # Paper's protocol assumes the requested range stays satisfiable
            # across the service area; if a leaf cannot satisfy it, offer
            # the coarsest acceptable value and let notifyAvailAcc handle
            # renegotiation at the API layer.
            offered = max(self.accuracy.achievable, reg_info.des_acc)
        self.visitors.insert_leaf(sighting.object_id, offered, reg_info)
        return offered

    def admit_handover_many(
        self,
        arrivals: list[tuple[SightingRecord, RegistrationInfo]],
        now: float = 0.0,
    ) -> list[float]:
        """Become the agent for a whole handover envelope in one pass
        (Alg. 6-3): per-item negotiation via :meth:`_admit_visitor`, then
        every sighting lands through one
        :meth:`~repro.storage.sighting_db.SightingDB.upsert_many` —
        a single batched spatial-index pass for the whole envelope.
        Returns the offered accuracy per arrival, in input order.
        """
        offers = [
            self._admit_visitor(sighting, reg_info) for sighting, reg_info in arrivals
        ]
        self.sightings.upsert_many([sighting for sighting, _ in arrivals], now=now)
        if self._mirror is not None:
            for (sighting, reg_info), offered in zip(arrivals, offers):
                self._mirror.record_upsert(sighting, offered, reg_info)
        return offers

    def update(self, sighting: SightingRecord, now: float = 0.0) -> None:
        """Refresh an existing visitor's sighting (Alg. 6-2 line 8).

        An upsert rather than a strict update: after a crash the visitor
        record survives on persistent storage while the sighting is gone,
        and the paper restores volatile state "as position update
        requests come in" — so an update for a registered visitor without
        a sighting recreates it.
        """
        record = self.visitors.leaf_record(sighting.object_id)
        if record is None:
            raise UnknownObjectError(sighting.object_id)
        self.sightings.upsert(sighting, now=now)
        if self._mirror is not None:
            self._mirror.record_upsert(sighting, record.offered_acc, record.reg_info)

    def update_many(self, sightings, now: float = 0.0) -> None:
        """Refresh many visitors' sightings with one batched index pass.

        The batched counterpart of :meth:`update` (same per-record upsert
        semantics) over records or a :class:`~repro.model.SightingColumns`
        view: the ids are checked against the visitor records first, then
        the sighting DB applies the batch in one pass (the columnar
        backend on the view's columns).  Raises
        :class:`~repro.errors.UnknownObjectError` (before anything is
        applied) if any sighting refers to an unregistered object.
        """
        batch = sightings if type(sightings) is SightingColumns else list(sightings)
        ids = SightingColumns.ids_of(batch)
        found = list(map(self.visitors.get, ids))  # leaf_record's rule, at C speed
        if not set(map(type, found)) <= {LeafVisitorRecord}:
            unknown = next(o for o, r in zip(ids, found) if type(r) is not LeafVisitorRecord)
            raise UnknownObjectError(unknown)
        self.sightings.upsert_many(batch, now=now)
        if self._mirror is not None:
            for sighting in batch:
                record = self.visitors.leaf_record(sighting.object_id)
                self._mirror.record_upsert(sighting, record.offered_acc, record.reg_info)

    # -- array-native fast lane (columnar backend only) -----------------------

    def _columnar_sightings(self) -> ColumnarSightingDB:
        if not isinstance(self.sightings, ColumnarSightingDB):
            raise StorageError(
                "the array-native fast lane requires backend='columnar' "
                f"(this store uses backend={self.backend!r})"
            )
        return self.sightings

    def bulk_register_arrays(
        self,
        object_ids,
        xs,
        ys,
        des_acc: float,
        min_acc: float,
        registrar: str,
        now: float = 0.0,
    ) -> SlotHandle:
        """Admit a whole population from coordinate arrays in one pass.

        The registration counterpart of :meth:`update_positions`: one
        accuracy negotiation shared by the batch (the streaming workload
        registers homogeneous populations), per-object visitor records,
        and a single columnar bulk load for the sightings.  Returns the
        slot handle for subsequent per-tick position scatters.
        """
        sightings = self._columnar_sightings()
        offered = self.accuracy.negotiate(des_acc, min_acc)
        if offered is None:
            raise AccuracyUnavailableError(self.accuracy.achievable, min_acc)
        reg_info = RegistrationInfo(registrar, des_acc, min_acc)
        handle = sightings.bulk_insert_arrays(
            object_ids, xs, ys, now=now, acc=offered
        )
        insert_leaf = self.visitors.insert_leaf
        for oid in object_ids:
            insert_leaf(oid, offered, reg_info)
        if self._mirror is not None:
            for oid in object_ids:
                self._mirror.record_upsert(sightings.get(oid), offered, reg_info)
        return handle

    def update_positions(self, handle: SlotHandle, xs, ys, now: float = 0.0) -> None:
        """Tick-rate position scatter for a resolved population.

        Semantically :meth:`update_many` for sightings whose ids were
        registered when the handle was resolved; no records are
        materialized.  While a migration mirror is attached the dual
        writes need real :class:`SightingRecord` objects, so the scatter
        falls back to the object path — correctness over speed for the
        (rare, bounded) migration window.
        """
        sightings = self._columnar_sightings()
        if self._mirror is None:
            sightings.update_positions(handle, xs, ys, now=now)
            return
        index = sightings._index
        index.check_handle(handle)  # same staleness contract as the fast path
        t, acc = np.full(len(handle), float(now)), index.column("acc")[handle.slots]
        xs, ys = np.asarray(xs, np.float64), np.asarray(ys, np.float64)
        self.update_many(SightingColumns(list(handle.object_ids), t, xs, ys, acc), now=now)

    # -- migration bulk paths (repro.cluster) ---------------------------------

    def export_leaf_entries(self) -> list[tuple[SightingRecord, float, RegistrationInfo]]:
        """Snapshot every visitor as ``(sighting, offered_acc, reg_info)``.

        The migration executor partitions this set across destination
        stores; visitors whose sighting lapsed (crash recovery window)
        are skipped — they re-register through the normal protocol.
        """
        entries = []
        for record in self.visitors.leaf_records():
            sighting = self.sightings.get(record.object_id)
            if sighting is not None:
                entries.append((sighting, record.offered_acc, record.reg_info))
        return entries

    def bulk_admit(
        self,
        entries: list[tuple[SightingRecord, float, RegistrationInfo]],
        now: float = 0.0,
        compact: bool = True,
    ) -> None:
        """Become the agent for a migrated batch in one bulk-load pass.

        The counterpart of :meth:`admit_handover_many` for object migration:
        visitor records keep their already-negotiated accuracy, sightings
        land through the sighting DB's bulk insert (one spatial-index
        ``bulk_load``), and the index is compacted afterwards (see
        :meth:`~repro.spatial.SpatialIndex.compact`).  The sighting bulk
        insert runs first: it validates the whole batch before applying anything, so
        a duplicate id fails the admission without leaving visitor
        records that have no backing sighting.  ``compact=False`` defers
        the compaction — the chunked migration copy admits many batches
        and compacts once at cutover instead of paying an O(n) index
        pass per chunk.
        """
        self.sightings.bulk_insert(
            [sighting for sighting, _, _ in entries], now=now
        )
        for sighting, offered_acc, reg_info in entries:
            self.visitors.insert_leaf(sighting.object_id, offered_acc, reg_info)
        if compact:
            self.sightings.compact_index()
        if self._mirror is not None:
            for sighting, offered_acc, reg_info in entries:
                self._mirror.record_upsert(sighting, offered_acc, reg_info)

    def change_accuracy(self, object_id: str, des_acc: float, min_acc: float) -> float:
        """Renegotiate accuracy for a tracked object (``changeAcc``)."""
        record = self.visitors.leaf_record(object_id)
        if record is None:
            raise UnknownObjectError(object_id)
        offered = self.accuracy.negotiate(des_acc, min_acc)
        if offered is None:
            raise AccuracyUnavailableError(self.accuracy.achievable, min_acc)
        self.visitors.set_offered_acc(object_id, offered)
        if self._mirror is not None:
            self._mirror.record_acc(object_id, offered)
        return offered

    def deregister(self, object_id: str) -> None:
        """Forget a visitor entirely (departure or explicit deregister)."""
        self.deregister_many((object_id,))

    def deregister_many(self, object_ids) -> None:
        """Forget many visitors (an envelope's departures): one sighting-DB
        pass over those with a sighting, then one visitor-DB pass over
        them all."""
        ids = list(dict.fromkeys(object_ids))
        sightings = self.sightings
        sightings.remove_many([oid for oid in ids if oid in sightings])
        self.visitors.remove_many(ids)
        if self._mirror is not None:
            for oid in ids:
                self._mirror.record_remove(oid)

    # -- queries (local halves of Algorithms 6-4 / 6-5) -----------------------

    def offered_acc(self, object_id: str) -> float:
        record = self.visitors.leaf_record(object_id)
        if record is None:
            raise UnknownObjectError(object_id)
        return record.offered_acc

    def position_query(self, object_id: str) -> LocationDescriptor:
        """``posQuery`` against the local hash index."""
        sighting = self.sightings.get(object_id)
        record = self.visitors.leaf_record(object_id)
        if sighting is None or record is None:
            raise UnknownObjectError(object_id)
        return LocationDescriptor(sighting.pos, record.offered_acc)

    def range_query(self, query: RangeQuery) -> list[ObjectEntry]:
        """``rangeQuery`` against the local spatial index."""
        return self.sightings.objects_in_area(
            query, self.offered_acc, self.visitors.max_offered_acc
        )

    def range_query_many(self, queries: list[RangeQuery]) -> list[list[ObjectEntry]]:
        """Many range queries in one shared spatial-index traversal."""
        return self.sightings.objects_in_areas(
            queries, self.offered_acc, self.visitors.max_offered_acc
        )

    def nearest_neighbor_query(self, query: NearestNeighborQuery) -> NearestNeighborResult:
        """``neighborQuery`` against the local spatial index."""
        return self.sightings.nearest_neighbors(query, self.offered_acc)

    def nn_candidates(self, query: NearestNeighborQuery, dispatch: Rect) -> list[ObjectEntry]:
        """This store's share of one distributed NN round: ``query``'s own
        answer over the visitors in ``dispatch`` — the nearest qualifying
        one and its inclusive ``nearQual`` ring, ties included.  The entry
        server's answer over all shares is its answer over all candidates:
        the overall nearest distance ``d`` is at most this store's ``d_L``,
        so an answer entry held here (within ``d + nearQual``) is within
        ``d_L + nearQual``: both ends measure with ``Point.distance_to``
        and rounding is monotone."""
        return _share(self.sightings.nearest_neighbors(query, self.offered_acc, within=dispatch))

    def nn_candidates_many(self, queries: list, dispatches: list[Rect]) -> list[list[ObjectEntry]]:
        """:meth:`nn_candidates` for each ``(queries[i], dispatches[i])``."""
        nearest = self.sightings.nearest_neighbors
        return [
            _share(nearest(q, self.offered_acc, within=d)) for q, d in zip(queries, dispatches)
        ]

    # -- soft state & recovery ---------------------------------------------------

    def expire_due(self, now: float) -> list[str]:
        """Soft-state sweep: drop expired sightings and their visitor records."""
        expired = self.sightings.expire_due(now)
        self.visitors.remove_many(expired)
        if self._mirror is not None:
            for oid in expired:
                self._mirror.record_remove(oid)
        return expired

    def crash(self, now: float = 0.0) -> None:
        """Simulate a server failure: volatile state is lost, the
        persistent visitor DB survives (Section 5's recovery story).

        Every recovered visitor gets a fresh soft-state deadline — if its
        position updates never resume, it is deregistered after one TTL,
        exactly as the soft-state principle demands.
        """
        self.sightings.clear()
        for object_id in self.visitors.object_ids():
            if self.visitors.leaf_record(object_id) is not None:
                self.sightings.schedule_expiry(object_id, now)

    @property
    def visitor_count(self) -> int:
        return len(self.visitors)

    @property
    def sighting_count(self) -> int:
        return len(self.sightings)


def _share(result: NearestNeighborResult) -> list[ObjectEntry]:
    """A nearest-neighbor answer as the entries it names."""
    return [] if result.nearest is None else [result.nearest, *result.near_set]

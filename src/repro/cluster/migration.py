"""Live application of rebalance plans to a running location service.

Plans apply in **phases** so a rebalance overlaps live traffic instead
of stalling it:

1. **copy** — :meth:`MigrationExecutor.begin` snapshots the source
   leaves' objects into *staging* stores (one ``export_leaf_entries`` +
   ``bulk_admit`` per destination) while the old owners keep serving.
   Staging stores are invisible to routing: for a split the child
   servers do not exist yet, for a merge the parent is still interior.
2. **dual-write** — a :class:`~repro.storage.datastore.StoreMirror`
   attached to every source store replays each mutation (updates,
   handover arrivals/departures, deregistrations, expiry) into the
   staged copy, inside the same loop turn, so source and staging never
   disagree.  The window lasts as long as the driver likes — typically
   one harness tick.
3. **cutover** — :meth:`MigrationExecutor.cutover` flips the roles
   (``become_interior`` / ``become_leaf``), installs the staged stores,
   replays one forwarding pointer per migrated object, adopts the
   derived hierarchy (advancing the **topology epoch**) and broadcasts
   explicit §6.5 cache invalidations so chatty workloads skip the
   healing hop through the old addresses.  The flip is pointer surgery —
   no object moves at cutover — so it costs O(moved) dictionary writes,
   not a drained event loop.

In-flight traffic survives every phase through the existing mechanisms:

* a **split** leaf becomes an interior server whose visitor DB holds a
  replayed forwarding pointer per migrated object, so reports, position
  queries, deregistrations and cached-handover probes that still address
  it flow down the fresh path (Algorithms 6-2/6-4 unchanged);
* a **merged** parent becomes the leaf agent for every absorbed object
  (its ancestors' forwarding references already point at it), and the
  retired children turn into forwarding aliases for the parent;
* a fan-out **collector** racing a cutover detects the epoch bump on
  its sub-results and re-issues the part still in doubt under the new
  topology (:class:`~repro.core.server._BatchCollector`), which is what
  lifted the old drained-loop requirement.

There is one migration path.  :meth:`MigrationExecutor.execute` is
``cutover(begin(plan))``: the same phases run to completion in one call,
with a zero-length dual-write window, for callers that apply a plan at
once (the chaos layer's recovery merges, tests).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.cluster.planner import MergePlan, RebalancePlan, SplitPlan
from repro.core.hierarchy import ChildRef, child_for_point, split_rects
from repro.errors import ConfigurationError, LocationServiceError
from repro.geo import Point, Rect
from repro.storage.datastore import LocalDataStore, StoreMirror


@dataclass(frozen=True, slots=True)
class MigrationReport:
    """What one applied plan did."""

    plan: RebalancePlan
    moved: int
    new_homes: dict[str, str] = field(default_factory=dict)
    spawned: tuple[str, ...] = ()
    retired: tuple[str, ...] = ()
    #: §6.5 invalidation messages broadcast at cutover.
    invalidations_sent: int = 0
    #: mutations mirrored into staging during the dual-write window.
    dual_writes: int = 0


def _band_router(plan: SplitPlan | None, children):
    """A closure routing ``(x, y)`` to its split child in O(log k).

    When the plan's children are exactly the :func:`split_rects` bands
    of its axis/cuts (the planner always builds them that way), routing
    is a :func:`bisect_right` over the cut positions — or two
    comparisons for a quad — instead of a linear rect scan per object.
    The boundary rule matches :func:`child_for_point`'s half-open
    containment: a coordinate equal to a cut routes to the high side.
    Returns ``None`` (generic routing) for hand-built plans whose
    children do not line up with their cuts.
    """
    if plan is None:
        return None
    rects = [area for _, area, _ in children]
    bounds = Rect(
        min(r.min_x for r in rects),
        min(r.min_y for r in rects),
        max(r.max_x for r in rects),
        max(r.max_y for r in rects),
    )
    try:
        expected = split_rects(bounds, plan.axis, list(plan.cuts))
    except ConfigurationError:
        return None
    if expected != rects:
        return None
    ids = [child_id for child_id, _, _ in children]
    cuts = list(plan.cuts)
    if plan.axis == "x":
        return lambda x, y: ids[bisect_right(cuts, x)]
    if plan.axis == "y":
        return lambda x, y: ids[bisect_right(cuts, y)]
    x_cut, y_cut = cuts
    return lambda x, y: ids[(1 if x >= x_cut else 0) + (2 if y >= y_cut else 0)]


class _SplitMirror(StoreMirror):
    """Dual-write mirror for one splitting leaf.

    Routes every mutation of the (still serving) source store to the
    staging store of the child whose area covers the object's position,
    tracking each object's staged home so a cross-cut move lands exactly
    once and cutover can replay the forwarding pointers from memory.

    Writes are **buffered**, not applied eagerly: during the dual-write
    window each mutation costs a few dictionary operations (coalescing
    repeated moves of the same object last-write-wins, exactly like a
    tick), and the whole window lands on the staging stores in one
    batched :meth:`flush` at cutover — so dual-writing barely taxes the
    hot leaf's tick throughput (``BENCH_PR4.json``'s number).
    """

    def __init__(
        self,
        children: list[tuple[str, Rect, LocalDataStore]],
        plan: SplitPlan | None = None,
    ) -> None:
        self._children = children
        self._refs = [ChildRef(child_id, area) for child_id, area, _ in children]
        self._stores = {child_id: store for child_id, _, store in children}
        self._router = _band_router(plan, children)
        self.homes: dict[str, str] = {}
        #: objects mutated during the window: their snapshot entries are
        #: superseded, so the chunked copy skips them — the flush lands
        #: their latest state exactly once instead of copy-then-rewrite.
        self.dirty: set[str] = set()
        #: per-child buffered upserts: oid → (sighting, offered, reg_info).
        self._pending: dict[str, dict[str, tuple]] = {
            child_id: {} for child_id, _, _ in children
        }
        #: per-child buffered accuracy changes for already-copied objects.
        self._acc: dict[str, dict[str, float]] = {
            child_id: {} for child_id, _, _ in children
        }
        #: per-child buffered removals.
        self._removed: dict[str, set[str]] = {
            child_id: set() for child_id, _, _ in children
        }
        self.writes = 0

    @property
    def banded(self) -> bool:
        """Whether the plan's children are exactly its axis bands (the
        fast-router layout every planner-built plan has)."""
        return self._router is not None

    def _route(self, x: float, y: float) -> str:
        # The same boundary rule protocol routing uses: a staged object
        # can never land at a different child than the one that will
        # serve it after cutover.
        if self._router is not None:
            return self._router(x, y)
        ref = child_for_point(self._refs, Point(x, y))
        if ref is None:
            raise LocationServiceError(f"no split child covers ({x}, {y})")
        return ref.server_id

    def record_upsert(self, sighting, offered_acc, reg_info) -> None:
        self.writes += 1
        oid = sighting.object_id
        self.dirty.add(oid)
        child_id = self._route(sighting.pos.x, sighting.pos.y)
        previous = self.homes.get(oid)
        if previous is not None and previous != child_id:
            # Cross-cut move: the object leaves the previously staged child.
            self._pending[previous].pop(oid, None)
            self._acc[previous].pop(oid, None)
            self._removed[previous].add(oid)
        self.homes[oid] = child_id
        self._removed[child_id].discard(oid)
        # The upsert carries the source record's current accuracy, so
        # any older buffered acc change is superseded — drop it, or the
        # flush (which applies _acc last) would resurrect it.
        self._acc[child_id].pop(oid, None)
        self._pending[child_id][oid] = (sighting, offered_acc, reg_info)

    def record_remove(self, object_id: str) -> None:
        self.writes += 1
        self.dirty.add(object_id)
        child_id = self.homes.pop(object_id, None)
        if child_id is not None:
            self._pending[child_id].pop(object_id, None)
            self._acc[child_id].pop(object_id, None)
            self._removed[child_id].add(object_id)

    def record_acc(self, object_id: str, offered_acc: float) -> None:
        self.writes += 1
        child_id = self.homes.get(object_id)
        if child_id is None:
            return
        pending = self._pending[child_id].get(object_id)
        if pending is not None:
            sighting, _, reg_info = pending
            self._pending[child_id][object_id] = (sighting, offered_acc, reg_info)
            self._acc[child_id].pop(object_id, None)  # superseded (see above)
        else:
            self._acc[child_id][object_id] = offered_acc

    def flush(self, now: float) -> None:
        """Land the buffered dual-write window on the staging stores —
        one batched sighting pass per child (cutover time).

        Entries the chunked copy never staged (their snapshots were
        superseded while queued — the common case for hot objects, see
        :attr:`dirty`) go through the index's **bulk-load** path; only
        the already-staged remainder pays per-record upserts.
        """
        for child_id, _, store in self._children:
            for oid in self._removed[child_id]:
                store.deregister(oid)
            pending = self._pending[child_id]
            if pending:
                for oid, (sighting, offered, reg_info) in pending.items():
                    store.visitors.insert_leaf(oid, offered, reg_info)
                staged = store.sightings
                fresh: list = []
                known: list = []
                for sighting, _, _ in pending.values():
                    (known if sighting.object_id in staged else fresh).append(sighting)
                if fresh:
                    staged.bulk_insert(fresh, now=now)
                if known:
                    staged.upsert_many(known, now=now)
            for oid, offered in self._acc[child_id].items():
                store.visitors.set_offered_acc(oid, offered)
            self._removed[child_id].clear()
            pending.clear()
            self._acc[child_id].clear()


class _MergeMirror:
    """Dual-write bookkeeping for one merging sibling set.

    All children mirror into one staging store (the future parent
    leaf), with the same buffered last-write-wins coalescing as
    :class:`_SplitMirror`.  Removals are guarded by a last-writer map:
    when an object hands over between two merging siblings, the
    departure from the old child must not erase the arrival the new
    child already recorded.
    """

    def __init__(self, staging: LocalDataStore) -> None:
        self.staging = staging
        self.last_writer: dict[str, str] = {}
        self._pending: dict[str, tuple] = {}
        self._acc: dict[str, float] = {}
        self._removed: set[str] = set()
        #: see :attr:`_SplitMirror.dirty` — mutated objects skip the copy.
        self.dirty: set[str] = set()
        self.writes = 0

    def record_upsert(self, source: str, sighting, offered_acc, reg_info) -> None:
        self.writes += 1
        oid = sighting.object_id
        self.dirty.add(oid)
        self.last_writer[oid] = source
        self._removed.discard(oid)
        # Supersedes any older buffered acc change (flush applies _acc
        # last, so a stale entry would overwrite this newer accuracy).
        self._acc.pop(oid, None)
        self._pending[oid] = (sighting, offered_acc, reg_info)

    def record_remove(self, source: str, object_id: str) -> None:
        self.writes += 1
        self.dirty.add(object_id)
        if self.last_writer.get(object_id) == source:
            del self.last_writer[object_id]
            self._pending.pop(object_id, None)
            self._acc.pop(object_id, None)
            self._removed.add(object_id)

    def record_acc(self, source: str, object_id: str, offered_acc: float) -> None:
        self.writes += 1
        if self.last_writer.get(object_id) != source:
            return
        pending = self._pending.get(object_id)
        if pending is not None:
            sighting, _, reg_info = pending
            self._pending[object_id] = (sighting, offered_acc, reg_info)
            self._acc.pop(object_id, None)  # superseded (see above)
        else:
            self._acc[object_id] = offered_acc

    def flush(self, now: float) -> None:
        """Land the buffered dual-write window on the staging store."""
        for oid in self._removed:
            self.staging.deregister(oid)
        if self._pending:
            for oid, (sighting, offered, reg_info) in self._pending.items():
                self.staging.visitors.insert_leaf(oid, offered, reg_info)
            self.staging.sightings.upsert_many(
                [sighting for sighting, _, _ in self._pending.values()], now=now
            )
        for oid, offered in self._acc.items():
            self.staging.visitors.set_offered_acc(oid, offered)
        self._removed.clear()
        self._pending.clear()
        self._acc.clear()


class _MergeAdapter(StoreMirror):
    """Binds one merging child's store to the shared merge mirror."""

    def __init__(self, mirror: _MergeMirror, source: str) -> None:
        self._mirror = mirror
        self._source = source

    def record_upsert(self, sighting, offered_acc, reg_info) -> None:
        self._mirror.record_upsert(self._source, sighting, offered_acc, reg_info)

    def record_remove(self, object_id: str) -> None:
        self._mirror.record_remove(self._source, object_id)

    def record_acc(self, object_id: str, offered_acc: float) -> None:
        self._mirror.record_acc(self._source, object_id, offered_acc)


#: Copy chunk before anything is measured, and the clamp on every chunk.
INITIAL_CHUNK = 256
MIN_CHUNK = 64
MAX_CHUNK = 8192
#: Share of a steady tick's wall clock that one tick's copy may take.
COPY_BUDGET = 0.05


class AdaptiveCopyChunker:
    """Migration copy chunk size, paced open loop from two measurements.

    Steady ticks (no migration in flight) build an EWMA **baseline** of
    the tick wall clock, and timed copy steps build an EWMA of the
    **per-entry copy cost**.  The chunk is ``COPY_BUDGET`` x baseline /
    per-entry cost, clamped to ``[MIN_CHUNK, MAX_CHUNK]``: one tick's
    copy takes about 5 % of a steady tick.

    A migrating tick's wall clock is deliberately not an input: it also
    carries the dual-write mirror and the cutovers, which the chunk does
    not control.  Feeding it back (shrinking the budget whenever a
    migrating tick overshoots the baseline) pins the chunk to its floor
    whenever steady ticks are cheap next to the mirror, as they are on
    the columnar store, and a copy at the floor spans most of a run —
    lengthening the very window whose cost triggered the shrink.
    """

    __slots__ = ("_steady", "_per_entry")

    def __init__(self) -> None:
        #: EWMA of steady-state (no migration in flight) tick wall clock.
        self._steady: float | None = None
        #: EWMA of seconds per consumed snapshot entry.
        self._per_entry: float | None = None

    @property
    def chunk(self) -> int:
        """Snapshot entries to consume per tick."""
        if self._steady is None or not self._per_entry:
            return INITIAL_CHUNK  # no measurements yet
        ideal = COPY_BUDGET * self._steady / self._per_entry
        return max(MIN_CHUNK, min(MAX_CHUNK, int(ideal)))

    def note_steady_tick(self, wall: float) -> None:
        """Fold one migration-free tick's wall clock into the baseline."""
        if wall <= 0.0:
            return
        self._steady = wall if self._steady is None else 0.8 * self._steady + 0.2 * wall

    def note_copy(self, consumed: int, wall: float) -> None:
        """Fold one timed copy step into the per-entry cost estimate."""
        if consumed <= 0 or wall <= 0.0:
            return
        cost = wall / consumed
        self._per_entry = (
            cost if self._per_entry is None else 0.7 * self._per_entry + 0.3 * cost
        )


@dataclass(eq=False)
class PhasedMigration:
    """One in-flight (begun, not yet cut over) migration.

    Compared by identity (``eq=False``): two migrations are never "the
    same" even if their plans coincide, and the executor's in-flight
    list removal must not walk staged store contents.
    """

    plan: RebalancePlan
    #: destination id → staging store (split: per child; merge: parent).
    staging: dict[str, LocalDataStore]
    #: every id the plan touches (source leaves + future destinations);
    #: the planner skips them all while the migration flies
    #: (:meth:`MigrationExecutor.busy_server_ids`).
    busy: frozenset[str]
    mirror: object
    #: snapshot entries not yet staged: (destination id, entries) runs.
    #: :meth:`MigrationExecutor.step` drains this incrementally so the
    #: bulk-copy cost spreads over many ticks instead of landing on one.
    copy_queue: list
    #: snapshot entries staged so far (observability; drivers can pace
    #: their chunking against it).
    copied: int = 0

    @property
    def copy_done(self) -> bool:
        return not self.copy_queue


class MigrationExecutor:
    """Applies split and merge plans to one :class:`LocationService`.

    ``monitor`` (optional :class:`~repro.cluster.load.LoadMonitor`) gets
    its decayed rates re-seeded at cutover so the planner sees realistic
    load on the new topology immediately instead of a cold start.
    """

    def __init__(self, service, monitor=None) -> None:
        self.service = service
        self.monitor = monitor
        self.reports: list[MigrationReport] = []
        self.in_flight: list[PhasedMigration] = []

    def execute(self, plan: RebalancePlan) -> MigrationReport:
        """Run every phase of one plan to completion (a zero-length
        dual-write window): ``cutover(begin(plan))``."""
        return self.cutover(self.begin(plan))

    def busy_server_ids(self) -> frozenset[str]:
        """Every server id an in-flight migration touches (sources and
        reserved destination names); the planner must skip them."""
        busy: set[str] = set()
        for migration in self.in_flight:
            busy |= migration.busy
        return frozenset(busy)

    def begin(self, plan: RebalancePlan) -> PhasedMigration:
        """Open the dual-write window and queue the copy.

        The mirror attachment and the snapshot happen inside this one
        call (one loop turn), so no mutation can slip between them; the
        snapshot is *staged* incrementally by :meth:`step` — begin
        itself costs one pass over the source's visitor records, not an
        index build.  The service keeps serving throughout.
        """
        if isinstance(plan, SplitPlan):
            migration = self._begin_split(plan)
        elif isinstance(plan, MergePlan):
            migration = self._begin_merge(plan)
        else:
            raise LocationServiceError(f"unknown plan type {type(plan).__name__}")
        self.in_flight.append(migration)
        return migration

    def step(self, migration: PhasedMigration, max_objects: int | None = None) -> int:
        """Advance the copy phase by up to ``max_objects`` snapshot
        entries (all of them when ``None``); returns how many were
        staged.  Chunking the copy across ticks is what keeps tick
        throughput near steady state during a migration — mutations the
        chunks race are buffered by the mirror and land last (the
        cutover flush), so chunk order never matters for consistency.
        """
        now = self.service.loop.now
        dirty = migration.mirror.dirty
        copied = 0
        while migration.copy_queue and (max_objects is None or copied < max_objects):
            dest, entries = migration.copy_queue[-1]
            budget = (
                len(entries) if max_objects is None else max_objects - copied
            )
            if budget >= len(entries):
                chunk = entries
                migration.copy_queue.pop()
            else:
                # Take from the tail: O(chunk) per step, not a re-slice
                # of the whole remainder.  Staging order is irrelevant.
                chunk = entries[-budget:]
                del entries[-budget:]
            # Consumed snapshot entries count against the budget, but
            # objects the dual-write window already touched are *not*
            # staged: their snapshot state is superseded, and the cutover
            # flush lands their latest state — each object costs one
            # index insert total, never copy-then-rewrite.
            copied += len(chunk)
            chunk = [e for e in chunk if e[0].object_id not in dirty]
            if chunk:
                # Compaction is deferred to cutover — one pass per
                # staging store instead of one per chunk.
                migration.staging[dest].bulk_admit(chunk, now=now, compact=False)
        migration.copied += copied
        return copied

    def cutover(self, migration: PhasedMigration) -> MigrationReport:
        """Close the dual-write window and flip the topology.

        Any snapshot remainder is staged first (drivers normally call
        this only once :attr:`PhasedMigration.copy_done` is true); then
        pointer surgery only — the objects already live in the staged
        stores — followed by the hierarchy adoption (epoch bump) and the
        §6.5 invalidation broadcast.
        """
        if migration not in self.in_flight:
            raise LocationServiceError("migration is not in flight")
        self.step(migration)
        self.in_flight.remove(migration)
        if isinstance(migration.plan, SplitPlan):
            report = self._cutover_split(migration)
        else:
            report = self._cutover_merge(migration)
        self.reports.append(report)
        return report

    def cutover_all(self) -> list[MigrationReport]:
        """Cut over every in-flight migration (oldest first)."""
        return [self.cutover(migration) for migration in list(self.in_flight)]

    def abort(self, migration: PhasedMigration) -> None:
        """Discard an in-flight migration without cutting over.

        The recovery path for a crash *before* cutover: nothing about
        the migration is visible to routing yet — the staged stores are
        off-network, the hierarchy and epoch are untouched — so
        discarding the staging and detaching the dual-write mirrors
        returns the cluster to exactly its pre-``begin`` state.  (A
        crash *after* cutover is the opposite case: the new topology is
        already adopted, so recovery rolls **forward** by restarting the
        crashed owner — its staged store's WAL holds every admitted
        object.)  Safe to call with crashed source servers: only local
        state is touched.
        """
        if migration not in self.in_flight:
            raise LocationServiceError("migration is not in flight")
        self.in_flight.remove(migration)
        svc = self.service
        if isinstance(migration.plan, SplitPlan):
            source = svc.servers.get(migration.plan.leaf_id)
            if source is not None and source.store is not None and source.store.mirrored:
                source.store.detach_mirror()
        else:
            for child_id in migration.plan.children:
                child = svc.servers.get(child_id)
                if child is not None and child.store is not None and child.store.mirrored:
                    child.store.detach_mirror()
        migration.staging.clear()
        migration.copy_queue.clear()

    # -- split ---------------------------------------------------------------

    def _begin_split(self, plan: SplitPlan) -> PhasedMigration:
        svc = self.service
        parent = svc.servers[plan.leaf_id]
        if not parent.is_leaf:
            raise LocationServiceError(f"{plan.leaf_id} is not a leaf")
        staging = {child_id: parent.make_store() for child_id, _ in plan.children}
        mirror = _SplitMirror(
            [(child_id, area, staging[child_id]) for child_id, area in plan.children],
            plan=plan,
        )
        parent.store.attach_mirror(mirror)
        # Snapshot: route every entry to its destination now (the homes
        # map must cover the full population for the mirror's removal
        # tracking); the index builds happen chunk-wise in step().
        entries = parent.store.export_leaf_entries()
        buckets: dict[str, list] = {child_id: [] for child_id, _ in plan.children}
        for entry in entries:
            child_id = mirror._route(entry[0].pos.x, entry[0].pos.y)
            buckets[child_id].append(entry)
            mirror.homes[entry[0].object_id] = child_id
        return PhasedMigration(
            plan=plan,
            staging=staging,
            busy=frozenset(
                {plan.leaf_id, *(child_id for child_id, _ in plan.children)}
            ),
            mirror=mirror,
            copy_queue=[(child_id, batch) for child_id, batch in buckets.items() if batch],
        )

    def _cutover_split(self, migration: PhasedMigration) -> MigrationReport:
        svc = self.service
        plan = migration.plan
        mirror: _SplitMirror = migration.mirror
        if mirror.banded:
            # Planner-built plans: children are exactly the axis bands /
            # quadrants of the cuts, so the k-way derivation goes through
            # the named API (one epoch bump for the whole fan-out).
            hierarchy = svc.hierarchy.with_split_k(
                plan.leaf_id,
                plan.axis,
                list(plan.cuts),
                [child_id for child_id, _ in plan.children],
            )
        else:
            hierarchy = svc.hierarchy.with_split(plan.leaf_id, list(plan.children))
        parent = svc.servers[plan.leaf_id]
        parent.store.detach_mirror()
        mirror.flush(svc.loop.now)
        for child_id, _ in plan.children:
            # One compaction per staging store, covering every copy chunk
            # and the flushed dual-write window (see step()).
            migration.staging[child_id].sightings.compact_index()
            svc.spawn_server(
                hierarchy.config(child_id), store=migration.staging[child_id]
            )
        # The old leaf keeps only forwarding pointers from here on.
        parent.become_interior(hierarchy.config(plan.leaf_id))
        new_homes = dict(mirror.homes)
        parent.visitors.insert_forward_many(new_homes.items())
        svc.adopt_hierarchy(hierarchy)
        invalidations = svc.broadcast_cache_invalidation(
            forget=(plan.leaf_id,),
            learned=tuple((child_id, area) for child_id, area in plan.children),
        )
        if self.monitor is not None:
            self.monitor.seed_split(
                plan.leaf_id, self._seed_weights(migration.staging, plan.children)
            )
        return MigrationReport(
            plan=plan,
            moved=len(new_homes),
            new_homes=new_homes,
            spawned=tuple(child_id for child_id, _ in plan.children),
            invalidations_sent=invalidations,
            dual_writes=mirror.writes,
        )

    def _seed_weights(
        self, staging: dict[str, LocalDataStore], children
    ) -> dict[str, float]:
        """How much of the split leaf's load each child inherits.

        The staged objects' decayed update-rate mass when the monitor
        tracks per-object rates (so a rate-weighted cut's dormant-heavy
        child is not seeded with the hot minority's load), the staged
        object counts otherwise.
        """
        object_rate = getattr(self.monitor, "object_rate", None)
        if object_rate is not None:
            masses = {
                child_id: sum(
                    object_rate(oid)
                    for oid in staging[child_id].sightings.object_ids()
                )
                for child_id, _ in children
            }
            if any(mass > 0.0 for mass in masses.values()):
                return masses
        return {
            child_id: float(len(staging[child_id].sightings))
            for child_id, _ in children
        }

    # -- merge ---------------------------------------------------------------

    def _begin_merge(self, plan: MergePlan) -> PhasedMigration:
        svc = self.service
        parent = svc.servers[plan.parent_id]
        staging = parent.make_store()
        mirror = _MergeMirror(staging)
        entries = []
        for child_id in plan.children:
            # Mirror first, snapshot second — same loop turn, so the
            # staged copy can only be a superset of later mutations.
            svc.servers[child_id].store.attach_mirror(
                _MergeAdapter(mirror, child_id)
            )
            child_entries = svc.servers[child_id].store.export_leaf_entries()
            entries.extend(child_entries)
            for entry in child_entries:
                mirror.last_writer[entry[0].object_id] = child_id
        return PhasedMigration(
            plan=plan,
            staging={plan.parent_id: staging},
            busy=frozenset({plan.parent_id, *plan.children}),
            mirror=mirror,
            copy_queue=[(plan.parent_id, entries)] if entries else [],
        )

    def _cutover_merge(self, migration: PhasedMigration) -> MigrationReport:
        svc = self.service
        plan = migration.plan
        hierarchy = svc.hierarchy.with_merge(plan.parent_id)
        parent = svc.servers[plan.parent_id]
        staging = migration.staging[plan.parent_id]
        for child_id in plan.children:
            svc.servers[child_id].store.detach_mirror()
        mirror: _MergeMirror = migration.mirror
        mirror.flush(svc.loop.now)
        staging.sightings.compact_index()  # once, for all copy chunks
        parent.become_leaf(hierarchy.config(plan.parent_id), staging)
        for child_id in plan.children:
            svc.retire_server(child_id, successor=plan.parent_id)
        svc.adopt_hierarchy(hierarchy)
        invalidations = svc.broadcast_cache_invalidation(
            forget=tuple(plan.children),
            learned=((plan.parent_id, parent.config.area),),
        )
        if self.monitor is not None:
            self.monitor.seed_merge(plan.parent_id, plan.children)
        new_homes = {oid: plan.parent_id for oid in staging.visitors.object_ids()}
        return MigrationReport(
            plan=plan,
            moved=len(new_homes),
            new_homes=new_homes,
            retired=tuple(plan.children),
            invalidations_sent=invalidations,
            dual_writes=mirror.writes,
        )

"""The location server (paper Sections 4–6).

One :class:`LocationServer` instance implements every role of the
hierarchy; its behaviour follows from its :class:`~repro.core.hierarchy.
ServerConfig`:

* **leaf** servers own a :class:`~repro.storage.datastore.LocalDataStore`
  (sighting DB + persistent visitor DB) and act as *agents* for the
  objects in their service area; they are also the *entry servers*
  clients contact.
* **non-leaf** servers keep only forwarding references in a persistent
  :class:`~repro.storage.visitor_db.VisitorDB`.

Handlers map one-to-one onto the paper's algorithms.  Each runs inline
at delivery (:meth:`~repro.runtime.base.Endpoint.deliver`); where a path
waits on another server, the handler returns the continuation named
in brackets, and only that becomes a task.  The range / NN entries and
the deregistration pair are ``async`` handlers, spawned whole:

=====================  =======================================
Algorithm 6-1          ``_on_register`` / ``_on_create_path``
Algorithm 6-2          ``_on_update`` (edge) / ``_on_update_batch``
                       → ``_apply_updates`` [→ ``_merge_then_reply``]
Algorithm 6-3          ``_handover_batch`` / ``_on_handover_batch``
                       [→ ``_finish_handover_batch``]
Algorithm 6-4          ``_on_pos_query`` [→ ``_answer_resolved``] /
                       ``_on_pos_query_fwd``
Algorithm 6-5          ``_on_range_query`` (edge) → ``_collect`` /
                       ``_on_fanout_fwd`` / ``_on_fanout_sub_res``
Section 3.2 (derived)  ``_on_neighbor_query`` (edge) → the ring loop
                       of ``_execute_neighbors_many`` → ``_collect``
Section 6.5 caches     ``_on_pos_query_direct``, ``_on_path_update``,
                       ``_on_remove_path`` + :mod:`repro.core.caching`
=====================  =======================================
"""

from __future__ import annotations

from collections.abc import Callable, Coroutine
from dataclasses import dataclass, field, replace

from repro.core import messages as m
from repro.core.caching import CacheConfig, LeafCaches
from repro.core.hierarchy import ServerConfig
from repro.errors import (
    AccuracyUnavailableError,
    ConfigurationError,
    TransportError,
    UnknownObjectError,
)
from repro.geo import Point, Rect, region_bounds, subtract_rects
from repro.model import (
    AccuracyModel,
    NearestNeighborQuery,
    NearestNeighborResult,
    ObjectEntry,
    RangeQuery,
    effective_margin,
    nearest_neighbor,
)
from repro.runtime.base import Endpoint
from repro.runtime.schema import builder_of
from repro.runtime.validation import find_defect
from repro.storage import LocalDataStore, PersistentStore, VisitorDB

#: Relative slack for covered-area accounting (float tiling residue).
_COVER_EPS = 1e-6

#: Extra fan-out collection attempts when a rebalance races a query.
#: Each retry only happens after the topology epoch actually advanced
#: mid-collection, so the bound is never hit under steady churn; past it
#: the accumulated (at-least-once) entries are returned as best effort.
_EPOCH_RETRIES = 2

#: How many epochs behind a message may be before the receive-path
#: quarantine rejects it outright.  Traffic at most this far behind is
#: ordinary rebalance lag and heals in place (``stale_epoch_messages``);
#: anything further behind is a replayed or fabricated snapshot — under
#: live churn no sender legitimately lags more than one adopted
#: rebalance plus one in flight.
_EPOCH_REJECT_HORIZON = 2

#: Cap on one query's uncovered-remainder decomposition for coverage-aware
#: epoch retries; past it the retry re-queries the rect at hand whole.
_MAX_REMAINDER_RECTS = 32

#: Re-sends of an unacked §6.5 path-repair delivery (PathUpdate /
#: RemovePath).  The repair lane used to be fire-and-forget, which let a
#: single corrupted or dropped repair strand a stale forwarding path
#: forever; per-hop acks with bounded retries make a strand require
#: ``_PATH_REPAIR_RETRIES + 1`` consecutive losses on one link.
_PATH_REPAIR_RETRIES = 3

#: Seconds a repair hop waits for its :class:`~repro.core.messages.
#: PathAck` before re-sending (virtual seconds on the simulated
#: runtime, wall-clock on asyncio/sockets — well above loopback RTT).
_PATH_REPAIR_TIMEOUT = 0.5

#: The write lane's per-item records, built positionally by row builders.
_UPDATE_OUTCOME = builder_of(m.UpdateOutcome)
_HANDOVER_OUTCOME = builder_of(m.HandoverOutcome)
_HANDOVER_ITEM = builder_of(m.HandoverBatchItem)


@dataclass
class ServerStats:
    """Per-server operation counters (benches and tests read these)."""

    registrations: int = 0
    updates: int = 0
    handovers_initiated: int = 0
    handovers_admitted: int = 0
    pos_queries_served: int = 0
    range_queries_served: int = 0
    nn_rounds_served: int = 0
    expired: int = 0
    #: messages stamped with an older topology epoch than this server's
    #: (traffic routed under a pre-rebalance snapshot; healed in place).
    stale_epoch_messages: int = 0
    #: per-id teardown negative acknowledgements received.
    teardown_nacks: int = 0
    #: fan-out collections re-issued because a rebalance raced them.
    epoch_retries: int = 0
    #: messages rejected by the receive-path validator (mutated fields
    #: — NaN coordinates, negative epochs, empty ids) before touching
    #: any store or collector.
    messages_quarantined: int = 0
    #: messages rejected for an epoch beyond the stale horizon (replays
    #: of a long-dead topology snapshot).
    stale_epoch_rejected: int = 0
    #: §6.5 path-repair deliveries re-sent after a missing ack.
    path_repair_resends: int = 0
    #: path-repair deliveries abandoned after exhausting retries.
    path_repairs_abandoned: int = 0
    messages_handled: dict[str, int] = field(default_factory=dict)

    def note(self, message) -> None:
        name = type(message).__name__
        self.messages_handled[name] = self.messages_handled.get(name, 0) + 1


def _tiled(covered: float, target: float) -> bool:
    """Whether ``covered`` area accounts for ``target``, float residue aside."""
    return covered + _COVER_EPS * max(target, 1.0) >= target


class _BatchCollector:
    """Coverage accounting for one attempt of a fan-out collection.

    An *item* is ``(bucket, dispatch rect)``: entries found for it merge
    into result bucket ``bucket`` (shared with the other attempts of the
    collection, as is ``origins``), and it is complete once the answering
    leaves' ``dispatch ∩ service area`` contributions tile the rect.
    Several items may feed one bucket — a coverage-aware retry re-issues
    a query as the rects still in doubt.

    ``epoch`` is the entry server's topology epoch when the fan-out was
    dispatched; a sub-result stamped with a newer epoch marks the
    collection ``stale`` — a rebalance cut over mid-flight, so the
    coverage bookkeeping may mix pre- and post-migration service areas
    (e.g. an absorbing parent overlapping an already-counted retired
    child) and the entry server re-issues the doubtful part under the
    current topology rather than trusting an early resolve.
    """

    __slots__ = (
        "future", "epoch", "stale", "items", "buckets", "origins",
        "covered", "answered", "open",
    )

    def __init__(self, future, epoch: int, items, buckets, origins) -> None:
        self.future = future
        self.epoch = epoch
        self.stale = False
        self.items: list[tuple[int, Rect]] = items
        self.buckets: list[dict[str, object]] = buckets
        self.origins: set[str] = origins
        self.covered = [0.0] * len(items)
        #: per item: origin -> (service area, epoch its answer carried).
        self.answered: list[dict[str, tuple[Rect, int]]] = [{} for _ in items]
        #: indexes of the items whose rect is not tiled yet.
        self.open = {
            index for index, (_, rect) in enumerate(items) if not _tiled(0.0, rect.area)
        }

    def add(self, results, origin: str, origin_area: Rect, epoch: int) -> None:
        """Merge one leaf's ``(item index, entries, covered)`` triples."""
        if epoch > self.epoch:
            self.stale = True
        self.origins.add(origin)
        for index, entries, covered in results:
            bucket, rect = self.items[index]
            self.buckets[bucket].update(entries)
            # A leaf's coverage contribution is a constant of the item
            # (dispatch ∩ its area), so count each origin once per item:
            # duplicate answers — e.g. two retired aliases forwarding a
            # §6.5-cached direct dispatch to the same successor — must
            # not inflate the covered total past leaves that have not
            # answered yet.
            answered = self.answered[index]
            if origin not in answered:
                answered[origin] = (origin_area, epoch)
                self.covered[index] += covered
                if _tiled(self.covered[index], rect.area):
                    self.open.discard(index)
        if not self.open:
            self.resolve()

    def resolve(self) -> None:
        if not self.future.done():
            self.future.set_result(None)

    def remainders(self, current_epoch: int) -> dict[int, list[Rect]]:
        """Per bucket, the rects a re-issue under ``current_epoch`` must
        still cover: each item's rect minus the service areas that
        answered it *under that epoch* — answers from leaves that did
        not move are not collected twice, and a bucket they tile drops
        out.  An item whose decomposition would shatter the bucket past
        :data:`_MAX_REMAINDER_RECTS` pieces is re-queried whole.
        """
        doubt: dict[int, list[Rect]] = {}
        for (bucket, rect), answered in zip(self.items, self.answered):
            if _tiled(0.0, rect.area):
                continue  # degenerate: never open, so never in doubt
            valid = [area for area, epoch in answered.values() if epoch == current_epoch]
            rects = doubt.setdefault(bucket, [])
            pieces = subtract_rects(rect, valid, cap=_MAX_REMAINDER_RECTS - len(rects))
            rects.extend([rect] if pieces is None else pieces)
        return {bucket: rects for bucket, rects in doubt.items() if rects}


@dataclass(frozen=True, slots=True)
class _FanOutKind:
    """What distinguishes the two query kinds riding the one fan-out."""

    item: type
    fwd: type
    sub_res: type
    #: ``answer(store, items) -> per-item entry lists``: one batched
    #: store pass at the answering leaf.
    answer: Callable[[LocalDataStore, list], list[list[ObjectEntry]]]


_RANGE = _FanOutKind(
    m.RangeBatchItem,
    m.RangeQueryBatchFwd,
    m.RangeQueryBatchSubRes,
    lambda store, items: store.range_query_many(
        [
            RangeQuery(item.area, req_acc=item.req_acc, req_overlap=item.req_overlap)
            for item in items
        ]
    ),
)
_NN = _FanOutKind(
    m.NNBatchItem,
    m.NNCandidatesBatchFwd,
    m.NNCandidatesBatchSubRes,
    lambda store, items: store.nn_candidates_many(
        [NearestNeighborQuery(i.pos, req_acc=i.req_acc, near_qual=i.near_qual) for i in items],
        [item.dispatch for item in items],
    ),
)
_KIND_OF_FWD = {kind.fwd: kind for kind in (_RANGE, _NN)}
_SUB_RESULTS = (_RANGE.sub_res, _NN.sub_res)


class LocationServer(Endpoint):
    """One node of the location-server hierarchy."""

    def __init__(
        self,
        config: ServerConfig,
        accuracy: AccuracyModel | None = None,
        store: PersistentStore | None = None,
        cache_config: CacheConfig | None = None,
        sighting_ttl: float = 300.0,
        sweep_interval: float | None = None,
        nn_initial_radius: float | None = None,
        data_store: LocalDataStore | None = None,
        backend: str = "columnar",
    ) -> None:
        """``data_store`` installs a pre-built leaf store (a phased
        migration's staged copy) instead of constructing a fresh one —
        the cutover path spawns split children this way, so no throwaway
        index is built on the latency-sensitive flip.

        ``backend`` selects the sighting storage engine
        (:data:`repro.storage.datastore.BACKENDS`): the default
        ``columnar`` keeps sightings as array columns, which double as the
        spatial index; ``objects`` is the ablation, one record per visitor
        over the paper's point quadtree."""
        super().__init__(address=config.server_id)
        self.config = config
        self.is_leaf = config.is_leaf
        self.accuracy = accuracy if accuracy is not None else AccuracyModel()
        self.stats = ServerStats()
        self._sweep_interval = sweep_interval
        self._cache_config = cache_config or CacheConfig.disabled()
        self._backend = backend
        self._sighting_ttl = sighting_ttl
        #: set by :meth:`retire` when this server left the hierarchy after
        #: a merge; all further non-response traffic forwards there.
        self._retired_to: str | None = None
        #: the topology epoch this server's config belongs to.  The
        #: service advances it on every adopted rebalance; fan-outs and
        #: envelopes are stamped with it so stale-epoch traffic (routed
        #: under a pre-rebalance snapshot) is detectable mid-flight.
        self.topology_epoch = 0
        #: optional per-object update observer, ``listener(object_ids)``;
        #: installed by :meth:`LocationService.set_update_listener` so the
        #: elastic layer's load monitor can sample per-object update
        #: rates off the batched update lane (rate-weighted split cuts).
        self.update_listener = None
        #: whether the periodic soft-state sweep timer is running.  Once
        #: started it re-arms itself forever (sweeping no-ops while the
        #: server is interior), so it must be started at most once.
        self._sweep_scheduled = False
        if self.is_leaf:
            self.store: LocalDataStore | None = (
                data_store
                if data_store is not None
                else LocalDataStore(
                    accuracy=self.accuracy, store=store, ttl=sighting_ttl, backend=backend
                )
            )
            self.visitors = self.store.visitors
            self.caches = LeafCaches(self._cache_config)
        else:
            self.store = None
            self.visitors = VisitorDB(store=store)
            self.caches = LeafCaches(CacheConfig.disabled())
        self._batch_collectors: dict[str, _BatchCollector] = {}
        self._nn_initial_radius = (
            nn_initial_radius
            if nn_initial_radius is not None
            else max(config.area.width, config.area.height)
        )
        self._register_handlers()
        # Event mechanism (Section 1 / future work) — registers its own
        # Subscribe/Unsubscribe handlers.
        from repro.core.events import EventEngine

        self.events = EventEngine(self)

    def _register_handlers(self) -> None:
        self.on(m.RegisterReq, self._on_register)
        self.on(m.CreatePath, self._on_create_path)
        self.on(m.UpdateReq, self._on_update)
        self.on(m.UpdateBatchReq, self._on_update_batch)
        self.on(m.HandoverBatchReq, self._on_handover_batch)
        self.on(m.DeregisterReq, self._on_deregister)
        self.on(m.DeregisterBatchReq, self._on_deregister_batch)
        self.on(m.PathTeardownBatch, self._on_path_teardown_batch)
        self.on(m.PosQueryReq, self._on_pos_query)
        self.on(m.PosQueryFwd, self._on_pos_query_fwd)
        self.on(m.PosQueryDirect, self._on_pos_query_direct)
        self.on(m.RangeQueryReq, self._on_range_query)
        self.on(m.NeighborQueryReq, self._on_neighbor_query)
        for kind in _KIND_OF_FWD.values():
            self.on(kind.fwd, self._on_fanout_fwd)
            self.on(kind.sub_res, self._on_fanout_sub_res)
        self.on(m.ChangeAccReq, self._on_change_acc)
        self.on(m.PathUpdate, self._on_path_update)
        self.on(m.RemovePath, self._on_remove_path)
        self.on(m.PathTeardownNack, self._on_path_teardown_nack)
        self.on(m.CacheInvalidate, self._on_cache_invalidate)
        self.on(m.PingReq, self._on_ping)

    # -- lifecycle -------------------------------------------------------------

    def on_attached(self) -> None:
        if self._sweep_interval is not None and self.is_leaf:
            self._sweep_scheduled = True
            self.ctx.call_later(self._sweep_interval, self._periodic_sweep)

    def _periodic_sweep(self) -> None:
        self.sweep_soft_state()
        self.ctx.call_later(self._sweep_interval, self._periodic_sweep)

    def sweep_soft_state(self) -> None:
        """Expire lapsed sightings and tear their forwarding paths down."""
        if not self.is_leaf:
            return
        expired = self.store.expire_due(self.ctx.now())
        self.stats.expired += len(expired)
        if not expired or self.config.parent is None:
            return
        # One batched teardown for the whole sweep (protocol lane).
        self.send(
            self.config.parent,
            m.PathTeardownBatch(
                object_ids=tuple(expired),
                sender=self.address,
                epoch=self.topology_epoch,
            ),
        )

    def simulate_crash_recovery(self) -> None:
        """Wipe volatile state, as after a restart (persistent DB survives)."""
        if self.is_leaf:
            self.store.crash(now=self.ctx.now() if self.ctx is not None else 0.0)

    # -- elastic role changes (repro.cluster) ----------------------------------
    #
    # The migration executor converts servers between roles while the
    # service keeps running.  The conversions only swap state; moving the
    # objects and replaying forwarding pointers is the executor's job.

    def become_interior(self, config: ServerConfig) -> LocalDataStore:
        """Switch this leaf to an interior role after a split.

        Returns the old data store so the caller can migrate its objects
        into the new children; this server keeps only a fresh visitor DB
        of forwarding references (the executor replays one per migrated
        object).
        """
        if not self.is_leaf:
            raise ConfigurationError(f"{self.address} is not a leaf")
        store = self.store
        self.config = config
        self.is_leaf = False
        self.store = None
        self.visitors = VisitorDB()
        self.caches = LeafCaches(CacheConfig.disabled())
        return store

    def become_leaf(self, config: ServerConfig, store: LocalDataStore) -> None:
        """Switch this interior server to a leaf role after a merge.

        ``store`` is the merged data store the executor bulk-built from
        the retiring children; its visitor DB replaces the forwarding
        references this server held while interior.
        """
        if self.is_leaf:
            raise ConfigurationError(f"{self.address} is already a leaf")
        self.config = config
        self.is_leaf = True
        self.store = store
        self.visitors = store.visitors
        self.caches = LeafCaches(self._cache_config)
        # An originally-interior server never started its soft-state
        # sweep (on_attached skips non-leaves); start it now.
        if (
            self._sweep_interval is not None
            and not self._sweep_scheduled
            and self.ctx is not None
        ):
            self._sweep_scheduled = True
            self.ctx.call_later(self._sweep_interval, self._periodic_sweep)

    def make_store(self) -> LocalDataStore:
        """A fresh data store configured like this server's leaf role.

        The migration executor bulk-builds the merged store outside the
        server and installs it via :meth:`become_leaf` (merge) or
        :meth:`install_store` (split staging).
        """
        return LocalDataStore(
            accuracy=self.accuracy, ttl=self._sighting_ttl, backend=self._backend
        )

    def retire(self, successor: str) -> None:
        """Leave the hierarchy, aliasing this address to ``successor``.

        A merged-away leaf cannot simply vanish: in-flight reports,
        cached-handover probes and stale §6.5 area-cache dispatches still
        target its address.  A retired server drops all local state and
        forwards every arriving request to its successor (the absorbing
        parent), whose answers teach senders the new topology.
        """
        self.is_leaf = False
        self.store = None
        self.visitors = VisitorDB()
        self.caches = LeafCaches(CacheConfig.disabled())
        self._retired_to = successor

    @property
    def retired(self) -> bool:
        return self._retired_to is not None

    def deliver(self, message) -> None:
        """Intercept delivery: a retired address forwards all requests.

        Responses still resolve locally parked futures, and fan-out
        sub-results addressed to a still-open local collector are
        aggregated locally (a query issued just before retirement must
        not hang); everything else goes to the successor unchanged — the
        messages carry their own reply/entry-server addresses, so
        answers flow to the right place.  In particular a protocol-lane
        *envelope* (update / handover / deregister batch) is forwarded
        whole: retirement never splits it.

        Before any of that, the PR-9 quarantine runs: a message with
        mutated fields or an epoch beyond the stale horizon is rejected
        here — a retired alias must not *forward* poison either.
        """
        if self._quarantine(message):
            return
        if self._retired_to is not None and not isinstance(message, m.Response):
            if (
                isinstance(message, _SUB_RESULTS)
                and message.query_id in self._batch_collectors
            ):
                super().deliver(message)
                return
            self.stats.note(message)
            self.send(self._retired_to, message)
            return
        super().deliver(message)

    # -- receive-path quarantine (PR 9) ------------------------------------

    def _quarantine(self, message) -> bool:
        """Reject damaged or beyond-horizon-stale messages before dispatch.

        Returns ``True`` when the message must not be processed.  A
        defective *sub-result* additionally aborts the collector waiting
        on it (retryably — the entry server re-issues the fan-out), so a
        quarantined answer degrades to a retry instead of a hang.
        """
        defect = find_defect(message)
        if defect is not None:
            self.stats.messages_quarantined += 1
            if self.ctx is not None:
                self.ctx.note_quarantined()
            self._abort_collectors_for(message)
            return True
        epoch = getattr(message, "epoch", None)
        if (
            isinstance(epoch, int)
            and not isinstance(epoch, bool)
            and self.topology_epoch - epoch > _EPOCH_REJECT_HORIZON
        ):
            self.stats.stale_epoch_rejected += 1
            if self.ctx is not None:
                self.ctx.note_stale_rejected()
            return True
        return False

    def _abort_collectors_for(self, message) -> None:
        """Retryably abort collectors a quarantined sub-result belonged to.

        The aborted collection resolves immediately with ``stale`` set,
        so the issuing retry loop re-fans it out instead of waiting for
        coverage that can no longer arrive.  When the damage hit the
        ``query_id`` itself the victim is unidentifiable — abort every
        live collector (rare at realistic corruption rates, and strictly
        a latency cost).
        """
        if not isinstance(message, _SUB_RESULTS):
            return
        collectors = self._batch_collectors
        query_id = getattr(message, "query_id", "")
        if query_id in collectors:
            victims = [collectors[query_id]]
        else:
            victims = list(collectors.values())
        for collector in victims:
            collector.stale = True
            collector.resolve()

    # -- routing helpers -----------------------------------------------------------

    def _contains(self, pos: Point) -> bool:
        return self.config.contains(pos)

    def _child_for(self, pos: Point):
        return self.config.child_for(pos)

    @property
    def _parent(self) -> str | None:
        return self.config.parent

    # ======================================================================
    # Algorithm 6-1: registration
    # ======================================================================

    def _on_register(self, msg: m.RegisterReq) -> None:
        self.stats.note(msg)
        pos = msg.sighting.pos
        if not self._contains(pos):
            if self._parent is None:
                self.send(
                    msg.reply_to,
                    m.RegisterRes(
                        request_id=msg.request_id,
                        ok=False,
                        error="position outside the root service area",
                    ),
                )
                return
            self.send(self._parent, msg)  # forward upwards
            return
        if not self.is_leaf:
            child = self._child_for(pos)
            self.send(child.server_id, msg)  # forward downwards
            return
        # Responsible leaf server: negotiate and admit (lines 3-15).
        offered = self.accuracy.negotiate(msg.des_acc, msg.min_acc)
        if offered is None:
            self.send(
                msg.reply_to,
                m.RegisterRes(
                    request_id=msg.request_id,
                    ok=False,
                    achievable_acc=self.accuracy.achievable,
                    error="requested accuracy range not achievable",
                ),
            )
            return
        self.store.register(
            msg.sighting, msg.des_acc, msg.min_acc, msg.registrar, now=self.ctx.now()
        )
        self.stats.registrations += 1
        if self._parent is not None:
            self._spawn_repair(
                self._parent,
                m.CreatePath(msg.sighting.object_id, sender=self.address),
            )
        self.send(
            msg.reply_to,
            m.RegisterRes(
                request_id=msg.request_id, ok=True, agent=self.address, offered_acc=offered
            ),
        )

    def _on_create_path(self, msg: m.CreatePath) -> None:
        self.stats.note(msg)
        self._ack_repair(msg)
        self.visitors.insert_forward(msg.object_id, msg.sender)
        if self._parent is not None:
            self._spawn_repair(
                self._parent, m.CreatePath(msg.object_id, sender=self.address)
            )

    # ======================================================================
    # Algorithm 6-2: position updates
    # ======================================================================
    #
    # One write lane.  Servers exchange only per-destination *envelopes*
    # (update / handover / deregister / teardown batches): one message
    # per destination, one batched store pass for everything locally
    # applicable, per-next-hop sub-envelopes for the rest.  A device's
    # single ``UpdateReq`` / ``DeregisterReq`` is served at the edge as
    # an envelope of one and never travels between servers.

    async def _gather(self, coros: list):
        """Drive sub-envelope requests concurrently; results in order."""
        if len(coros) == 1:
            return [await coros[0]]
        tasks = [
            self.ctx.spawn(coro, name=f"{self.address}:batch-sub") for coro in coros
        ]
        return [await task for task in tasks]

    def _note_epoch(self, msg) -> None:
        """Count traffic stamped with a pre-rebalance topology epoch.

        Stale-epoch messages need no special routing — the role-change
        forwarding machinery (forward references, retirement aliases)
        already re-routes them through the *current* hierarchy — but the
        counter makes the overlap observable: a migration that cut over
        under live traffic shows up here instead of as a drained loop.
        """
        if msg.epoch < self.topology_epoch:
            self.stats.stale_epoch_messages += 1

    def _on_update(self, msg: m.UpdateReq) -> Coroutine | None:
        """Device-facing edge: one report, served as an envelope of one."""
        self.stats.note(msg)

        def reply(outcomes) -> None:
            outcome = outcomes[msg.sighting.object_id]
            self.send(
                msg.reply_to,
                m.UpdateRes(
                    request_id=msg.request_id,
                    ok=outcome.ok,
                    agent=outcome.agent,
                    offered_acc=outcome.offered_acc,
                    deregistered=outcome.deregistered,
                    error=outcome.error,
                ),
            )

        return self._reply_after(*self._apply_updates((msg.sighting,)), reply)

    def _on_update_batch(self, msg: m.UpdateBatchReq) -> Coroutine | None:
        self.stats.note(msg)
        self._note_epoch(msg)

        def reply(outcomes) -> None:
            self.send(
                msg.reply_to,
                m.UpdateBatchRes(
                    request_id=msg.request_id,
                    outcomes=tuple(
                        outcomes[oid]
                        for oid in dict.fromkeys(s.object_id for s in msg.sightings)
                    ),
                ),
            )

        return self._reply_after(
            *self._apply_updates(msg.sightings, msg.sub_timeout), reply
        )

    def _reply_after(self, outcomes: dict, subtasks: list, reply) -> Coroutine | None:
        """``reply(outcomes)`` at once when no sub-envelope waits;
        otherwise the continuation that merges every sub-envelope's
        outcomes first (the handler returns it, ``deliver`` spawns it)."""
        if subtasks:
            return self._merge_then_reply(outcomes, subtasks, reply)
        reply(outcomes)
        return None

    async def _merge_then_reply(self, outcomes: dict, subtasks: list, reply) -> None:
        for merged in await self._gather(subtasks):
            outcomes.update(merged)
        reply(outcomes)

    def _apply_updates(
        self, sightings, sub_timeout: float | None = None
    ) -> tuple[dict[str, m.UpdateOutcome], list]:
        """Algorithm 6-2 for a set of reports: the per-object outcomes
        settled here, and the sub-envelope coroutines that settle the
        rest (each returns its items' outcomes).

        In-area items this server is the agent of go through one batched
        store pass, items that left the area through the handover lane,
        and items known only by a forwarding reference (a post-split
        interior server devices still address as their agent) one step
        down the path — the real agent's outcome re-points the sender.
        """
        outcomes: dict[str, m.UpdateOutcome] = {}
        fast: list = []  # agent here, still in-area → one store batch
        fast_records: list = []
        crossing: list = []  # agent here, left the area → handover lane
        forward: dict[str, list] = {}  # known only by forwarding reference
        is_leaf = self.is_leaf
        for sighting in sightings:
            oid = sighting.object_id
            record = self.visitors.leaf_record(oid) if is_leaf else None
            if record is None:
                next_hop = self.visitors.forward_ref(oid)
                if next_hop is not None:
                    forward.setdefault(next_hop, []).append(sighting)
                else:
                    outcomes[oid] = m.UpdateOutcome(
                        object_id=oid,
                        ok=False,
                        error=f"{self.address} is not the agent of {oid}",
                    )
            elif self._contains(sighting.pos):
                fast.append(sighting)
                fast_records.append(record)
            else:
                crossing.append((sighting, record))
        if fast:
            self.apply_in_area(fast, self.ctx.now())
            for sighting, record in zip(fast, fast_records):
                oid = sighting.object_id  # (object_id, ok, agent, offered_acc)
                outcomes[oid] = _UPDATE_OUTCOME(oid, True, self.address, record.offered_acc)
        subtasks = [
            self._forward_update_batch(next_hop, batch, sub_timeout)
            for next_hop, batch in forward.items()
        ]
        if crossing:
            subtasks.append(self._handover_batch(crossing, sub_timeout))
        return outcomes, subtasks

    def apply_in_area(self, sightings, now: float) -> None:
        """Algorithm 6-2's always-local step: in-area reports of objects
        this leaf is the agent of land as one store batch, are counted in
        ``stats.updates`` and are shown to :attr:`update_listener`.  The
        one place an in-area report is applied, whether it arrived in an
        envelope or from the in-process facade."""
        self.store.update_many(sightings, now=now)
        self.stats.updates += len(sightings)
        if self.update_listener is not None:
            self.update_listener([s.object_id for s in sightings])

    async def _forward_update_batch(
        self, next_hop: str, sightings: list, sub_timeout: float | None = None
    ) -> dict[str, m.UpdateOutcome]:
        """Route a sub-envelope one step down the forwarding path.

        With ``sub_timeout`` set, an unanswered next hop (crashed
        subtree) yields per-item *unacknowledged* outcomes instead of
        hanging the parent envelope — the service resends only those
        items (per-item retry bookkeeping).
        """
        try:
            res = await self.request(
                next_hop,
                m.UpdateBatchReq(
                    request_id=self.next_request_id(),
                    reply_to=self.address,
                    sightings=tuple(sightings),
                    epoch=self.topology_epoch,
                    sub_timeout=sub_timeout,
                ),
                timeout=sub_timeout,
            )
        except TransportError:
            return {
                s.object_id: m.UpdateOutcome(
                    object_id=s.object_id, ok=False, error=m.NACK_UNACKNOWLEDGED
                )
                for s in sightings
            }
        assert isinstance(res, m.UpdateBatchRes)
        return {outcome.object_id: outcome for outcome in res.outcomes}

    def _drop_objects(self, object_ids: list[str]) -> None:
        """Remove the visitor and sighting records (Alg. 6-2 lines 5-6)
        of an envelope's departures in one store pass."""
        if self.is_leaf:
            self.store.deregister_many(object_ids)
        else:
            self.visitors.remove_many(object_ids)

    # ======================================================================
    # Algorithm 6-3: handover
    # ======================================================================

    async def _handover_batch(
        self, crossing: list, sub_timeout: float | None = None
    ) -> dict[str, m.UpdateOutcome]:
        """Initiate handovers for the out-of-area reports of one pass.

        Items are grouped per destination — a §6.5-cached leaf (direct
        dispatch) or the parent — and each group travels as one
        :class:`~repro.core.messages.HandoverBatchReq`.
        """
        self.stats.handovers_initiated += len(crossing)
        groups: dict[str | None, list[m.HandoverBatchItem]] = {}
        for sighting, record in crossing:
            target = self.caches.leaf_for_point(sighting.pos.x, sighting.pos.y)
            if target == self.address:
                target = None  # stale self-entry: route via the hierarchy
            # (sighting, reg_info, previous_offered)
            groups.setdefault(target, []).append(
                _HANDOVER_ITEM(sighting, record.reg_info, record.offered_acc)
            )
        outcomes: dict[str, m.UpdateOutcome] = {}
        subtasks = []
        for target, items in groups.items():
            if target is None and self._parent is None:
                # Single-server LS: the objects left the root service area.
                left = [item.sighting.object_id for item in items]
                self._drop_objects(left)
                for oid in left:  # (object_id, ok, agent, offered_acc, deregistered)
                    outcomes[oid] = _UPDATE_OUTCOME(oid, True, None, None, True)
                continue
            dest = self._parent if target is None else target
            subtasks.append(
                self._request_handover_batch(
                    dest, items, direct=target is not None, sub_timeout=sub_timeout
                )
            )
        if subtasks:
            departed: list[str] = []
            for sub_outcomes in await self._gather(subtasks):
                for hres in sub_outcomes:
                    oid = hres.object_id
                    if hres.unacknowledged:
                        # The handover may or may not have landed (crashed
                        # subtree): keep the object — re-running the item
                        # is idempotent — and report it retryable.
                        outcomes[oid] = _UPDATE_OUTCOME(
                            oid, False, None, None, False, m.NACK_UNACKNOWLEDGED
                        )
                        continue
                    self.caches.note_leaf_area(hres.new_agent, hres.origin_area)
                    departed.append(oid)
                    # No new agent: the object left the root service area.
                    outcomes[oid] = _UPDATE_OUTCOME(
                        oid, True, hres.new_agent, hres.offered_acc, hres.new_agent is None
                    )
            self._drop_objects(departed)
        return outcomes

    async def _request_handover_batch(
        self, dest: str, items: list, direct: bool, sub_timeout: float | None = None
    ) -> tuple[m.HandoverOutcome, ...]:
        try:
            res = await self.request(
                dest,
                m.HandoverBatchReq(
                    request_id=self.next_request_id(),
                    reply_to=self.address,
                    sender=self.address,
                    items=tuple(items),
                    direct=direct,
                    epoch=self.topology_epoch,
                    sub_timeout=sub_timeout,
                ),
                timeout=sub_timeout,
            )
        except TransportError:
            # (object_id, new_agent, offered_acc, origin_area, unacknowledged)
            return tuple(
                _HANDOVER_OUTCOME(item.sighting.object_id, None, None, None, True)
                for item in items
            )
        assert isinstance(res, m.HandoverBatchRes)
        return res.outcomes

    def _on_handover_batch(self, msg: m.HandoverBatchReq) -> Coroutine | None:
        self.stats.note(msg)
        self._note_epoch(msg)
        outcomes: dict[str, m.HandoverOutcome] = {}
        subtasks: list[tuple[str | None, object]] = []  # (child_id, coro)
        if self.is_leaf:
            admit, escalate = [], []
            for item in msg.items:
                (admit if self._contains(item.sighting.pos) else escalate).append(item)
            if admit:
                outcomes.update(self._admit_handover_batch(admit, direct=msg.direct))
        else:
            by_child: dict[str, list] = {}
            escalate = []
            for item in msg.items:
                if self._contains(item.sighting.pos):
                    child = self._child_for(item.sighting.pos)
                    by_child.setdefault(child.server_id, []).append(item)
                else:
                    escalate.append(item)
            for child_id, items in by_child.items():
                subtasks.append(
                    (
                        child_id,
                        self._request_handover_batch(
                            child_id, items, False, sub_timeout=msg.sub_timeout
                        ),
                    )
                )
        if escalate:
            subtasks.append(
                (None, self._escalate_handover_batch(escalate, msg.sub_timeout))
            )
        if subtasks:
            return self._finish_handover_batch(msg, outcomes, subtasks)
        self._reply_handover_batch(msg, outcomes)  # leaf-side admission only
        return None

    async def _finish_handover_batch(
        self, msg: m.HandoverBatchReq, outcomes: dict, subtasks: list
    ) -> None:
        """The waiting half of :meth:`_on_handover_batch`: gather the
        per-child and upward sub-envelopes, then answer."""
        results = await self._gather([coro for _, coro in subtasks])
        for (child_id, _), sub_outcomes in zip(subtasks, results):
            if child_id is not None:
                # Create or reset the forwarding pointers (Alg. 6-3
                # lines 12-13) — one batched visitor-DB pass.  An
                # unacknowledged item installed nothing downstream,
                # so no pointer must be created for it either.
                self.visitors.insert_forward_many(
                    (outcome.object_id, child_id)
                    for outcome in sub_outcomes
                    if not outcome.unacknowledged
                )
            outcomes.update((outcome.object_id, outcome) for outcome in sub_outcomes)
        self._reply_handover_batch(msg, outcomes)

    def _reply_handover_batch(self, msg: m.HandoverBatchReq, outcomes: dict) -> None:
        self.send(
            msg.reply_to,
            m.HandoverBatchRes(
                request_id=msg.request_id,
                outcomes=tuple(
                    outcomes[item.sighting.object_id] for item in msg.items
                ),
            ),
        )

    def _admit_handover_batch(
        self, items: list, direct: bool
    ) -> dict[str, m.HandoverOutcome]:
        """Leaf-side admission of a whole envelope (Alg. 6-3 lines 3-9,
        batched): one ``admit_handover_many`` store pass, path repairs
        and accuracy notifications batched per destination."""
        offers = self.store.admit_handover_many(
            [(item.sighting, item.reg_info) for item in items], now=self.ctx.now()
        )
        self.stats.handovers_admitted += len(items)
        if self.update_listener is not None:
            self.update_listener([item.sighting.object_id for item in items])
        outcomes: dict[str, m.HandoverOutcome] = {}
        repairs: list[m.Message] = []
        for item, offered in zip(items, offers):
            oid = item.sighting.object_id
            if direct and self._parent is not None:
                repairs.append(m.PathUpdate(object_id=oid, sender=self.address))
            if item.previous_offered is not None and offered != item.previous_offered:
                self.send(
                    item.reg_info.registrar,
                    m.NotifyAvailAcc(object_id=oid, offered_acc=offered),
                )
            # (object_id, new_agent, offered_acc, origin_area)
            outcomes[oid] = _HANDOVER_OUTCOME(oid, self.address, offered, self.config.area)
        for repair in repairs:
            self._spawn_repair(self._parent, repair)
        return outcomes

    async def _escalate_handover_batch(
        self, items: list, sub_timeout: float | None = None
    ) -> tuple[m.HandoverOutcome, ...]:
        """Pass out-of-area items up as one envelope (Alg. 6-3 lines
        16-19, batched); at the root the objects left the service area
        and are deregistered hierarchy-wide."""
        if self._parent is None:
            left = [item.sighting.object_id for item in items]
            self.visitors.remove_many(left)
            # (object_id, new_agent, offered_acc)
            return tuple(_HANDOVER_OUTCOME(oid, None, None) for oid in left)
        sub_outcomes = await self._request_handover_batch(
            self._parent, items, False, sub_timeout=sub_timeout
        )
        # This server is no longer on these paths (Alg. 6-3 line 19) —
        # except for unacknowledged items, whose path must stay intact
        # for the retry.
        self.visitors.remove_many(
            outcome.object_id for outcome in sub_outcomes if not outcome.unacknowledged
        )
        return sub_outcomes

    # ======================================================================
    # Deregistration and soft-state teardown
    # ======================================================================

    async def _on_deregister(self, msg: m.DeregisterReq) -> None:
        """Device-facing edge: one deregistration, an envelope of one."""
        self.stats.note(msg)
        results, _ = await self._apply_deregisters((msg.object_id,))
        self.send(
            msg.reply_to,
            m.DeregisterRes(request_id=msg.request_id, ok=results[msg.object_id]),
        )

    async def _on_deregister_batch(self, msg: m.DeregisterBatchReq) -> None:
        self.stats.note(msg)
        self._note_epoch(msg)
        results, nacks = await self._apply_deregisters(
            msg.object_ids, msg.sub_timeout
        )
        self.send(
            msg.reply_to,
            m.DeregisterBatchRes(
                request_id=msg.request_id,
                results=tuple(
                    (oid, results[oid]) for oid in dict.fromkeys(msg.object_ids)
                ),
                nacks=tuple(sorted(nacks.items())),
            ),
        )

    async def _apply_deregisters(
        self, object_ids, sub_timeout: float | None = None
    ) -> tuple[dict[str, bool], dict[str, str]]:
        """Deregister a set of objects; per-object ``ok`` and NACK reason.

        Ids this leaf is the agent of are dropped and their paths torn
        down with one upward ``PathTeardownBatch``; ids known only by a
        forwarding reference travel one step down the path.
        """
        results: dict[str, bool] = {}
        nacks: dict[str, str] = {}
        local: list[str] = []
        forward: dict[str, list[str]] = {}
        is_leaf = self.is_leaf
        for oid in object_ids:
            if is_leaf and self.visitors.leaf_record(oid) is not None:
                local.append(oid)
            else:
                next_hop = self.visitors.forward_ref(oid)
                if next_hop is not None:
                    forward.setdefault(next_hop, []).append(oid)
                else:
                    results[oid] = False
                    # NACK: a tombstone means a record for this id was
                    # removed here before (a repeat deregistration or a
                    # raced expiry) — without one the id was never known.
                    nacks[oid] = (
                        m.NACK_ALREADY_GONE
                        if self.visitors.was_removed(oid)
                        else m.NACK_NEVER_EXISTED
                    )
        if local:
            self.store.deregister_many(local)
            results.update(dict.fromkeys(local, True))
            if self._parent is not None:
                self.send(
                    self._parent,
                    m.PathTeardownBatch(
                        object_ids=tuple(local),
                        sender=self.address,
                        epoch=self.topology_epoch,
                    ),
                )
        if forward:
            merged = await self._gather(
                [
                    self._forward_deregister_batch(next_hop, oids, sub_timeout)
                    for next_hop, oids in forward.items()
                ]
            )
            for sub_results, sub_nacks in merged:
                results.update(sub_results)
                nacks.update(sub_nacks)
        return results, nacks

    async def _forward_deregister_batch(
        self, next_hop: str, object_ids: list[str], sub_timeout: float | None = None
    ) -> tuple[dict[str, bool], dict[str, str]]:
        try:
            res = await self.request(
                next_hop,
                m.DeregisterBatchReq(
                    request_id=self.next_request_id(),
                    reply_to=self.address,
                    object_ids=tuple(object_ids),
                    epoch=self.topology_epoch,
                    sub_timeout=sub_timeout,
                ),
                timeout=sub_timeout,
            )
        except TransportError:
            return (
                {oid: False for oid in object_ids},
                {oid: m.NACK_UNACKNOWLEDGED for oid in object_ids},
            )
        assert isinstance(res, m.DeregisterBatchRes)
        return dict(res.results), dict(res.nacks)

    def _on_path_teardown_batch(self, msg: m.PathTeardownBatch) -> None:
        self.stats.note(msg)
        self._note_epoch(msg)
        # Per-object guard: only ids whose reference still points at the
        # sender survive into the upward envelope (the rest raced a
        # handover that redirected the path).
        live: list[str] = []
        nacks: list[tuple[str, str]] = []
        for oid in msg.object_ids:
            ref = self.visitors.forward_ref(oid)
            if ref == msg.sender:
                live.append(oid)
            elif ref is not None:
                nacks.append((oid, m.NACK_REDIRECTED))
            elif self.visitors.was_removed(oid):
                nacks.append((oid, m.NACK_ALREADY_GONE))
            else:
                nacks.append((oid, m.NACK_NEVER_EXISTED))
        if nacks:
            self.send(
                msg.sender,
                m.PathTeardownNack(object_ids=tuple(nacks), sender=self.address),
            )
        if not live:
            return
        self.visitors.remove_many(live)
        if self._parent is not None:
            self.send(
                self._parent,
                m.PathTeardownBatch(
                    object_ids=tuple(live),
                    sender=self.address,
                    epoch=self.topology_epoch,
                ),
            )

    def _on_path_teardown_nack(self, msg: m.PathTeardownNack) -> None:
        """Record per-id teardown NACKs (observability only: a
        *redirected* path is live again — a handover won the race and
        the new branch must stay — and an *already-gone* or
        *never-existed* path needs no further teardown)."""
        self.stats.note(msg)
        self.stats.teardown_nacks += len(msg.object_ids)

    # -- cached-handover path repair (§6.5, derived) -----------------------------

    def _spawn_repair(self, dest: str, message) -> None:
        """Deliver a path-repair message at-least-once (PR 9).

        Each hop acks its *local* application with
        :class:`~repro.core.messages.PathAck`; further propagation is the
        hop's own acked delivery.  Retries re-send the same repair under
        a fresh request id — application is idempotent (forwarding
        inserts overwrite, removals of an absent ref are no-ops), so a
        duplicate caused by a lost ack is harmless.
        """

        # The first attempt goes out inline, before the caller's own reply
        # — path propagation must not lag behind the answer that makes the
        # object queryable.  Only the ack wait (and any retries) runs in
        # the spawned task.  That is why this keeps its own re-send loop
        # instead of spawning Endpoint.ask: a spawned task starts on
        # call_soon (SimTask too), so its first send would leave after
        # the reply and reorder the messages.
        first_id = self.next_request_id()
        first_future = self.park(first_id)
        self.send(
            dest, replace(message, request_id=first_id, reply_to=self.address)
        )

        async def drive() -> None:
            try:
                await self.wait(first_id, first_future, _PATH_REPAIR_TIMEOUT)
                return
            except TransportError:
                pass
            for _ in range(_PATH_REPAIR_RETRIES):
                self.stats.path_repair_resends += 1
                try:
                    await self.request(
                        dest,
                        replace(
                            message,
                            request_id=self.next_request_id(),
                            reply_to=self.address,
                        ),
                        timeout=_PATH_REPAIR_TIMEOUT,
                    )
                    return
                except TransportError:
                    continue
            self.stats.path_repairs_abandoned += 1

        self.ctx.spawn(drive(), name=f"{self.address}:path-repair")

    def _ack_repair(self, msg) -> None:
        if msg.reply_to:
            self.send(msg.reply_to, m.PathAck(request_id=msg.request_id))

    def _on_path_update(self, msg: m.PathUpdate) -> None:
        self.stats.note(msg)
        self._ack_repair(msg)
        previous = self.visitors.forward_ref(msg.object_id)
        if previous == msg.sender:
            return  # path already correct: common ancestor reached (or a retry)
        self.visitors.insert_forward(msg.object_id, msg.sender)
        if previous is not None:
            # Common ancestor: prune the stale branch, stop propagating.
            self._spawn_repair(previous, m.RemovePath(object_id=msg.object_id))
            return
        if self._parent is not None:
            self._spawn_repair(
                self._parent,
                m.PathUpdate(object_id=msg.object_id, sender=self.address),
            )

    def _on_remove_path(self, msg: m.RemovePath) -> None:
        self.stats.note(msg)
        self._ack_repair(msg)
        if self.is_leaf:
            record = self.visitors.leaf_record(msg.object_id)
            if record is not None:
                self.store.deregister(msg.object_id)
            return
        next_hop = self.visitors.forward_ref(msg.object_id)
        self.visitors.remove(msg.object_id)
        if next_hop is not None:
            self._spawn_repair(next_hop, m.RemovePath(object_id=msg.object_id))

    def _on_cache_invalidate(self, msg: m.CacheInvalidate) -> None:
        """Apply a §6.5 invalidation broadcast (migration cutover)."""
        self.stats.note(msg)
        self.caches.apply_invalidation(msg.forget, msg.learned)
        if msg.epoch > self.topology_epoch:
            self.topology_epoch = msg.epoch

    def _on_ping(self, msg: m.PingReq) -> None:
        """Liveness probe (chaos/recovery lane): answer with our epoch.

        A crashed server never answers — the network drops traffic to a
        down address — so the recovery coordinator's probe timeout is the
        failure signal.  A retired alias forwards the probe to its
        successor like any other request, which is correct: the region
        is still served."""
        self.stats.note(msg)
        self.send(
            msg.reply_to,
            m.PingRes(request_id=msg.request_id, epoch=self.topology_epoch),
        )

    # ======================================================================
    # Algorithm 6-4: position queries
    # ======================================================================

    def _on_pos_query(self, msg: m.PosQueryReq) -> Coroutine | None:
        self.stats.note(msg)
        if not self.is_leaf:
            # Clients access the LS through leaf entry servers (Section 6).
            self.send(msg.reply_to, m.PosQueryRes(request_id=msg.request_id, found=False))
            return None
        self.stats.pos_queries_served += 1
        object_id = msg.object_id
        # Local answer (entry server is the agent).
        record = self.visitors.leaf_record(object_id)
        if record is not None and self.store.sightings.get(object_id) is not None:
            self.send(
                msg.reply_to,
                m.PosQueryRes(
                    request_id=msg.request_id,
                    found=True,
                    descriptor=self.store.position_query(object_id),
                    agent=self.address,
                ),
            )
            return None
        # §6.5 descriptor cache.
        cached = self.caches.fresh_descriptor(object_id, self.ctx.now(), msg.req_acc)
        if cached is not None:
            self.send(
                msg.reply_to,
                m.PosQueryRes(
                    request_id=msg.request_id,
                    found=True,
                    descriptor=cached,
                    agent=self.caches.agent_of(object_id),
                ),
            )
            return None
        return self._answer_resolved(msg)

    async def _answer_resolved(self, msg: m.PosQueryReq) -> None:
        """The waiting half of :meth:`_on_pos_query`: resolve the object
        elsewhere, remember the answer in the §6.5 caches, reply."""
        object_id = msg.object_id
        answer = await self._resolve_position(object_id)
        if answer.found:
            self.caches.note_agent(object_id, answer.agent)
            self.caches.note_leaf_area(answer.agent, answer.origin_area)
            self.caches.note_descriptor(
                object_id, answer.descriptor, answer.as_of if answer.as_of is not None else self.ctx.now()
            )
        self.send(
            msg.reply_to,
            m.PosQueryRes(
                request_id=msg.request_id,
                found=answer.found,
                descriptor=answer.descriptor,
                agent=answer.agent,
            ),
        )

    async def _resolve_position(self, object_id: str) -> m.PosQueryAnswer:
        """Find the object's descriptor via cache probe or hierarchy."""
        # §6.5 agent cache: probe the remembered agent directly.
        cached_agent = self.caches.agent_of(object_id)
        if cached_agent is not None and cached_agent != self.address:
            query_id = self.next_request_id()
            future = self.park(query_id)
            self.send(
                cached_agent,
                m.PosQueryDirect(
                    query_id=query_id, object_id=object_id, entry_server=self.address
                ),
            )
            answer = await self.wait(query_id, future)
            assert isinstance(answer, m.PosQueryAnswer)
            if answer.found or answer.authoritative:
                return answer
            self.caches.invalidate_agent(object_id)
        # Hierarchy traversal (Alg. 6-4).
        if self._parent is None:
            return m.PosQueryAnswer(request_id="", found=False)
        query_id = self.next_request_id()
        future = self.park(query_id)
        self.send(
            self._parent,
            m.PosQueryFwd(query_id=query_id, object_id=object_id, entry_server=self.address),
        )
        answer = await self.wait(query_id, future)
        assert isinstance(answer, m.PosQueryAnswer)
        return answer

    def _on_pos_query_fwd(self, msg: m.PosQueryFwd) -> None:
        self.stats.note(msg)
        object_id = msg.object_id
        if self.is_leaf:
            self._answer_pos_query(msg.query_id, msg.entry_server, object_id, authoritative=True)
            return
        next_hop = self.visitors.forward_ref(object_id)
        if next_hop is not None:
            self.send(next_hop, msg)  # forward downwards along the path
        elif self._parent is not None:
            self.send(self._parent, msg)  # forward upwards
        else:
            # Root without a record: the object is not tracked by the LS.
            self.send(
                msg.entry_server,
                m.PosQueryAnswer(request_id=msg.query_id, found=False, authoritative=True),
            )

    def _on_pos_query_direct(self, msg: m.PosQueryDirect) -> None:
        self.stats.note(msg)
        self._answer_pos_query(
            msg.query_id, msg.entry_server, msg.object_id, authoritative=False
        )

    def _answer_pos_query(
        self, query_id: str, entry_server: str, object_id: str, authoritative: bool
    ) -> None:
        """Leaf-side answer: a positive hit or a (non-)authoritative miss."""
        record = self.visitors.leaf_record(object_id) if self.is_leaf else None
        sighting = self.store.sightings.get(object_id) if record is not None else None
        if record is None or sighting is None:
            self.send(
                entry_server,
                m.PosQueryAnswer(
                    request_id=query_id, found=False, authoritative=authoritative
                ),
            )
            return
        self.send(
            entry_server,
            m.PosQueryAnswer(
                request_id=query_id,
                found=True,
                descriptor=self.store.position_query(object_id),
                agent=self.address,
                origin_area=self.config.area,
                as_of=sighting.timestamp,
                authoritative=True,
            ),
        )

    # ======================================================================
    # Algorithm 6-5: range queries — and the one fan-out they share with
    # the nearest-neighbor ring rounds
    # ======================================================================
    #
    # One query lane.  A fan-out carries *items* — (result bucket,
    # dispatch rect) — of one kind (:data:`_RANGE` / :data:`_NN`), one
    # forward per next hop and one sub-result per answering leaf.  A
    # client's single ``RangeQueryReq`` / ``NeighborQueryReq`` is served
    # at the edge as a batch of one.

    async def _on_range_query(self, msg: m.RangeQueryReq) -> None:
        """Client-facing edge: one query, served as a batch of one."""
        self.stats.note(msg)
        if not self.is_leaf:
            self.send(
                msg.reply_to,
                m.RangeQueryRes(request_id=msg.request_id, entries=(), servers_involved=0),
            )
            return
        query = RangeQuery(msg.area, req_acc=msg.req_acc, req_overlap=msg.req_overlap)
        (entries,), origins = await self._execute_range_many([query])
        self.send(
            msg.reply_to,
            m.RangeQueryRes(
                request_id=msg.request_id,
                entries=entries,
                servers_involved=len(origins),
            ),
        )

    # -- internal query API (event engine, embedding applications) ------------

    async def evaluate_range(self, query: RangeQuery) -> tuple[ObjectEntry, ...]:
        """Run a distributed range query from this (leaf) entry server."""
        (entries,), _ = await self._execute_range_many([query])
        return entries

    async def evaluate_position(self, object_id: str):
        """Resolve one object's descriptor from this (leaf) entry server;
        ``None`` when the object is not tracked."""
        if self.is_leaf:
            record = self.visitors.leaf_record(object_id)
            if record is not None and self.store.sightings.get(object_id) is not None:
                return self.store.position_query(object_id)
        answer = await self._resolve_position(object_id)
        return answer.descriptor if answer.found else None

    async def evaluate_range_many(
        self, queries: list[RangeQuery]
    ) -> list[tuple[ObjectEntry, ...]]:
        """Run many distributed range queries as *one* fan-out.

        All local portions hit the spatial index in one
        ``query_rect_many`` traversal, and the remote portions travel as
        one :class:`~repro.core.messages.RangeQueryBatchFwd` per next hop
        that interior servers re-partition per child — so a tick's worth
        of range queries costs one message per involved server instead
        of one per query per server.
        """
        entries, _ = await self._execute_range_many(queries)
        return entries

    async def _execute_range_many(
        self, queries: list[RangeQuery]
    ) -> tuple[list[tuple[ObjectEntry, ...]], set[str]]:
        """Per-query sorted entries, and the servers that answered."""
        self.stats.range_queries_served += len(queries)
        # Clamp each dispatch rect to the root service area: no tracked
        # object exists outside it, and a clamped rect lets the covered
        # accounting and the §6.5 area cache work with exact tilings.
        root_area = self.config.root_area
        buckets, origins = await self._collect(
            _RANGE,
            [
                (
                    region_bounds(q.area).enlarged(effective_margin(q)).intersection(root_area),
                    {"area": q.area, "req_acc": q.req_acc, "req_overlap": q.req_overlap},
                )
                for q in queries
            ],
        )
        return [tuple(sorted(bucket.items())) for bucket in buckets], origins

    async def _collect(
        self, kind: _FanOutKind, specs: list[tuple[Rect | None, dict]]
    ) -> tuple[list[dict[str, object]], set[str]]:
        """Entry-server half of Algorithm 6-5, for every query kind:
        collect the distributed answers of one fan-out.

        ``specs[b]`` is result bucket ``b``'s dispatch rect (``None``:
        nothing to ask) and the kind-specific fields of its wire items;
        returns the buckets' entries by object id and the answering
        servers.

        A topology epoch newer than an attempt's — observed on a
        sub-result, or on this server itself when the attempt resolves —
        means a rebalance cut over mid-flight; the coverage bookkeeping
        may then mix pre- and post-migration service areas (an absorbing
        parent's answer overlaps an already-counted retired child's), so
        the collection is re-issued under the current topology.  Entries
        accumulate across attempts (deduplicated by object id).

        Retries are **coverage-aware**: each answering leaf reports its
        service area and epoch, and the re-issue asks only for
        :meth:`_BatchCollector.remainders` — the space whose coverage is
        actually in doubt.  Past :data:`_EPOCH_RETRIES` the accumulated
        (at-least-once) entries are returned as best effort.
        """
        buckets: list[dict[str, object]] = [{} for _ in specs]
        origins: set[str] = set()
        doubt = {b: [rect] for b, (rect, _) in enumerate(specs) if rect is not None}
        for attempt in range(_EPOCH_RETRIES + 1):
            if not doubt:
                break  # every gap was answered under the current epoch
            if attempt:
                self.stats.epoch_retries += 1  # a re-issue actually runs
            targets = [(b, rect) for b, rects in doubt.items() for rect in rects]
            items = [
                kind.item(index=index, dispatch=rect, **specs[b][1])
                for index, (b, rect) in enumerate(targets)
            ]
            query_id = self.next_request_id()
            collector = _BatchCollector(
                self.ctx.create_future(), self.topology_epoch, targets, buckets, origins
            )
            self._batch_collectors[query_id] = collector
            try:
                # Local portion (Alg. 6-5 entry, lines 3-7).  The store
                # check covers a leaf that became interior mid-use.
                area = self.config.area
                local = self._answer(kind, items, area) if self.store is not None else ()
                if local:
                    collector.add(local, self.address, area, collector.epoch)
                if collector.open and self._dispatch(
                    kind, query_id, [item for item in items if item.index in collector.open]
                ):
                    await collector.future
            finally:
                self._batch_collectors.pop(query_id, None)
            if not collector.stale and self.topology_epoch == collector.epoch:
                break
            doubt = collector.remainders(self.topology_epoch)
        return buckets, origins

    def _answer(self, kind: _FanOutKind, items, area: Rect) -> tuple:
        """This leaf's ``(item index, entries, covered area)`` triple for
        every item whose dispatch touches ``area`` — one batched store
        pass, locally at the entry server and at every remote leaf."""
        live = [item for item in items if item.dispatch.intersects(area)]
        if not live:
            return ()
        return tuple(
            (item.index, tuple(found), item.dispatch.intersection_area(area))
            for item, found in zip(live, kind.answer(self.store, live))
        )

    def _dispatch(self, kind: _FanOutKind, query_id: str, items: list) -> bool:
        """Send the still-open ``items`` on, grouped by next hop; whether
        anything was sent (a one-server hierarchy has nowhere to ask).

        An item whose dispatch rect the §6.5 area cache fully tiles goes
        straight to each of those leaves in a ``direct`` forward, which
        suppresses upward re-propagation at the receiving leaf (coverage
        would otherwise be double-counted through the tree); everything
        else goes up the hierarchy — one forward per destination.
        """
        hops: dict[tuple[str, bool], list] = {}
        if self.store is None:
            # Entry server that was split to interior mid-query (e.g. an
            # event subscription registered while it was a leaf): route
            # through our own fwd handler.  With ``sender=self.address``
            # (neither a child nor the parent) it fans into our own
            # children — who now hold the data — and still propagates
            # upward when a dispatch escapes our area.
            hops[self.address, False] = items
        else:
            for item in items:
                covering = self.caches.leaves_covering(item.dispatch) or ()
                leaves = [leaf for leaf, _ in covering if leaf != self.address]
                for leaf in leaves:
                    hops.setdefault((leaf, True), []).append(item)
                if not leaves and self._parent is not None:
                    hops.setdefault((self._parent, False), []).append(item)
        for (dest, direct), batch in hops.items():
            self.send(
                dest,
                kind.fwd(
                    query_id=query_id,
                    items=tuple(batch),
                    entry_server=self.address,
                    sender=self.address,
                    epoch=self.topology_epoch,
                    direct=direct,
                ),
            )
        return bool(hops)

    def _on_fanout_fwd(self, msg) -> None:
        """Route one fan-out forward of either kind.

        A **leaf** answers every item touching its area through one
        batched store pass and sends a single sub-result (stamped with
        its topology epoch, so the collector can detect a rebalance
        racing the collection) straight to the entry server; an
        **interior** server re-partitions those items per child —
        skipping the sender, so a forward never bounces straight back.
        Unless the forward is ``direct``, the items whose dispatch
        escapes this area escalate upward — unless the parent is the
        sender (upward-only-once guard).
        """
        self.stats.note(msg)
        self._note_epoch(msg)
        kind = _KIND_OF_FWD[type(msg)]
        area = self.config.area
        hops: list[tuple[str, tuple]] = []
        if self.is_leaf:
            results = self._answer(kind, msg.items, area)
            if results:
                self.send(
                    msg.entry_server,
                    kind.sub_res(
                        query_id=msg.query_id,
                        results=results,
                        origin=self.address,
                        origin_area=area,
                        epoch=self.topology_epoch,
                    ),
                )
        else:
            hops = [
                (
                    child.server_id,
                    tuple(i for i in msg.items if i.dispatch.intersects(child.area)),
                )
                for child in self.config.children
                if child.server_id != msg.sender
            ]
        if not msg.direct and self._parent is not None and self._parent != msg.sender:
            hops.append(
                (self._parent, tuple(i for i in msg.items if not area.contains_rect(i.dispatch)))
            )
        for dest, items in hops:
            if items:
                self.send(
                    dest,
                    kind.fwd(
                        query_id=msg.query_id,
                        items=items,
                        entry_server=msg.entry_server,
                        sender=self.address,
                        epoch=msg.epoch,
                    ),
                )

    def _on_fanout_sub_res(self, msg) -> None:
        self.stats.note(msg)
        self.caches.note_leaf_area(msg.origin, msg.origin_area)
        collector = self._batch_collectors.get(msg.query_id)
        if collector is not None:  # else a late answer for a finished fan-out
            collector.add(msg.results, msg.origin, msg.origin_area, msg.epoch)

    # ======================================================================
    # Nearest-neighbor queries (derived; Section 3.2 semantics)
    # ======================================================================

    async def _on_neighbor_query(self, msg: m.NeighborQueryReq) -> None:
        """Client-facing edge: one query, served as a batch of one."""
        self.stats.note(msg)
        if not self.is_leaf:
            self.send(
                msg.reply_to,
                m.NeighborQueryRes(
                    request_id=msg.request_id, result=NearestNeighborResult(nearest=None)
                ),
            )
            return
        query = NearestNeighborQuery(msg.pos, req_acc=msg.req_acc, near_qual=msg.near_qual)
        (result,), (rounds,), origins = await self._execute_neighbors_many([query])
        self.send(
            msg.reply_to,
            m.NeighborQueryRes(
                request_id=msg.request_id,
                result=result,
                rounds=rounds,
                servers_involved=len(origins),
            ),
        )

    async def evaluate_neighbors_many(
        self, queries: list[NearestNeighborQuery]
    ) -> list[NearestNeighborResult]:
        """Run many NN queries with one fan-out per ring round.

        Every round, the still-unresolved queries' probe rects travel as
        one :class:`~repro.core.messages.NNCandidatesBatchFwd` per next
        hop (re-partitioned per child by interior servers), and each
        involved leaf answers all of its probes with their shares (its
        nearest qualifying object and ``nearQual`` ring) in one call to
        ``LocalDataStore.nn_candidates_many``.
        """
        results, _, _ = await self._execute_neighbors_many(queries)
        return results

    async def _execute_neighbors_many(
        self, queries: list[NearestNeighborQuery]
    ) -> tuple[list[NearestNeighborResult], list[int], set[str]]:
        """The expanding-ring loop: per-query results and round counts,
        and the servers that answered any round."""
        root_area = self.config.root_area
        radii = [self._nn_initial_radius] * len(queries)
        results = [NearestNeighborResult(nearest=None) for _ in queries]
        rounds = [0] * len(queries)
        origins: set[str] = set()
        active = list(range(len(queries)))
        while active:
            self.stats.nn_rounds_served += len(active)
            probes = [
                Rect.from_center(queries[i].pos, 2 * radii[i], 2 * radii[i]) for i in active
            ]
            buckets, answered = await self._collect(
                _NN,
                [
                    (
                        probe.intersection(root_area),
                        {"pos": q.pos, "req_acc": q.req_acc, "near_qual": q.near_qual},
                    )
                    for q, probe in zip([queries[i] for i in active], probes)
                ],
            )
            origins |= answered
            still_active = []
            for i, probe, bucket in zip(active, probes, buckets):
                rounds[i] += 1
                query = queries[i]
                results[i] = nearest_neighbor(bucket, query)
                if probe.contains_rect(root_area):
                    continue
                nearest = results[i].nearest
                if (
                    nearest is not None
                    and nearest[1].pos.distance_to(query.pos) + query.near_qual <= radii[i]
                ):
                    continue
                radii[i] *= 2.0
                still_active.append(i)
            active = still_active
        return results, rounds, origins

    # ======================================================================
    # Accuracy renegotiation
    # ======================================================================

    def _on_change_acc(self, msg: m.ChangeAccReq) -> None:
        self.stats.note(msg)
        if not self.is_leaf or self.visitors.leaf_record(msg.object_id) is None:
            # Post-split forwarding, as in _on_update.
            next_hop = self.visitors.forward_ref(msg.object_id)
            if next_hop is not None:
                self.send(next_hop, msg)
                return
            self.send(
                msg.reply_to,
                m.ChangeAccRes(
                    request_id=msg.request_id,
                    ok=False,
                    error=f"{self.address} is not the agent of {msg.object_id}",
                ),
            )
            return
        try:
            offered = self.store.change_accuracy(msg.object_id, msg.des_acc, msg.min_acc)
        except (UnknownObjectError, AccuracyUnavailableError) as exc:
            self.send(
                msg.reply_to,
                m.ChangeAccRes(request_id=msg.request_id, ok=False, error=str(exc)),
            )
            return
        self.send(
            msg.reply_to,
            m.ChangeAccRes(request_id=msg.request_id, ok=True, offered_acc=offered),
        )

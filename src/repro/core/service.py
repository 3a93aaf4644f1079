"""High-level facade: build and drive a complete location service.

:class:`LocationService` wires a hierarchy of :class:`LocationServer`
endpoints onto a runtime network and offers a *synchronous* convenience
API on top of the simulated runtime: each call drives the virtual clock
until its response arrives.  This is the entry point the examples and
most integration tests use; benches and advanced scenarios talk to the
async layer directly.
"""

from __future__ import annotations

from typing import Iterable

from repro.core import messages as m
from repro.core.caching import CacheConfig, LeafCaches
from repro.core.client import LocationClient, NeighborAnswer, RangeAnswer, TrackedObject
from repro.core.hierarchy import Hierarchy
from repro.core.server import LocationServer
from repro.errors import LocationServiceError, TransportError
from repro.geo import Point, Region
from repro.model import AccuracyModel, LocationDescriptor, SightingRecord
from repro.runtime.base import Endpoint
from repro.runtime.validation import find_defect
from repro.runtime.latency import CostModel, LatencyModel
from repro.runtime.simnet import SimNetwork
from repro.storage.visitor_db import VisitorDB


class Reporter(Endpoint):
    """Sender of protocol-lane envelopes on behalf of many objects.

    A tick coalesces many objects' protocol traffic into one envelope
    per destination server; those envelopes need a single network
    endpoint to carry their ``reply_to`` — this is it, for the service
    tick, the elastic harness and the socket-scenario driver alike.
    """

    def __init__(self, address: str = "svc-batch-reporter") -> None:
        super().__init__(address)
        # Quarantine mutated acks instead of resolving envelope futures
        # with poison; the protocol lane then re-sends on timeout (PR 9).
        self.validator = find_defect


def protocol_sender(
    reporter: Endpoint,
    service: "LocationService",
    dest: str,
    make_envelope,
    timeout: float | None,
    what: str,
):
    """The batched protocol lane's envelope step for
    :func:`drive_item_rounds`: ``send(remaining, retries)`` asks ``dest``
    from ``reporter`` (:meth:`~repro.runtime.base.Endpoint.ask`) with
    ``make_envelope(request_id, remaining)``, a fresh request (fresh id,
    fresh timestamps) per attempt.

    A destination that left the service — a garbage-collected retirement
    alias — is re-routed to the hierarchy root first (the root reaches
    every object via its forwarding references); aliases are only dropped
    between runs, so one check covers every attempt.  When every attempt
    went unanswered (a crashed destination; requires ``timeout``), the
    service's envelope-death listeners
    (:meth:`LocationService.add_envelope_death_listener`) hear of the
    destination before :class:`~repro.errors.TransportError` is raised:
    a recovery coordinator learns of a suspect from the protocol lane
    itself, not from harness-side liveness polling.
    """

    async def send(remaining: set[str] | None, retries: int):
        target = dest
        if target not in service.servers and target not in service.retired_servers:
            target = service.hierarchy.root_id
        try:
            return await reporter.ask(
                target, lambda rid: make_envelope(rid, remaining), timeout, retries
            )
        except TransportError:
            service._note_envelope_death(target, what, retries + 1)
            raise TransportError(
                f"{what} envelope to {target} unanswered after {retries + 1} attempts"
            ) from None

    return send


async def drive_item_rounds(
    send, settle, retries: int, sub_timeout: float | None
) -> None:
    """The per-item round loop of every update and deregistration envelope.

    Each round awaits ``send(remaining, budget)``: every item
    (``remaining`` is ``None``) first, then only the ids the last answer
    left *unacknowledged* — with ``sub_timeout`` set, servers bound their
    sub-envelope fan-outs with it and answer items stuck behind a crashed
    subtree so instead of letting the whole envelope hang.
    ``settle(res)`` folds an answer and returns those ids.  Rounds stop
    when none is left or ``sub_timeout`` is unset, after at most
    ``retries`` resends.  ``budget`` is the round's envelope-level retry
    budget: only the first round gets ``retries``; later rounds target a
    destination that just answered, so they get a single attempt each —
    total envelope sends stay linear in ``retries``, not quadratic.
    ``send`` is the lane's envelope step: :func:`protocol_sender` here,
    fresh-id requests in the socket driver (:mod:`repro.net.scenario`).
    """
    remaining: set[str] | None = None
    for round_ in range(retries + 1):
        unacked = settle(await send(remaining, retries if round_ == 0 else 0))
        if not unacked or sub_timeout is None:
            return
        remaining = unacked


async def drive_update_envelope(
    reporter: Endpoint,
    service: "LocationService",
    dest: str,
    items,
    timeout: float | None,
    retries: int,
    sub_timeout: float | None = None,
) -> tuple:
    """Send one destination's ``(object id, position, sensor accuracy)``
    reports as one envelope, stamped afresh per attempt;
    envelope-level recovery rules are :func:`protocol_sender`'s,
    per-item rounds :func:`drive_item_rounds`'.  Returns the per-object
    :class:`~repro.core.messages.UpdateOutcome` tuple; items that stay
    unacknowledged are their ``ok=False`` outcomes for the caller's next
    tick to retry.
    """
    epoch = service.hierarchy.epoch
    outcomes: dict[str, m.UpdateOutcome] = {}

    def make_envelope(request_id: str, remaining: set[str] | None) -> m.UpdateBatchReq:
        now = service.loop.now
        return m.UpdateBatchReq(
            request_id=request_id,
            reply_to=reporter.address,
            sightings=tuple(
                SightingRecord(oid, now, pos, acc)
                for oid, pos, acc in items
                if remaining is None or oid in remaining
            ),
            epoch=epoch,
            sub_timeout=sub_timeout,
        )

    def settle(res) -> set[str]:
        assert isinstance(res, m.UpdateBatchRes)
        unacked: set[str] = set()
        for outcome in res.outcomes:
            outcomes[outcome.object_id] = outcome
            if not outcome.ok and outcome.error == m.NACK_UNACKNOWLEDGED:
                unacked.add(outcome.object_id)
        return unacked

    await drive_item_rounds(
        protocol_sender(reporter, service, dest, make_envelope, timeout, "update"),
        settle, retries, sub_timeout,
    )
    return tuple(outcomes.values())


class LocationService:
    """A fully wired simulated location service.

    ``backend`` is every leaf store's engine (see :class:`~repro.core.
    server.LocationServer`): ``columnar`` by default, ``objects`` for the
    quadtree ablation."""

    def __init__(
        self,
        hierarchy: Hierarchy,
        accuracy: AccuracyModel | None = None,
        cache_config: CacheConfig | None = None,
        latency: LatencyModel | None = None,
        costs: CostModel | None = None,
        sighting_ttl: float = 300.0,
        sweep_interval: float | None = None,
        nn_initial_radius: float | None = None,
        backend: str = "columnar",
    ) -> None:
        self.hierarchy = hierarchy
        self.network = SimNetwork(latency=latency, costs=costs)
        self._server_kwargs = dict(
            accuracy=accuracy,
            cache_config=cache_config,
            sighting_ttl=sighting_ttl,
            sweep_interval=sweep_interval,
            nn_initial_radius=nn_initial_radius,
            backend=backend,
        )
        self.servers: dict[str, LocationServer] = {}
        #: servers that left the hierarchy after a merge; they stay on the
        #: network as forwarding aliases for in-flight traffic.
        self.retired_servers: dict[str, LocationServer] = {}
        #: per-object update observer (see :meth:`set_update_listener`).
        self._update_listener = None
        #: envelope-exhaustion observers (see
        #: :meth:`add_envelope_death_listener`).
        self._envelope_death_listeners: list = []
        for server_id in hierarchy.server_ids():
            self.servers[server_id] = self._spawn(hierarchy.config(server_id))
        self._client_counter = 0
        self._default_client: LocationClient | None = None
        self._batch_reporter: Reporter | None = None

    def _spawn(self, config, data_store=None) -> LocationServer:
        server = LocationServer(config, data_store=data_store, **self._server_kwargs)
        #: birth time on the virtual clock; the rebalance planner uses it
        #: to keep freshly split children out of merge plans while their
        #: decayed load window is still ramping up.
        server.created_at = self.loop.now
        server.topology_epoch = self.hierarchy.epoch
        server.update_listener = self._update_listener
        self.network.join(server)
        return server

    def set_update_listener(self, listener) -> None:
        """Install a per-object update observer on every leaf server.

        ``listener(object_ids)`` is called with the ids of each applied
        batch of position updates (the batched update lane's fast paths
        and handover admissions) — this is how the elastic layer's
        :class:`~repro.cluster.load.LoadMonitor` samples per-object
        update rates without the servers knowing about the monitor.
        Servers spawned later (split children) inherit the listener;
        ``None`` uninstalls it.
        """
        self._update_listener = listener
        for server in self.servers.values():
            server.update_listener = listener

    def add_envelope_death_listener(self, listener) -> None:
        """Subscribe to protocol-envelope retry exhaustion.

        ``listener(dest, what, attempts)`` fires when a protocol-lane
        envelope (:func:`protocol_sender` — the update, handover, and
        deregistration drivers all route through it) burns its whole
        retry budget against ``dest`` without an answer.  That is
        the protocol's own dead-destination signal; the chaos layer's
        :meth:`~repro.chaos.recovery.RecoveryCoordinator.watch` records
        the suspect for confirmation instead of polling every server.

        Listeners run *inside* the driving coroutine, immediately before
        the :class:`~repro.errors.TransportError` is raised — they must
        only record (no ``service.run`` reentry, no recovery inline).
        """
        if listener not in self._envelope_death_listeners:
            self._envelope_death_listeners.append(listener)

    def _note_envelope_death(self, dest: str, what: str, attempts: int) -> None:
        for listener in tuple(self._envelope_death_listeners):
            listener(dest, what, attempts)

    # -- wiring ------------------------------------------------------------

    @property
    def loop(self):
        return self.network.loop

    def spawn_server(self, config, store=None) -> LocationServer:
        """Instantiate and join a server for a freshly derived config.

        Used by the elastic cluster layer (:mod:`repro.cluster`) when a
        split adds new leaf servers; the server shares this service's
        accuracy model, storage backend, cache and soft-state configuration.
        ``store`` installs a pre-built :class:`~repro.storage.datastore.
        LocalDataStore` (the phased migration's staged copy) in place of
        the fresh empty one.
        """
        if config.server_id in self.servers or config.server_id in self.retired_servers:
            raise LocationServiceError(f"server {config.server_id!r} already exists")
        server = self._spawn(config, data_store=store)
        self.servers[config.server_id] = server
        return server

    def adopt_hierarchy(self, hierarchy: Hierarchy) -> None:
        """Swap in a derived hierarchy after an applied rebalance plan.

        The caller (the migration executor) is responsible for having
        already converted the affected servers' roles and moved their
        state; this replaces the routing snapshot the facade uses and
        advances every live server's topology epoch — traffic already
        in flight keeps its old epoch stamp, which is how stale-epoch
        detection works.
        """
        if hierarchy.epoch <= self.hierarchy.epoch:
            raise LocationServiceError(
                f"cannot adopt epoch {hierarchy.epoch} over "
                f"{self.hierarchy.epoch}: topology epochs must increase"
            )
        self.hierarchy = hierarchy
        for server in self.servers.values():
            server.topology_epoch = hierarchy.epoch

    def broadcast_cache_invalidation(
        self, forget, learned=(), scope: str = "holders"
    ) -> int:
        """Broadcast explicit §6.5 cache invalidations (migration cutover).

        One :class:`~repro.core.messages.CacheInvalidate` per live leaf
        that runs any §6.5 cache (a cacheless leaf has nothing to
        invalidate — the paper's measured prototype broadcasts nothing):
        entries routing to the ``forget`` servers are dropped and the
        ``learned`` (leaf, area) pairs pre-seed the area caches — so a
        chatty workload's next cached dispatch goes straight to the new
        owner instead of paying the healing forward hop through the old
        address.

        The broadcast is **scoped** by default (``scope="holders"``): a
        leaf whose caches hold no entry routing to any ``forget``
        address has nothing to invalidate — a dispatch it never cached
        cannot go stale — so the cutover skips it entirely, cutting the
        topology lane from O(leaves) to O(holders) per migration on
        wide deployments.  Skipped leaves re-learn the new owners
        lazily from their next answers.  ``scope="all"`` restores the
        unconditional PR-4 broadcast (every caching leaf, pre-seeded).
        Returns the number of messages sent.
        """
        forget = tuple(forget)
        message = m.CacheInvalidate(
            epoch=self.hierarchy.epoch,
            forget=forget,
            learned=tuple(learned),
        )
        reporter = self._reporter()
        sent = 0
        for server_id, server in self.servers.items():
            if not (server.is_leaf and server.caches.config.any_enabled):
                continue
            if scope == "holders" and not any(
                server.caches.holds_route_to(old) for old in forget
            ):
                continue
            reporter.send(server_id, message)
            sent += 1
        return sent

    def retire_server(self, server_id: str, successor: str) -> LocationServer:
        """Retire a merged-away server to a forwarding alias.

        The successor is validated as a routable endpoint address up
        front: an alias forwarding to a malformed address would dead-
        letter every straggler it exists to save, and on a socket
        transport the string must also survive the wire codec.
        """
        from repro.net.address import validate_address

        validate_address(successor, what="forwarding successor")
        server = self.servers.pop(server_id)
        server.retire(successor)
        self.retired_servers[server_id] = server
        return server

    def drop_retired(self, server_id: str) -> LocationServer | None:
        """Garbage-collect a retirement alias that has gone quiet.

        The alias leaves the network entirely; every live server's §6.5
        caches forget it in the same step — a cached direct dispatch to
        a vanished address would be a dead letter with nothing behind it
        to heal the sender — and stragglers from stale *clients* become
        dead letters that the batched protocol lane re-routes through
        the hierarchy root before (re)sending an envelope.  Returns the
        dropped server, or ``None`` if it was already gone.
        """
        server = self.retired_servers.pop(server_id, None)
        if server is not None:
            self.network.leave(server_id)
            for live in self.servers.values():
                live.caches.forget_server(server_id)
        return server

    # -- failure injection (chaos layer) ---------------------------------------

    def crash_server(self, server_id: str) -> LocationServer:
        """Simulate a hard server crash (process kill).

        The network drops every message to or from the address and the
        server's volatile leaf state — sightings, spatial index — is
        wiped, exactly what dying mid-write costs a real process.  The
        *persistent* visitor store (Section 5's WAL) survives untouched;
        :meth:`restart_server` or the chaos layer's
        :class:`~repro.chaos.RecoveryCoordinator` replays it.
        """
        server = self.servers.get(server_id) or self.retired_servers.get(server_id)
        if server is None:
            raise LocationServiceError(f"unknown server {server_id!r}")
        self.network.crash(server_id)
        if server.is_leaf and server.store is not None:
            server.store.crash(now=self.loop.now)
        return server

    def restart_server(self, server_id: str) -> LocationServer:
        """Restart a crashed server via WAL replay (Section 5 recovery).

        The persistent store is replayed into a fresh visitor DB —
        forwarding paths and leaf registrations reappear exactly as
        logged — while volatile state restarts empty: sightings rebuild
        from the next position reports (soft state, one TTL to live
        otherwise) and the §6.5 caches re-warm from answers.  The server
        rejoins at the *current* topology epoch, so traffic it answers
        is stamped correctly even if the hierarchy was rebalanced while
        it was down.
        """
        server = self.servers.get(server_id) or self.retired_servers.get(server_id)
        if server is None:
            raise LocationServiceError(f"unknown server {server_id!r}")
        if not self.network.is_down(server_id):
            raise LocationServiceError(f"server {server_id!r} is not down")
        if server.is_leaf and server.store is not None:
            recovered = VisitorDB.recover(server.store.visitors.store)
            server.store.visitors = recovered
            server.visitors = recovered
            # Fresh soft-state deadlines for every recovered visitor.
            server.store.crash(now=self.loop.now)
            server.caches = LeafCaches(server._cache_config)
        else:
            server.visitors = VisitorDB.recover(server.visitors.store)
        server.topology_epoch = self.hierarchy.epoch
        self.network.restore(server_id)
        return server

    def entry_server_for(self, pos: Point) -> str:
        """The leaf server whose service area contains ``pos`` — stands in
        for the paper's local lookup service (e.g. Jini)."""
        return self.hierarchy.leaf_for_point(pos)

    def new_client(
        self, entry_server: str | None = None, timeout: float | None = None
    ) -> LocationClient:
        """Create and connect a query client."""
        self._client_counter += 1
        client = LocationClient(
            f"client-{self._client_counter}",
            entry_server or self.hierarchy.leaf_ids()[0],
            timeout=timeout,
        )
        self.network.join(client)
        return client

    def new_tracked_object(
        self,
        object_id: str,
        entry_server: str | None = None,
        sensor_acc: float = 10.0,
        timeout: float | None = None,
    ) -> TrackedObject:
        """Create and connect a tracked object."""
        obj = TrackedObject(
            object_id,
            entry_server or self.hierarchy.leaf_ids()[0],
            sensor_acc=sensor_acc,
            timeout=timeout,
        )
        self.network.join(obj)
        return obj

    # -- synchronous convenience API (drives the virtual clock) ---------------

    def run(self, coro):
        """Drive one coroutine to completion on the virtual clock."""
        return self.network.run_coro(coro)

    def settle(self, max_time: float | None = None) -> float:
        """Let all in-flight activity drain; returns the virtual time."""
        return self.network.run(max_time=max_time)

    def _client(self) -> LocationClient:
        if self._default_client is None:
            self._default_client = self.new_client()
        return self._default_client

    def register(
        self,
        object_id: str,
        pos: Point,
        des_acc: float = 25.0,
        min_acc: float = 100.0,
        sensor_acc: float = 10.0,
    ) -> TrackedObject:
        """Register a new tracked object located at ``pos``."""
        obj = self.new_tracked_object(
            object_id, entry_server=self.entry_server_for(pos), sensor_acc=sensor_acc
        )
        self.run(obj.register(pos, des_acc, min_acc))
        return obj

    def update(self, obj: TrackedObject, pos: Point):
        """Send one position update for ``obj``."""
        return self.run(obj.report(pos))

    def update_many(
        self,
        reports: Iterable[tuple[TrackedObject, Point]],
        envelope_timeout: float | None = None,
        envelope_retries: int = 3,
        envelope_sub_timeout: float | None = None,
    ) -> dict[str, int]:
        """Apply a batch of position reports — the server-tick fast path.

        A batch is one tick: when an object appears more than once, only
        its last report is applied (last-write-wins, as a coalesced
        sequential stream would end up).  Reports whose object stays
        inside its current agent's service area are applied directly to
        the agent leaf's store, one batched spatial-index update per
        leaf (the local half of Algorithm 6-2; the paper's updates are
        "always local").  Reports that leave the agent area run the full
        update protocol (handover, deregistration): one
        :class:`~repro.core.messages.UpdateBatchReq` envelope per
        destination server.

        Envelope-level recovery: a destination that left the network
        entirely (a garbage-collected retirement alias) is re-routed
        through the hierarchy root before sending — no timeout needed —
        and with ``envelope_timeout`` set an unanswered envelope (a
        crashed destination, which may be restored meanwhile) is
        re-sent up to ``envelope_retries`` times *as an envelope*.  A
        finally-unanswered envelope raises
        :class:`~repro.errors.TransportError`.

        Per-item recovery: with ``envelope_sub_timeout`` set, servers
        bound their internal sub-envelope fan-outs with it and answer
        items stuck behind a crashed *subtree* as unacknowledged; only
        those items are re-sent (see :func:`drive_item_rounds`)
        instead of failing and re-sending the whole envelope.

        Objects that are not registered (no agent) raise
        :class:`~repro.errors.LocationServiceError` before anything is
        applied.  Outcomes re-point each object's agent; the lane itself
        is :meth:`report_many`.  Returns operation counters:
        ``{"fast": n, "protocol": m}``.
        """
        final: dict[str, tuple[TrackedObject, Point]] = {}
        for obj, pos in reports:
            final[obj.object_id] = (obj, pos)
        for obj, _ in final.values():
            if obj.agent is None:
                raise LocationServiceError(f"{obj.object_id} is not registered")

        def fold(outcomes) -> None:
            for outcome in outcomes:
                entry = final.get(outcome.object_id)
                if entry is None or not outcome.ok:
                    continue  # protocol-level rejection; agent unchanged
                obj, pos = entry
                if outcome.deregistered:
                    obj.agent = None
                    obj.deregistered = True
                else:
                    obj.agent = outcome.agent
                    obj.offered_acc = outcome.offered_acc
                    obj.last_reported = pos

        applied = self.report_many(
            ((oid, pos, obj.sensor_acc, obj.agent) for oid, (obj, pos) in final.items()),
            self._reporter(),
            fold,
            envelope_timeout,
            envelope_retries,
            envelope_sub_timeout,
        )
        for oid in applied:
            obj, pos = final[oid]
            obj.last_reported = pos
        return {"fast": len(applied), "protocol": len(final) - len(applied)}

    def report_many(
        self,
        reports: Iterable[tuple[str, Point, float, str | None]],
        reporter: Endpoint,
        fold,
        envelope_timeout: float | None = None,
        envelope_retries: int = 3,
        envelope_sub_timeout: float | None = None,
    ) -> list[str]:
        """The in-process report lane under :meth:`update_many` and
        :meth:`~repro.sim.elastic.ElasticHarness.apply_reports`.

        ``reports`` are ``(object id, position, sensor accuracy, believed
        agent)``.  A report whose believed agent is a live leaf that
        contains the position and holds the object's record is applied
        there (:meth:`~repro.core.server.LocationServer.apply_in_area`,
        one store batch per leaf).  Every other report with a believed
        agent goes out from ``reporter``, one envelope per believed agent
        (:func:`drive_update_envelope`); ``fold(outcomes)`` sees each
        envelope's outcomes as its answer lands, so envelopes answered
        before another raises :class:`~repro.errors.TransportError` are
        folded all the same.  Returns the ids applied directly.
        """
        now = self.loop.now
        in_area: dict[str, list[SightingRecord]] = {}
        by_dest: dict[str, list[tuple[str, Point, float]]] = {}
        for oid, pos, sensor_acc, agent in reports:
            server = self.servers.get(agent)
            if (
                server is not None
                and server.is_leaf
                and not self.network.is_down(agent)
                and server.config.contains(pos)
                and server.store.visitors.leaf_record(oid) is not None
            ):
                in_area.setdefault(agent, []).append(
                    SightingRecord(oid, now, pos, sensor_acc)
                )
            elif agent is not None:
                by_dest.setdefault(agent, []).append((oid, pos, sensor_acc))
        applied: list[str] = []
        for leaf_id, sightings in in_area.items():
            self.servers[leaf_id].apply_in_area(sightings, now)
            applied.extend(s.object_id for s in sightings)

        async def drive(dest: str, items: list[tuple[str, Point, float]]) -> None:
            fold(
                await drive_update_envelope(
                    reporter, self, dest, items,
                    envelope_timeout, envelope_retries, envelope_sub_timeout,
                )
            )

        self._drive_each("envelope", drive, by_dest)
        return applied

    def _reporter(self) -> Reporter:
        if self._batch_reporter is None:
            self._batch_reporter = Reporter()
            self.network.join(self._batch_reporter)
        return self._batch_reporter

    def _drive_each(self, name: str, drive, by_dest: dict) -> None:
        """Run ``drive(dest, items)`` for every destination concurrently,
        one task ``{name}-{dest}`` each, until all are done."""
        if not by_dest:
            return
        loop = self.loop

        async def drive_all() -> None:
            tasks = [
                loop.create_task(drive(dest, items), name=f"{name}-{dest}")
                for dest, items in by_dest.items()
            ]
            for task in tasks:
                await task

        self.run(drive_all())

    def deregister_many(
        self,
        objs: Iterable[TrackedObject],
        envelope_timeout: float | None = None,
        envelope_retries: int = 3,
        envelope_sub_timeout: float | None = None,
        detailed: bool = False,
    ) -> dict[str, bool] | dict[str, str]:
        """Deregister a batch of objects over the batched protocol lane.

        One :class:`~repro.core.messages.DeregisterBatchReq` envelope per
        destination (the objects' believed agents); returns object id →
        success.  Objects that are not registered map to ``False``.
        Recovery matches :meth:`update_many`'s envelopes: a believed
        agent that left the network (a garbage-collected retirement
        alias) is re-routed through the hierarchy root, and with
        ``envelope_timeout`` set an unanswered envelope is retried up to
        ``envelope_retries`` times before :class:`~repro.errors.
        TransportError` is raised.

        Servers answer every failed id with a negative acknowledgement,
        so ``detailed=True`` returns object id → status instead:
        ``"ok"``, ``"already-gone"`` (a record for the id was removed
        there before — a repeat deregistration), ``"never-existed"``
        (the id was never known), ``"unacknowledged"`` (stuck behind a
        crashed subtree; with ``envelope_sub_timeout`` set only these
        items are re-sent, up to ``envelope_retries`` rounds), or
        ``"not-registered"`` (the local handle has no agent).
        """
        by_dest: dict[str, list[TrackedObject]] = {}
        results: dict[str, bool] = {}
        statuses: dict[str, str] = {}
        for obj in objs:
            if obj.agent is None:
                results[obj.object_id] = False
                statuses[obj.object_id] = "not-registered"
            else:
                by_dest.setdefault(obj.agent, []).append(obj)
        reporter = self._reporter()

        async def drive(dest: str, batch: list[TrackedObject]) -> None:
            def make_envelope(
                request_id: str, remaining: set[str] | None
            ) -> m.DeregisterBatchReq:
                return m.DeregisterBatchReq(
                    request_id=request_id,
                    reply_to=reporter.address,
                    object_ids=tuple(
                        obj.object_id
                        for obj in batch
                        if remaining is None or obj.object_id in remaining
                    ),
                    epoch=self.hierarchy.epoch,
                    sub_timeout=envelope_sub_timeout,
                )

            def settle(res) -> set[str]:
                assert isinstance(res, m.DeregisterBatchRes)
                ok_by_oid = dict(res.results)
                nacks = dict(res.nacks)
                unacked: set[str] = set()
                for obj in batch:
                    oid = obj.object_id
                    if oid not in ok_by_oid:
                        continue  # settled in an earlier round
                    ok = ok_by_oid[oid]
                    results[oid] = ok
                    statuses[oid] = "ok" if ok else nacks.get(oid, m.NACK_NEVER_EXISTED)
                    if ok:
                        obj.agent = None
                        obj.deregistered = True
                    elif nacks.get(oid) == m.NACK_UNACKNOWLEDGED:
                        unacked.add(oid)
                return unacked

            await drive_item_rounds(
                protocol_sender(
                    reporter, self, dest, make_envelope, envelope_timeout, "deregister"
                ),
                settle, envelope_retries, envelope_sub_timeout,
            )

        self._drive_each("dereg", drive, by_dest)
        return statuses if detailed else results

    def pos_query(
        self, object_id: str, entry_server: str | None = None, req_acc: float | None = None
    ) -> LocationDescriptor | None:
        client = self._client()
        if entry_server is not None:
            client.use_entry_server(entry_server)
        return self.run(client.pos_query(object_id, req_acc=req_acc))

    def range_query(
        self,
        area: Region,
        req_acc: float = float("inf"),
        req_overlap: float = 0.5,
        entry_server: str | None = None,
    ) -> RangeAnswer:
        client = self._client()
        if entry_server is not None:
            client.use_entry_server(entry_server)
        return self.run(client.range_query(area, req_acc=req_acc, req_overlap=req_overlap))

    def neighbor_query(
        self,
        pos: Point,
        req_acc: float = float("inf"),
        near_qual: float = 0.0,
        entry_server: str | None = None,
    ) -> NeighborAnswer:
        client = self._client()
        if entry_server is not None:
            client.use_entry_server(entry_server)
        return self.run(client.neighbor_query(pos, req_acc=req_acc, near_qual=near_qual))

    def deregister(self, obj: TrackedObject) -> bool:
        return self.run(obj.deregister())

    # -- bulk helpers (used by benches and examples) ------------------------------

    # -- introspection -------------------------------------------------------------

    def check_consistency(self) -> None:
        """Assert hierarchy-wide forwarding-path integrity.

        For every object with a sighting at some leaf, every ancestor of
        that leaf must hold a forwarding reference pointing one step down
        the path, and no other server may consider itself the agent.
        Raises :class:`LocationServiceError` on violation.
        """
        agents: dict[str, str] = {}
        for server_id, server in self.servers.items():
            if not server.is_leaf:
                continue
            for oid in list(server.store.sightings.object_ids()):
                if oid in agents:
                    raise LocationServiceError(
                        f"object {oid} has two agents: {agents[oid]} and {server_id}"
                    )
                agents[oid] = server_id
        for oid, agent in agents.items():
            path = self.hierarchy.path_to_root(agent)
            for below, above in zip(path, path[1:]):
                ref = self.servers[above].visitors.forward_ref(oid)
                if ref != below:
                    raise LocationServiceError(
                        f"broken path for {oid}: {above} points to {ref}, expected {below}"
                    )

    def total_tracked(self) -> int:
        """Number of objects with a sighting at some leaf."""
        return sum(
            len(server.store.sightings)
            for server in self.servers.values()
            if server.is_leaf
        )

"""Dead-leaf detection and crash-exact recovery.

:class:`RecoveryCoordinator` is the control-plane half of the chaos
layer: it owns a probe endpoint on the service's network, detects a
dead server with liveness probes spaced by capped exponential backoff
(:data:`PROBE_WAITS` between real protocol-lane timeouts, not a
side-channel oracle), and then repairs the cluster by one of two
strategies:

* ``"restart"`` — the paper's Section 5 story: replay the crashed
  server's persistent visitor WAL in place
  (:meth:`~repro.core.service.LocationService.restart_server`) and let
  sightings rebuild from the report stream.
* ``"merge"`` — the server stays dead: re-home its region onto the
  parent via the :class:`~repro.cluster.migration.MigrationExecutor`'s
  merge path, replaying the dead leaf's WAL into the staging store so
  the parent becomes agent-of-record for every visitor the dead leaf
  tracked — even though the dead leaf can export nothing itself.  The
  cutover's epoch bump and scoped ``CacheInvalidate`` broadcast repair
  forwarding aliases and §6.5 caches; the dead retirement alias is then
  garbage-collected so stale envelopes re-route through the root
  instead of dead-lettering against a downed address.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field

from repro.cluster.migration import MigrationExecutor
from repro.cluster.planner import MergePlan
from repro.core import messages as m
from repro.core.hierarchy import Hierarchy
from repro.errors import LocationServiceError, TransportError
from repro.runtime.base import Endpoint
from repro.storage.visitor_db import VisitorDB

__all__ = ["PROBE_TIMEOUT", "PROBE_WAITS", "RecoveryCoordinator", "RecoveryReport"]

_prober_ids = itertools.count()

#: Virtual seconds one liveness probe waits for its ``PingRes``.
PROBE_TIMEOUT = 0.25

#: Virtual seconds waited before each liveness probe: capped exponential
#: backoff, so a dead destination is not hammered at network rate.  Five
#: probes; a dead server is declared after 5 x 0.25 + 1.5 = 2.75 s.
PROBE_WAITS = (0.0, 0.1, 0.2, 0.4, 0.8)


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What one :meth:`RecoveryCoordinator.recover_leaf` call did."""

    server_id: str
    strategy: str  # "merge" or "restart"
    #: liveness probes sent before declaring the server dead.
    detection_attempts: int
    #: virtual seconds from first probe to the dead verdict.
    detection_time_s: float
    #: leaf visitor records replayed from the crashed server's WAL.
    replayed_records: int
    #: objects re-homed by the merge cutover (0 for restarts).
    moved: int
    #: the region's new agent (the parent for merges, the restarted
    #: server itself for restarts).
    new_home: str
    #: object id → new agent leaf — feed this to the driving harness's
    #: home map, exactly like a ``MigrationReport``.
    new_homes: dict[str, str] = field(default_factory=dict)


class RecoveryCoordinator:
    """Detects dead servers and re-homes their regions.

    Liveness probes wait :data:`PROBE_TIMEOUT` each, spaced by
    :data:`PROBE_WAITS`.
    """

    def __init__(
        self,
        service,
        executor: MigrationExecutor | None = None,
        monitor=None,
    ) -> None:
        self.svc = service
        self.executor = executor if executor is not None else MigrationExecutor(service)
        self.monitor = monitor
        self.reports: list[RecoveryReport] = []
        #: destinations whose protocol envelopes exhausted their retry
        #: budget, with the exhaustion count — fed by :meth:`watch`,
        #: drained by :meth:`process_suspects`.
        self.suspects: dict[str, int] = {}
        self._watching = False
        self._prober = Endpoint(f"chaos-prober-{next(_prober_ids)}")
        service.network.join(self._prober)

    # -- envelope-death subscription -----------------------------------------

    def watch(self) -> "RecoveryCoordinator":
        """Let the protocol lane report dead destinations itself.

        Subscribes to the service's envelope-death notifications: any
        envelope that burns its whole retry budget adds its
        destination to :attr:`suspects`.  The listener only records —
        the exhaustion fires inside the driving coroutine, where probing
        or recovering would re-enter the event loop — and
        :meth:`process_suspects` later confirms each suspect with the
        usual backoff probes and recovers the ones that really are dead.
        Idempotent; returns ``self`` for chaining.
        """
        if not self._watching:
            self.svc.add_envelope_death_listener(self._on_envelope_death)
            self._watching = True
        return self

    def _on_envelope_death(self, dest: str, what: str, attempts: int) -> None:
        self.suspects[dest] = self.suspects.get(dest, 0) + 1

    def process_suspects(
        self, strategy: str = "merge"
    ) -> dict[str, RecoveryReport | None]:
        """Confirm-and-recover every recorded suspect, then forget them.

        Each suspect gets the full :meth:`recover_dead_leaf` treatment:
        backoff-spaced liveness probes first (a destination that answers
        any probe was merely slow — transient loss, not a crash — and
        maps to ``None``), then the chosen recovery strategy for the
        confirmed-dead.  Suspects that are no longer live leaves (e.g. a
        garbage-collected retirement alias) are skipped entirely.
        """
        results: dict[str, RecoveryReport | None] = {}
        for server_id in sorted(self.suspects):
            server = self.svc.servers.get(server_id)
            if server is None or not server.is_leaf:
                continue
            results[server_id] = self.recover_dead_leaf(server_id, strategy=strategy)
        self.suspects.clear()
        return results

    # -- detection -----------------------------------------------------------

    async def _probe(self, server_id: str) -> bool:
        """One liveness probe; ``True`` iff the server answered in time."""
        prober = self._prober
        try:
            res = await prober.ask(
                server_id,
                lambda rid: m.PingReq(request_id=rid, reply_to=prober.address),
                PROBE_TIMEOUT,
                0,
            )
        except TransportError:
            return False
        return isinstance(res, m.PingRes)

    def confirm_dead(self, server_id: str) -> tuple[bool, int, float]:
        """Probe after each of :data:`PROBE_WAITS` until an answer.

        Returns ``(dead, attempts, elapsed_virtual_seconds)`` — the
        detection cost every recovery report carries.  A server that
        answers any probe is *not* dead (transient loss tolerated).
        """
        svc = self.svc

        async def _confirm() -> tuple[bool, int, float]:
            start = svc.loop.now
            for attempts, wait in enumerate(PROBE_WAITS, 1):
                if wait:
                    await svc.loop.sleep(wait)
                if await self._probe(server_id):
                    return False, attempts, svc.loop.now - start
            return True, len(PROBE_WAITS), svc.loop.now - start

        return svc.run(_confirm())

    # -- repair --------------------------------------------------------------

    def abort_in_flight_for(self, *server_ids: str) -> int:
        """Abort every in-flight migration touching any of the servers.

        A crash inside a migration's copy or dual-write window is
        recovered by *discarding*: nothing pre-cutover is visible to
        routing (staged stores are off-network, the epoch untouched), so
        the abort is exact — the re-planned migration after recovery
        starts from clean state.  Returns how many were aborted.
        """
        doomed = [
            migration
            for migration in list(self.executor.in_flight)
            if migration.busy & set(server_ids)
        ]
        for migration in doomed:
            self.executor.abort(migration)
        return len(doomed)

    def recover_leaf(self, server_id: str, strategy: str = "merge") -> RecoveryReport:
        """Re-home a dead leaf's region; returns the recovery report.

        Call after :meth:`confirm_dead`.  Both strategies leave the
        cluster with exactly one agent per object and every live server
        at the current topology epoch; neither can lose or duplicate a
        sighting — sightings are soft state that the next position
        reports rebuild (the paper restores volatile state "as position
        update requests come in"), while the visitor records that make
        those reports land travel through the WAL.
        """
        svc = self.svc
        server = svc.servers.get(server_id)
        if server is None or not server.is_leaf:
            raise LocationServiceError(f"{server_id!r} is not a live leaf")
        if not svc.network.is_down(server_id):
            raise LocationServiceError(f"{server_id!r} is not down")
        if strategy == "restart":
            report = self._recover_restart(server_id)
        elif strategy == "merge":
            report = self._recover_merge(server_id)
        else:
            raise LocationServiceError(f"unknown recovery strategy {strategy!r}")
        self.reports.append(report)
        return report

    def recover_dead_leaf(
        self, server_id: str, strategy: str = "merge"
    ) -> RecoveryReport | None:
        """Detect-then-repair in one call: probe with backoff, and when
        the leaf really is dead, recover it.  Returns ``None`` when the
        server answered a probe (nothing to do)."""
        dead, attempts, elapsed = self.confirm_dead(server_id)
        if not dead:
            return None
        report = dataclasses.replace(
            self.recover_leaf(server_id, strategy=strategy),
            detection_attempts=attempts,
            detection_time_s=elapsed,
        )
        self.reports[-1] = report
        return report

    def recover_apex(self, new_root_id: str | None = None) -> RecoveryReport | None:
        """Promote a standby apex when the hierarchy root is unreachable.

        The PR-6 strategies assume a healthy apex to re-route through; a
        severed *root* breaks that assumption — no parent exists to merge
        into and an in-place restart cannot undo a network partition.
        Promotion closes the gap: after the usual backoff probes confirm
        the root unreachable, a fresh interior server is spawned at a new
        address with the root's exact service area and children, the old
        apex's surviving visitor WAL (Section 5 — the forwarding log
        every path through the root wrote) is replayed into it, and the
        children are re-parented under a bumped topology epoch.  Leaf
        traffic never stops (devices talk to leaves, not the apex);
        cross-subtree routing resumes the moment the standby is adopted.
        The severed root becomes a stale relic: nothing routes to it
        under the new topology, and if it later reconnects, its
        old-epoch chatter is exactly what the receive-path stale horizon
        quarantines.  Returns ``None`` when the root answered a probe.
        """
        svc = self.svc
        h = svc.hierarchy
        root_id = h.root_id
        dead, attempts, elapsed = self.confirm_dead(root_id)
        if not dead:
            return None
        if new_root_id is None:
            new_root_id = f"{root_id}-standby"
        self.abort_in_flight_for(root_id)
        old_config = h.config(root_id)
        configs = h.configs
        del configs[root_id]
        configs[new_root_id] = dataclasses.replace(old_config, server_id=new_root_id)
        for child in old_config.children:
            configs[child.server_id] = dataclasses.replace(
                configs[child.server_id], parent=new_root_id
            )
        promoted = Hierarchy(configs, epoch=h.epoch + 1)
        # The relic leaves the service's registry *before* the adoption
        # bumps live servers' epochs, so whatever it says after a heal
        # is stamped with the topology it was severed under.
        old_root = svc.servers.pop(root_id)
        standby = svc.spawn_server(configs[new_root_id])
        recovered = VisitorDB.recover(old_root.visitors.store)
        standby.visitors = recovered
        replayed = len(recovered)
        # Anti-entropy: the WAL snapshot predates the outage, and a
        # cross-subtree handover that committed leaf-to-leaf while the
        # apex was unreachable never got its path update through — the
        # children's own visitor tables are the live truth, so their
        # records override the replayed ones.  Only records meaning "my
        # subtree agents this object" count: a leaf child must hold the
        # *leaf* record (an old agent keeps a §5 forwarding pointer to
        # the new one after a handover), an interior child a forward
        # ref pointing *down* into its own subtree.
        for child in old_config.children:
            child_server = svc.servers.get(child.server_id)
            if child_server is None:
                continue
            visitors = child_server.visitors
            for object_id in list(visitors.object_ids()):
                if child_server.is_leaf:
                    if visitors.leaf_record(object_id) is None:
                        continue
                else:
                    ref = visitors.forward_ref(object_id)
                    if ref is None or h.parent_of(ref) != child.server_id:
                        continue
                standby.visitors.insert_forward(object_id, child.server_id)
        # Re-parent the live children: their own config records drive
        # upward routing (path updates, escalating fan-outs), so the
        # hierarchy swap alone would leave them talking to the relic.
        for child in old_config.children:
            child_server = svc.servers.get(child.server_id)
            if child_server is not None:
                child_server.config = configs[child.server_id]
        svc.adopt_hierarchy(promoted)
        # Scoped no-op unless some leaf really cached a route through
        # the old apex address.
        svc.broadcast_cache_invalidation(forget=(root_id,))
        if self.monitor is not None:
            self.monitor.forget_server(root_id)
        report = RecoveryReport(
            server_id=root_id,
            strategy="promote",
            detection_attempts=attempts,
            detection_time_s=elapsed,
            replayed_records=replayed,
            moved=0,
            new_home=new_root_id,
        )
        self.reports.append(report)
        return report

    def _recover_restart(self, server_id: str) -> RecoveryReport:
        self.abort_in_flight_for(server_id)
        server = self.svc.restart_server(server_id)
        replayed = sum(1 for _ in server.store.visitors.leaf_records())
        return RecoveryReport(
            server_id=server_id,
            strategy="restart",
            detection_attempts=0,
            detection_time_s=0.0,
            replayed_records=replayed,
            moved=0,
            new_home=server_id,
        )

    def _recover_merge(self, server_id: str) -> RecoveryReport:
        svc = self.svc
        h = svc.hierarchy
        parent_id = h.parent_of(server_id)
        if parent_id is None:
            raise LocationServiceError(
                f"{server_id!r} has no parent to merge into — use the "
                "'restart' strategy for a root leaf"
            )
        siblings = h.siblings_of(server_id)
        children = tuple(sorted((server_id, *siblings)))
        if any(not svc.servers[child].is_leaf for child in children):
            raise LocationServiceError(
                f"siblings of {server_id!r} are not all leaves — merge "
                "recovery needs a mergeable sibling set"
            )
        # A crash inside a migration window is recovered by discarding
        # the window first (exact: pre-cutover state was never routable).
        self.abort_in_flight_for(parent_id, *children)

        plan = MergePlan(
            parent_id=parent_id, children=children, reason=f"recover {server_id}"
        )
        migration = self.executor.begin(plan)
        # Stage the live siblings' exports first, then fill the gaps from
        # the dead leaf's WAL: the crashed store exports nothing (its
        # sightings died with the process), but its Section 5 visitor log
        # survives — replaying the leaf records into the staging store
        # makes the parent agent-of-record for every visitor the dead
        # leaf tracked.  Records a live sibling already owns win (an
        # object mid-handover at crash time has exactly one agent).
        self.executor.step(migration)
        dead = svc.servers[server_id]
        recovered = VisitorDB.recover(dead.store.visitors.store)
        staging = migration.staging[parent_id]
        replayed = 0
        for record in recovered.leaf_records():
            if record.object_id not in staging.visitors:
                staging.visitors.insert_leaf(
                    record.object_id, record.offered_acc, record.reg_info
                )
                replayed += 1
        report = self.executor.cutover(migration)
        # The dead child's retirement alias cannot forward (the address
        # is down) — garbage-collect it so stale envelopes re-route
        # through the hierarchy root instead of timing out against it.
        svc.drop_retired(server_id)
        if self.monitor is not None:
            self.monitor.forget_server(server_id)
        return RecoveryReport(
            server_id=server_id,
            strategy="merge",
            detection_attempts=0,
            detection_time_s=0.0,
            replayed_records=replayed,
            moved=report.moved,
            new_home=parent_id,
            new_homes=dict(report.new_homes),
        )

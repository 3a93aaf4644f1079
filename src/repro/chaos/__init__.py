"""Chaos engineering layer: fault injection and crash-exact recovery.

The paper's availability argument (Sections 5 and 7) is structural:
visitor records — the forwarding pointers and leaf registrations that
make the hierarchy routable — live in persistent storage, while
sightings are *soft state* that expires and is rebuilt "as position
update requests come in".  This package turns that argument into a
tested property of the reproduction.

Fault model
-----------

Faults are injected at two layers, both fully accounted in
:class:`~repro.runtime.base.NetworkStats` (``messages_dropped``,
``messages_duplicated``, ``faults_injected``):

* **Link faults** — :class:`FaultInjector` installs per-link
  :class:`LinkFaults` rules on any runtime — the simulated or asyncio
  network, or a socket transport:
  probabilistic drops, fixed extra delay, per-message jitter (which
  reorders deliveries relative to send order), duplicated deliveries,
  and severed links.  :meth:`FaultInjector.partition` severs every link
  between two server groups while links within each group — and the
  device↔leaf edges in neither group — stay up.
* **Process faults** — :meth:`~repro.core.service.LocationService.
  crash_server` kills a whole server: the network drops everything to
  and from the address and the leaf's volatile state (sightings,
  spatial index, §6.5 caches) is wiped.  The persistent visitor WAL
  survives, exactly like a real process dying mid-write over a durable
  :class:`~repro.storage.persistence.FileStore` (tmp-file + atomic
  rename snapshots; a torn trailing append is skipped on replay, not
  fatal).

What "exact recovery" guarantees
--------------------------------

Recovery — :meth:`~repro.core.service.LocationService.restart_server`
in place, or :class:`RecoveryCoordinator` re-homing a dead region via
the merge migration path — restores the cluster to a state
*indistinguishable* from one that never crashed, once the report
stream has run one full cycle:

* **No lost sightings.**  Every visitor the dead server tracked is
  replayed from its WAL (into the restarted server, or into the merge
  staging store so the parent becomes agent-of-record), so the next
  position report finds a registered visitor and re-creates the
  sighting.  Reports that raced the crash are NACKed, kept at their old
  agent, and retried — never silently dropped.
* **No duplicated sightings.**  One agent per object, enforced by
  construction: a merge folds every candidate record into one staging
  store (live siblings' exports win over WAL replay), and
  :meth:`~repro.core.service.LocationService.check_consistency` proves
  it after every scenario.
* **Migration crashes roll forward or discard — never half-apply.**
  Pre-cutover (copy or dual-write phase) nothing about a migration is
  routable — staged stores are off-network and the topology epoch is
  untouched — so :meth:`~repro.cluster.migration.MigrationExecutor.
  abort` discards it exactly.  Post-cutover the epoch has bumped and
  the staged WAL is the new server's durable state, so a restart rolls
  forward.  There is no window in which a crash can split the
  difference.
* **Reconvergence is bounded and measured.**  The cutover's scoped
  ``CacheInvalidate`` broadcast repairs §6.5 caches and forwarding
  aliases; the chaos scenarios (:mod:`repro.sim.chaos`) measure
  detection time, recovery ticks, cache-staleness windows and
  partition reconvergence ticks, and the CI gate
  (``scripts/bench_check.py`` over ``BENCH_PR6.json``) holds them to
  zero lost / zero duplicated sightings and bounded recovery.
"""

from repro.chaos.faults import FaultInjector, LinkFaults, inject_crash
from repro.chaos.recovery import RecoveryCoordinator, RecoveryReport

__all__ = [
    "FaultInjector",
    "LinkFaults",
    "RecoveryCoordinator",
    "RecoveryReport",
    "inject_crash",
]

"""Elastic cluster layer: load-aware splitting, merging and migration.

The paper configures the service-area hierarchy *once* (Section 4: a
fixed tree of service areas, one location server each) and never changes
it.  Its own evaluation shows why that is a liability at scale: per-
server load is dominated by position updates, and updates concentrate
wherever the tracked objects do — a flash crowd inside one leaf area
saturates that server while its siblings idle.  This package makes the
Section-4 configuration *dynamic* while preserving every structural
invariant the paper demands (children tile their parent, siblings are
disjoint, half-open routing assigns boundary points uniquely):

* :class:`~repro.cluster.load.LoadMonitor` — samples per-server
  operation counters and index sizes into a decayed sliding window of
  per-server load rates, plus per-object update-rate EWMAs
  sampled from the batched update lane and an undecayed instant-rate
  view of the last interval.
* :class:`~repro.cluster.planner.RebalancePlanner` — detects hot leaves
  (load above a configurable threshold, absolutely or relative to their
  siblings) and cold all-leaf sibling sets, and emits
  :class:`~repro.cluster.planner.SplitPlan` /
  :class:`~repro.cluster.planner.MergePlan` records.  Cut lines are
  placed at *rate-weighted* quantiles of the leaf population (hot
  objects, not just hot areas; object counts are the fallback when no
  rates are known), and the fan-out scales with load over threshold —
  k-way bands along one axis, or a 2x2 quad, in a single plan — so an
  extreme hotspot reaches steady state in one migration round.
* :class:`~repro.cluster.migration.MigrationExecutor` — applies a plan
  to a running :class:`~repro.core.service.LocationService` in phases
  (copy → dual-write → cutover): the source leaves keep serving while
  their objects stage incrementally into destination stores
  (``bulk_admit`` chunks of a fixed
  :data:`~repro.cluster.migration.COPY_CHUNK` entries per tick), a buffered
  :class:`~repro.storage.datastore.StoreMirror` keeps the staged copy
  exactly in sync with live mutations, and the cutover is pointer
  surgery — role flips, one replayed forwarding pointer per migrated
  object, a topology-epoch bump, and an explicit §6.5 cache
  invalidation broadcast.  In-flight reports keep flowing throughout: a
  split leaf becomes an interior server that routes stragglers down the
  fresh forwarding path, a merged-away leaf retires into a forwarding
  alias for its absorbing parent, and fan-out collectors racing a
  cutover re-issue on the epoch bump — so no sighting is lost and no
  tick waits for a drained event loop.

The sim-side driver (:class:`repro.sim.elastic.ElasticHarness`) wires
the three together into one kind of round: ``advance_migrations`` copies
a chunk on every tick with a migration in flight, and ``rebalance``
cuts over finished copies, plans around the migrations still in flight
and begins the new plans.
"""

from repro.cluster.load import HeavyHitterSketch, LoadMonitor, LoadSample
from repro.cluster.migration import (
    MigrationExecutor,
    MigrationReport,
    PhasedMigration,
)
from repro.cluster.planner import (
    MergePlan,
    PlannerConfig,
    RebalancePlan,
    RebalancePlanner,
    SplitPlan,
)

__all__ = [
    "HeavyHitterSketch",
    "LoadMonitor",
    "LoadSample",
    "MergePlan",
    "MigrationExecutor",
    "MigrationReport",
    "PhasedMigration",
    "PlannerConfig",
    "RebalancePlan",
    "RebalancePlanner",
    "SplitPlan",
]

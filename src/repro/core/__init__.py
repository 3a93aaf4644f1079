"""The paper's primary contribution: the hierarchical location service.

Public surface: :class:`LocationService` (facade), :class:`LocationServer`
(one hierarchy node), :class:`Hierarchy` + builders, client endpoints and
the §6.5 cache configuration.

Protocol lanes
--------------

Position reports travel one of two lanes:

* **Fast lane** — a report that stays inside its agent leaf's service
  area is "always local" (Section 6.2): the batched server tick
  (:meth:`LocationService.update_many`) applies a whole tick of such
  reports through one spatial-index pass per leaf, no messages at all.
* **Protocol lane** — reports that cross a service-area boundary run the
  Section-6 update/handover/deregister protocol (Algorithms 6-2/6-3).
  There is one implementation of it: a tick's protocol traffic is
  *enveloped*, coalesced per destination server into
  ``UpdateBatchReq`` / ``HandoverBatchReq`` / ``DeregisterBatchReq`` /
  ``PathTeardownBatch`` messages that carry many per-object items each.
  Envelope handlers apply everything locally applicable through the
  storage layer's batch paths and re-envelope the still-unresolved
  remainder per next hop — an envelope only ever splits *along the
  tree* (per child, or upward); retirement aliases forward envelopes
  whole.  A single device's ``UpdateReq`` / ``DeregisterReq`` is served
  at the edge as an envelope of one and answered with the unchanged
  ``UpdateRes`` / ``DeregisterRes``.  Envelope-level timeout/retry
  re-routes through the hierarchy root when a destination has left the
  network (a garbage-collected retirement alias), and with
  ``envelope_sub_timeout`` set the servers bound their internal
  sub-envelope fan-outs and answer items stuck behind a crashed subtree
  as *unacknowledged*, so only those items are resent (per-item retry
  bookkeeping).  The agent that starts a handover re-sends it until an
  answer settles it, so a lost answer never leaves two agents.

Query lane
----------

Range queries (Algorithm 6-5) and the nearest-neighbor ring rounds
derived from them share **one** fan-out implementation.  A fan-out
carries *items* — a dispatch rect feeding one result bucket — in one
``RangeQueryBatchFwd`` / ``NNCandidatesBatchFwd`` per next hop; interior
servers re-partition the items per child, and every involved leaf
answers all of its items in one batched store call and one
``…BatchSubRes`` sent straight to the entry server, whose collector
resolves once the answers tile every dispatch rect.  An NN item's answer
is the leaf's *share* — its nearest qualifying object in the dispatch
and that object's ``nearQual`` ring — which is all the entry server
needs (``LocalDataStore.nn_candidates``).  A client's single
``RangeQueryReq`` / ``NeighborQueryReq`` is served at the edge as a
batch of one, and so is an in-process query: ``evaluate_range_many`` /
``evaluate_neighbors_many`` are the one in-process entry point per
query kind (the event engine passes ``[query]``).  With the §6.5 area
cache on, an item whose dispatch rect the cached leaves fully tile
skips the hierarchy: the still-open items are grouped by next hop, one
``direct`` forward per cached leaf, one ordinary forward to the parent
for the rest.  There is
one retry rule: when a rebalance races a collection, only each item's
rect *minus the service areas that answered under the current epoch* is
asked again.

Elasticity and topology epochs
------------------------------

The elastic cluster layer (:mod:`repro.cluster`) reshapes the hierarchy
under live traffic.  Every derived :class:`Hierarchy` carries a
monotonically increasing **topology epoch**; fan-out messages and
protocol envelopes are stamped with the sender's epoch, leaf answers
with the answering leaf's, so a rebalance cutting over mid-collection
is detected (the collector re-issues under the new topology) instead of
requiring the event loop drained.  At every migration cutover the
service broadcasts explicit §6.5 cache invalidations
(``CacheInvalidate``): caching leaves forget entries routing to servers
whose role changed and pre-learn the new owners, so chatty workloads
skip the healing forward hop through the old addresses.
"""

from repro.core.caching import CacheConfig, CacheStats, LeafCaches
from repro.core.client import LocationClient, NeighborAnswer, RangeAnswer, TrackedObject
from repro.core.events import AreaOccupancy, EventEngine, Proximity
from repro.core.geo_service import GeoLocationService
from repro.core.hierarchy import (
    ChildRef,
    Hierarchy,
    ServerConfig,
    build_fig6_hierarchy,
    build_grid_hierarchy,
    build_quad_hierarchy,
    build_table2_hierarchy,
)
from repro.core.server import LocationServer, ServerStats
from repro.core.service import LocationService
from repro.core.tracking import SensorCell, StationaryTracker

__all__ = [
    "AreaOccupancy",
    "CacheConfig",
    "CacheStats",
    "ChildRef",
    "EventEngine",
    "GeoLocationService",
    "Hierarchy",
    "LeafCaches",
    "LocationClient",
    "LocationServer",
    "LocationService",
    "NeighborAnswer",
    "Proximity",
    "RangeAnswer",
    "SensorCell",
    "ServerConfig",
    "ServerStats",
    "StationaryTracker",
    "TrackedObject",
    "build_fig6_hierarchy",
    "build_grid_hierarchy",
    "build_quad_hierarchy",
    "build_table2_hierarchy",
]

"""Wire messages of the location service protocol (paper Section 6).

Naming follows the paper where a direct counterpart exists
(``registerReq``, ``createPath``, ``handoverReq`` …).  Messages marked
*derived* implement behaviour the paper specifies but does not spell out
as pseudocode (distributed nearest-neighbor search, cache-bypass
variants of Section 6.5, soft-state path teardown).

All messages are frozen dataclasses.  ``Response`` subclasses carry a
``request_id`` that resolves a future parked at the requester — note
that several responses are *redirected*: a leaf answers a query directly
to the entry server rather than back along the forwarding path, exactly
as in Algorithms 6-4/6-5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo import Point, Rect, Region
from repro.model import (
    LocationDescriptor,
    NearestNeighborResult,
    ObjectEntry,
    RegistrationInfo,
    SightingRecord,
)
from repro.runtime.base import Message, Response

# ---------------------------------------------------------------------------
# Registration (Algorithm 6-1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RegisterReq(Message):
    """``registerReq(s, desAcc, minAcc, regInst)`` — also used unchanged
    when forwarded between servers."""

    request_id: str
    reply_to: str  # the registering instance's address
    sighting: SightingRecord
    des_acc: float
    min_acc: float
    registrar: str


@dataclass(frozen=True, slots=True)
class RegisterRes(Response):
    """``registerRes`` / ``registerFailed`` folded into one response."""

    request_id: str
    ok: bool
    agent: str | None = None
    offered_acc: float | None = None
    achievable_acc: float | None = None  # set when ok=False
    error: str | None = None


@dataclass(frozen=True, slots=True)
class CreatePath(Message):
    """``createPath(oId)`` — cascades from a new agent to the root.

    Each hop is delivered at-least-once and acked with
    :class:`PathAck` (PR 9); the trailing defaulted fields keep frames
    from old-version peers decodable (applied, not acked)."""

    object_id: str
    sender: str  # the child the forwarding reference must point to
    request_id: str = "legacy"
    reply_to: str = ""


# ---------------------------------------------------------------------------
# Position updates & handover (Algorithms 6-2 / 6-3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class UpdateReq(Message):
    """``update(s)`` from a tracked object to its agent."""

    request_id: str
    reply_to: str
    sighting: SightingRecord


@dataclass(frozen=True, slots=True)
class UpdateRes(Response):
    """Acknowledgement (Table 2 measures updates "with ACK").

    After a handover, ``agent`` names the new agent; after the object
    left the root service area, ``deregistered`` is True.
    """

    request_id: str
    ok: bool
    agent: str | None = None
    offered_acc: float | None = None
    deregistered: bool = False
    error: str | None = None


# ---------------------------------------------------------------------------
# Batched protocol lane (derived; the Section-6 per-object protocol,
# enveloped per destination server)
# ---------------------------------------------------------------------------
#
# A server tick produces many protocol-lane operations at once — position
# reports that crossed a service-area boundary, deregistrations, the
# handovers those reports trigger.  The envelopes below carry a whole
# tick's worth of items for a *single* destination server and are the
# only server-to-server form of the write lane; the single-object
# ``UpdateReq``/``DeregisterReq`` are the device-facing edge, served as
# an envelope of one.  Envelope handlers apply everything locally applicable through the
# storage layer's batch paths and re-envelope the still-unresolved
# remainder per next hop, so an envelope travelling through the hierarchy
# only ever splits along the tree, never back into per-object messages.
# Each envelope holds at most one item per object id (ticks coalesce
# last-write-wins before enveloping).
#
# Envelopes carry two elastic extensions:
#
# * ``epoch`` — the sender's topology epoch.  A receiver whose own epoch
#   is newer routes the envelope through the *current* hierarchy (the
#   role-change forwarding machinery) and counts the staleness, so a
#   rebalance never requires the protocol lane to drain first.
# * ``sub_timeout`` — when set, the receiver bounds every sub-envelope
#   it fans out with this timeout instead of hanging the whole envelope
#   on a crashed subtree.  A handover hop leaves a timed-out item out of
#   its answer (the origin's re-send row asks again); an update or
#   deregistration answers it *unacknowledged*, and the service resends
#   only those items (per-item retry bookkeeping).


@dataclass(frozen=True, slots=True)
class UpdateBatchReq(Message):
    """Many ``update(s)`` items for one destination server.

    The receiver applies in-area items for which it is the agent through
    one ``store.update_many`` pass, initiates (enveloped) handovers for
    items that left its area, and forwards items it has only a
    forwarding reference for as smaller envelopes down the path.
    """

    request_id: str
    reply_to: str
    sightings: tuple[SightingRecord, ...]
    epoch: int = 0
    sub_timeout: float | None = None


@dataclass(frozen=True, slots=True)
class UpdateOutcome(Message):
    """Per-object result carried inside an :class:`UpdateBatchRes` —
    field-for-field the payload of an :class:`UpdateRes`."""

    object_id: str
    ok: bool
    agent: str | None = None
    offered_acc: float | None = None
    deregistered: bool = False
    error: str | None = None


@dataclass(frozen=True, slots=True)
class UpdateBatchRes(Response):
    request_id: str
    outcomes: tuple[UpdateOutcome, ...]


@dataclass(frozen=True, slots=True)
class HandoverBatchItem(Message):
    """One object's handover payload (the ``handoverReq`` arguments)."""

    sighting: SightingRecord
    reg_info: RegistrationInfo
    previous_offered: float | None = None


@dataclass(frozen=True, slots=True)
class HandoverBatchReq(Message):
    """Many ``handoverReq`` items routed as one message (Alg. 6-3,
    enveloped).  Interior servers partition the in-area items per child
    (one sub-envelope each), escalate the rest to their parent as one
    envelope, and install forwarding pointers batch-wise from the
    responses.  ``direct`` marks a §6.5 cached dispatch straight to a
    believed agent leaf (the path must then be repaired)."""

    request_id: str
    reply_to: str
    sender: str
    items: tuple[HandoverBatchItem, ...]
    direct: bool = False
    epoch: int = 0
    sub_timeout: float | None = None


@dataclass(frozen=True, slots=True)
class HandoverOutcome(Message):
    """Per-object result inside a :class:`HandoverBatchRes` — Alg. 6-3's
    ``handoverRes(lsnew, acc)`` (``new_agent=None`` means the object
    left the root service area and was deregistered)."""

    object_id: str
    new_agent: str | None
    offered_acc: float | None
    origin_area: Rect | None = None


@dataclass(frozen=True, slots=True)
class HandoverBatchRes(Response):
    """The settled items' outcomes in request order (unanswered: left out)."""

    request_id: str
    outcomes: tuple[HandoverOutcome, ...]


@dataclass(frozen=True, slots=True)
class DeregisterBatchReq(Message):
    """Many ``deregister(o)`` items for one destination server."""

    request_id: str
    reply_to: str
    object_ids: tuple[str, ...]
    epoch: int = 0
    sub_timeout: float | None = None


#: Negative-acknowledgement reasons carried by :class:`DeregisterBatchRes`
#: (and :class:`PathTeardownNack`): the object was deregistered or handed
#: away earlier (tombstoned), was never known here, or its sub-envelope
#: went unanswered within ``sub_timeout`` (retryable).
NACK_ALREADY_GONE = "already-gone"
NACK_NEVER_EXISTED = "never-existed"
NACK_UNACKNOWLEDGED = "unacknowledged"
NACK_REDIRECTED = "redirected"


@dataclass(frozen=True, slots=True)
class DeregisterBatchRes(Response):
    """Per-object ``(object_id, ok)`` results, in request order.

    ``nacks`` refines every ``ok=False`` entry with a reason (one of the
    ``NACK_*`` constants above), so the service can tell a repeat
    deregistration (*already gone*) from a typo'd id (*never existed*)
    and retry only genuinely *unacknowledged* items.
    """

    request_id: str
    results: tuple[tuple[str, bool], ...]
    nacks: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True, slots=True)
class PathTeardownBatch(Message):
    """*Derived.*  One-way upward removal of many forwarding paths at
    once, used for explicit deregistration and soft-state expiry; a
    server only acts on the ids whose forwarding reference still points at
    ``sender`` and forwards the surviving subset as one message.  Ids
    whose reference points elsewhere (or is gone) are answered with a
    :class:`PathTeardownNack` so the sender can tell a raced redirect
    from a path that was already torn down."""

    object_ids: tuple[str, ...]
    sender: str
    epoch: int = 0


@dataclass(frozen=True, slots=True)
class PathTeardownNack(Message):
    """*Derived.*  Per-id negative acknowledgement for a
    :class:`PathTeardownBatch`: ``(object_id, reason)`` pairs for the
    ids the receiver did *not* tear down — ``already-gone`` when the
    reference was already removed (a concurrent teardown or expiry won),
    ``never-existed`` when no reference was ever held here, and
    ``"redirected"`` when the reference now points at a different child
    (a handover raced the teardown; the path is live and must stay)."""

    object_ids: tuple[tuple[str, str], ...]
    sender: str


# ---------------------------------------------------------------------------
# Deregistration & soft state
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DeregisterReq(Message):
    """``deregister(o)`` from a client to the object's agent."""

    request_id: str
    reply_to: str
    object_id: str


@dataclass(frozen=True, slots=True)
class DeregisterRes(Response):
    request_id: str
    ok: bool


# ---------------------------------------------------------------------------
# Position query (Algorithm 6-4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PosQueryReq(Message):
    """``posQueryReq(oId)`` from a client to its entry server.

    ``req_acc`` is an *extension* used by the §6.5 descriptor cache: when
    set, a cached descriptor whose aged accuracy still satisfies it may
    answer without touching the hierarchy.
    """

    request_id: str
    reply_to: str
    object_id: str
    req_acc: float | None = None


@dataclass(frozen=True, slots=True)
class PosQueryRes(Response):
    """``posQueryRes(ld)`` back to the client."""

    request_id: str
    found: bool
    descriptor: LocationDescriptor | None = None
    agent: str | None = None  # feeds the (object → agent) cache


@dataclass(frozen=True, slots=True)
class PosQueryFwd(Message):
    """``posQueryFwd(oId, lse)`` — one-way within the hierarchy."""

    query_id: str
    object_id: str
    entry_server: str


@dataclass(frozen=True, slots=True)
class PosQueryAnswer(Response):
    """The agent's (or root's negative) answer, sent *directly* to the
    entry server; resolves the entry's parked query future."""

    request_id: str  # == query_id
    found: bool
    descriptor: LocationDescriptor | None = None
    agent: str | None = None
    origin_area: Rect | None = None  # agent's service area (area cache)
    as_of: float | None = None  # sighting timestamp (descriptor cache aging)
    authoritative: bool = True  # False for a cache-probe miss (fall back)


@dataclass(frozen=True, slots=True)
class PosQueryDirect(Message):
    """*Derived* (§6.5 agent cache): probe a cached agent directly.  A
    miss (object moved on) is answered ``found=False`` and the entry
    falls back to the hierarchy."""

    query_id: str
    object_id: str
    entry_server: str


# ---------------------------------------------------------------------------
# Range query (Algorithm 6-5)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RangeQueryReq(Message):
    """``rangeQueryReq(area, reqAcc, reqOverlap)`` from a client."""

    request_id: str
    reply_to: str
    area: Region
    req_acc: float
    req_overlap: float


@dataclass(frozen=True, slots=True)
class RangeQueryRes(Response):
    request_id: str
    entries: tuple[ObjectEntry, ...]
    servers_involved: int = 0


@dataclass(frozen=True, slots=True)
class RangeBatchItem(Message):
    """One sub-query of a range fan-out (see :class:`RangeQueryBatchFwd`).

    ``dispatch`` is the pre-computed ``Enlarge(bounds(area), reqAcc)``
    rect — or, on a coverage-aware retry, the part of it still in doubt —
    used both for routing and for the covered-area bookkeeping
    (a deviation from the paper's pseudocode, which enlarges per hop
    and tracks the raw area).  ``index``
    identifies the item within its fan-out so sub-results can be
    attributed.
    """

    index: int
    area: Region
    req_acc: float
    req_overlap: float
    dispatch: Rect


@dataclass(frozen=True, slots=True)
class RangeQueryBatchFwd(Message):
    """``rangeQueryFwd(area, reqAcc, reqOverlap, lse)`` for one or many
    range queries — the only range forward there is; a client's single
    query travels as a batch of one.

    Interior servers re-partition the items per child in one hop
    (``sender`` is the paper's ``lsf``: never bounce straight back), and
    a leaf answers all of its items through a single batched
    spatial-index traversal (``query_rect_many``) and one
    :class:`RangeQueryBatchSubRes`.  ``epoch`` is the entry server's
    topology epoch at dispatch; leaves answer with their own epoch so the
    collector can detect a rebalance racing the collection and re-issue
    under the new topology.  ``direct`` marks a §6.5 area-cache dispatch
    sent straight to a cached leaf: answer locally, never re-propagate
    upward (the entry server already addressed every covering leaf).
    """

    query_id: str
    items: tuple[RangeBatchItem, ...]
    entry_server: str
    sender: str
    epoch: int = 0
    direct: bool = False


@dataclass(frozen=True, slots=True)
class RangeQueryBatchSubRes(Message):
    """``rangeQuerySubRes(objs, a)`` from a leaf directly to the entry
    server, for every item of a fan-out the leaf covers.

    ``results`` holds ``(item_index, entries, covered_area)`` triples,
    ``covered_area`` being ``SIZE(dispatch ∩ leaf service area)``.  Not
    a :class:`Response`: several arrive per fan-out, so the entry server
    aggregates them in a collector, not a one-shot future.
    """

    query_id: str
    results: tuple[tuple[int, tuple[ObjectEntry, ...], float], ...]
    origin: str
    origin_area: Rect
    epoch: int = 0


# ---------------------------------------------------------------------------
# Nearest-neighbor query (derived; semantics from Section 3.2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class NeighborQueryReq(Message):
    """``neighborQuery(p, reqAcc, nearQual)`` from a client."""

    request_id: str
    reply_to: str
    pos: Point
    req_acc: float
    near_qual: float


@dataclass(frozen=True, slots=True)
class NeighborQueryRes(Response):
    request_id: str
    result: NearestNeighborResult
    rounds: int = 0
    servers_involved: int = 0


@dataclass(frozen=True, slots=True)
class NNBatchItem(Message):
    """One expanding-ring probe of an NN fan-out: ``neighborQuery(pos,
    reqAcc, nearQual)`` over the ring round's ``dispatch`` rect; ``index``
    identifies the probe within its fan-out."""

    index: int
    dispatch: Rect
    req_acc: float
    pos: Point
    near_qual: float


@dataclass(frozen=True, slots=True)
class NNCandidatesBatchFwd(Message):
    """*Derived.*  One expanding-ring round for one or many NN queries.
    Routed exactly like :class:`RangeQueryBatchFwd` (``direct``
    included); a leaf answers each item with its *share* — its nearest
    qualifying object in ``dispatch`` and that object's ``nearQual``
    ring, not every candidate (``LocalDataStore.nn_candidates``, which
    says why the entry server's answer stays exact)."""

    query_id: str
    items: tuple[NNBatchItem, ...]
    entry_server: str
    sender: str
    epoch: int = 0
    direct: bool = False


@dataclass(frozen=True, slots=True)
class NNCandidatesBatchSubRes(Message):
    """One leaf's shares for every probe of a fan-out it covers;
    ``results`` holds ``(item_index, share entries, covered_area)`` triples."""

    query_id: str
    results: tuple[tuple[int, tuple[ObjectEntry, ...], float], ...]
    origin: str
    origin_area: Rect
    epoch: int = 0


# ---------------------------------------------------------------------------
# Cached handover path repair (derived, §6.5 leaf-area cache)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PathUpdate(Message):
    """*Derived.*  Sent upward by a new agent after a *direct* handover:
    ancestors redirect their forwarding reference to ``sender`` and prune
    the stale branch with :class:`RemovePath`; propagation stops at the
    first server whose reference already pointed elsewhere (the common
    ancestor).

    ``request_id``/``reply_to`` are trailing defaulted fields (wire
    schema evolution, PR 9): a current sender delivers each repair hop
    at-least-once — the receiver acks with :class:`PathAck` and the
    sender re-sends on timeout — so a corrupted or dropped repair can no
    longer silently strand a stale forwarding path.  A frame from an
    old-version peer decodes with the defaults: the repair is applied
    but not acked (that sender was not waiting).
    """

    object_id: str
    sender: str
    request_id: str = "legacy"
    reply_to: str = ""


@dataclass(frozen=True, slots=True)
class RemovePath(Message):
    """*Derived.*  Downward removal of a stale forwarding branch.

    Carries the same at-least-once repair plumbing as
    :class:`PathUpdate` (trailing defaulted fields, acked hop by hop)."""

    object_id: str
    request_id: str = "legacy"
    reply_to: str = ""


@dataclass(frozen=True, slots=True)
class PathAck(Response):
    """*Derived* (PR 9).  Per-hop acknowledgement of a :class:`PathUpdate`
    or :class:`RemovePath` repair delivery — the receiver has applied the
    repair locally (further propagation is its own acked delivery)."""

    request_id: str


@dataclass(frozen=True, slots=True)
class CacheInvalidate(Message):
    """*Derived* (§6.5, elastic extension).  Broadcast to live leaves at
    a migration cutover: ``forget`` names servers whose role changed (a
    split leaf now interior, merged-away children now aliases) so cached
    area/agent entries routing to them are dropped instead of paying a
    healing forward hop on the next dispatch; ``learned`` pre-seeds the
    area cache with the new responsible leaves.  ``epoch`` is the
    topology epoch the invalidation belongs to — receivers also adopt it
    so later fan-outs are stamped with the current epoch."""

    epoch: int
    forget: tuple[str, ...]
    learned: tuple[tuple[str, Rect], ...] = ()


# ---------------------------------------------------------------------------
# Accuracy renegotiation (Section 3.1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ChangeAccReq(Message):
    """``changeAcc(o, desAcc, minAcc)`` to the object's agent."""

    request_id: str
    reply_to: str
    object_id: str
    des_acc: float
    min_acc: float


@dataclass(frozen=True, slots=True)
class ChangeAccRes(Response):
    request_id: str
    ok: bool
    offered_acc: float | None = None
    error: str | None = None


@dataclass(frozen=True, slots=True)
class NotifyAvailAcc(Message):
    """``notifyAvailAcc()`` — pushed to the registrar when the offered
    accuracy changes (e.g. after a handover to a leaf with a different
    sensor infrastructure)."""

    object_id: str
    offered_acc: float


# ---------------------------------------------------------------------------
# Liveness probe (derived, chaos/recovery extension)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PingReq(Message):
    """*Derived.*  Liveness probe from the recovery coordinator: a
    server that is up answers immediately with :class:`PingRes`; a
    crashed server's silence (probe timeout under the coordinator's
    backoff policy) is the failure-detection signal."""

    request_id: str
    reply_to: str


@dataclass(frozen=True, slots=True)
class PingRes(Response):
    """Liveness answer, carrying the responder's topology epoch so the
    prober also learns whether the server is behind the current
    hierarchy (a restarted server still converging)."""

    request_id: str
    epoch: int = 0

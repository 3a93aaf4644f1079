"""Per-server load sampling with a decayed sliding window.

The paper's servers already count their operations
(:class:`~repro.core.server.ServerStats`); the monitor turns those
cumulative counters into per-server *rates* that age out: each
:meth:`LoadMonitor.sample` computes the instantaneous rate since the
previous sample and folds it into an exponentially weighted moving
average whose half-life is configurable.  A burst therefore raises a
server's load quickly, and an idle stretch decays it back — exactly the
signal the rebalance planner needs to tell a sustained hotspot from a
blip.

The same window extends to **per-object update rates**:
:meth:`LoadMonitor.record_object_updates` accumulates update counts
sampled from the batched update lane (the leaf servers' update
listeners and the harness fast path both feed it), and each
:meth:`LoadMonitor.sample` folds them into per-object EWMAs with the
identical half-life.  The planner costs split cut lines by these
weights instead of raw object counts, so a leaf whose load is a few
*hot objects* (rather than a hot area) still splits along the line that
actually divides its load.

At millions of tracked objects the exact per-object window itself
becomes the memory hog (one dict entry per active object).  The
``object_rate_mode="sketch"`` monitor replaces the exact pending dict
with a :class:`HeavyHitterSketch` — a count-min sketch plus a bounded
top-K candidate table — so per-window memory is **constant** in the
population size and only the heavy tail (the objects the planner's cut
weighting actually cares about) ever reaches the EWMA dict.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.server import LocationServer

#: Per-object EWMAs decaying below this rate (ops/s) are dropped — an
#: object that went dormant stops costing memory in the monitor.
_OBJECT_RATE_FLOOR = 1e-3

#: Odd 64-bit multipliers for the sketch's multiply-shift row hashes
#: (splitmix64-style constants; any fixed odd values work).
_ROW_SALTS = (
    0x9E3779B97F4A7C15,
    0xBF58476D1CE4E5B9,
    0x94D049BB133111EB,
    0xD6E8FEB86659FD93,
    0xA5A3564D1F4B2C6B,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
)

_U64_MASK = (1 << 64) - 1


class HeavyHitterSketch:
    """Count-min sketch + bounded top-K table for update heavy hitters.

    Estimates are upper bounds (count-min never under-counts), so every
    true heavy hitter survives into the candidate table; collisions can
    only promote *extra* objects, never evict real ones.  The scalar
    :meth:`add` path uses the conservative-update variant (only raise
    the minimum counters), which tightens estimates further; the
    vectorized :meth:`add_array` path does plain count-min increments —
    conservative update is inherently sequential per key, and the upper
    bound property is what correctness rests on.

    Keys are strings on the scalar path (hashed via ``crc32`` — Python's
    ``hash(str)`` is salted per process, which would make sketches
    non-reproducible) and integers on the array path (hashed with
    multiply-shift per row).  The two lanes hash differently, so a
    population must stay in one lane within a window.

    Memory is ``depth * width`` counters plus at most ``2 * top_k``
    candidate entries — independent of how many distinct keys were fed.
    """

    __slots__ = (
        "width", "depth", "top_k", "_mask", "_shift", "_salts",
        "_rows", "_top", "_floor", "_total",
    )

    def __init__(
        self,
        width: int = 8192,
        depth: int = 4,
        top_k: int = 256,
    ) -> None:
        if width < 2 or width & (width - 1):
            raise ValueError(f"width must be a power of two >= 2, got {width}")
        if not 1 <= depth <= len(_ROW_SALTS):
            raise ValueError(f"depth must be in [1, {len(_ROW_SALTS)}], got {depth}")
        if top_k < 1:
            raise ValueError(f"top_k must be positive, got {top_k}")
        self.width = width
        self.depth = depth
        self.top_k = top_k
        self._mask = width - 1
        self._shift = 64 - width.bit_length() + 1  # top log2(width) bits
        self._salts = _ROW_SALTS[:depth]
        self._rows = np.zeros((depth, width), dtype=np.int64)
        #: candidate label → estimated count; pruned to ``top_k`` when it
        #: reaches twice that (amortized O(log K) per admission).
        self._top: dict[str, int] = {}
        #: admission threshold: the smallest estimate kept by the last
        #: prune — candidates below it cannot displace anything.
        self._floor = 0
        self._total = 0

    # -- hashing -------------------------------------------------------------

    def _buckets(self, int_key: int) -> list[int]:
        return [
            ((int_key * salt & _U64_MASK) >> self._shift) & self._mask
            for salt in self._salts
        ]

    @staticmethod
    def _int_key(key: str) -> int:
        # Deterministic across processes (unlike hash(str)); spread the
        # 32 crc bits over 64 so the multiply-shift sees high entropy.
        crc = zlib.crc32(key.encode())
        return (crc << 32 | crc) & _U64_MASK

    # -- updates -------------------------------------------------------------

    def add(self, key: str, count: int = 1) -> int:
        """Count ``count`` occurrences of a string key; returns the new
        estimate.  Conservative update: only the minimal counters move."""
        buckets = self._buckets(self._int_key(key))
        rows = self._rows
        est = int(min(rows[r][b] for r, b in enumerate(buckets)))
        new_est = est + count
        for r, b in enumerate(buckets):
            if rows[r][b] < new_est:
                rows[r][b] = new_est
        self._total += count
        self._admit(key, new_est)
        return new_est

    def add_array(self, int_keys, labeler) -> None:
        """Count one occurrence per key in a vectorized batch.

        ``int_keys`` is a numpy integer array (object slots, say);
        ``labeler`` maps a list of *positions into this batch* to their
        string labels and is only invoked for the ≤ ``top_k`` positions
        whose estimates lead the batch — so label materialization cost
        is bounded by K, not the batch size.
        """
        keys = np.asarray(int_keys, dtype=np.uint64)
        n = int(keys.size)
        if n == 0:
            return
        self._total += n
        ests = None
        for r, salt in enumerate(self._salts):
            idx = ((keys * np.uint64(salt)) >> np.uint64(self._shift)) & np.uint64(
                self._mask
            )
            np.add.at(self._rows[r], idx, 1)
            row_est = self._rows[r][idx]
            ests = row_est if ests is None else np.minimum(ests, row_est)
        # Batch-local candidate selection: a key's estimate is an upper
        # bound on its true count, so the true batch top-K is contained
        # in the estimate top-K.  Dedup first — duplicates of one hot key
        # share identical bucket values (estimates were read after the
        # whole batch landed), and without dedup they would claim every
        # candidate slot.
        _uniq, first_pos = np.unique(keys, return_index=True)
        uniq_ests = ests[first_pos]
        m = int(first_pos.size)
        k = min(self.top_k, m)
        if m > k:
            sel = np.argpartition(uniq_ests, m - k)[m - k :]
            positions = first_pos[sel]
        else:
            positions = first_pos
        order = positions.tolist()
        labels = labeler(order)
        for pos, label in zip(order, labels):
            self._admit(label, int(ests[pos]))

    def _admit(self, label: str, est: int) -> None:
        top = self._top
        if label in top:
            if est > top[label]:
                top[label] = est
            return
        if est <= self._floor:
            return
        top[label] = est
        if len(top) >= 2 * self.top_k:
            kept = sorted(top.items(), key=lambda kv: kv[1], reverse=True)[: self.top_k]
            self._top = dict(kept)
            self._floor = kept[-1][1]

    # -- reads ---------------------------------------------------------------

    def estimate(self, key: str) -> int:
        """Upper-bound count estimate for a string key."""
        buckets = self._buckets(self._int_key(key))
        return int(min(self._rows[r][b] for r, b in enumerate(buckets)))

    def heavy_hitters(self) -> dict[str, int]:
        """The ≤ ``top_k`` heaviest labels seen since the last reset."""
        if len(self._top) <= self.top_k:
            return dict(self._top)
        kept = sorted(self._top.items(), key=lambda kv: kv[1], reverse=True)
        return dict(kept[: self.top_k])

    @property
    def total(self) -> int:
        """Total occurrences counted since the last reset."""
        return self._total

    def reset(self) -> None:
        """Zero the window (counters, candidates, admission floor)."""
        self._rows.fill(0)
        self._top.clear()
        self._floor = 0
        self._total = 0

    def memory_bytes(self) -> int:
        """Counter-table footprint (the population-independent part)."""
        return int(self._rows.nbytes)


@dataclass(frozen=True, slots=True)
class LoadSample:
    """One server's load at a sampling instant."""

    server_id: str
    ops: int  # cumulative operation count
    delta: int  # operations since the previous sample
    rate: float  # decayed operations/second
    index_size: int  # sightings held (0 for interior servers)


def ops_of(server: LocationServer) -> int:
    """The operations that cost a server CPU, per its own counters.

    Updates dominate the paper's workload; handovers, queries and
    registrations are counted alongside so a query-heavy leaf also
    registers as loaded.
    """
    stats = server.stats
    return (
        stats.updates
        + stats.registrations
        + stats.handovers_admitted
        + stats.handovers_initiated
        + stats.pos_queries_served
        + stats.range_queries_served
        + stats.nn_rounds_served
    )


class LoadMonitor:
    """Decayed sliding-window load rates over a service's servers."""

    def __init__(
        self,
        half_life: float = 10.0,
        gc_retired_after: int | None = None,
        object_rate_mode: str = "exact",
        sketch_width: int = 8192,
        sketch_depth: int = 4,
        sketch_top_k: int = 256,
    ) -> None:
        """
        Args:
            half_life: seconds after which an old rate contribution has
                decayed to half its weight.
            gc_retired_after: when set, a retired forwarding alias that
                has seen no traffic for this many consecutive sweeps is
                dropped from the service and the network (bounding the
                endpoint table under long split/merge churn).  ``None``
                disables alias garbage collection.
            object_rate_mode: ``exact`` keeps one pending counter per
                active object (fine to ~10^5 objects); ``sketch`` routes
                the window through a :class:`HeavyHitterSketch` so
                monitor memory stays constant at millions of objects and
                only the heaviest ``sketch_top_k`` objects carry EWMAs.
            sketch_width / sketch_depth / sketch_top_k: sketch geometry
                for ``sketch`` mode (ignored otherwise).
        """
        if half_life <= 0.0:
            raise ValueError(f"half_life must be positive, got {half_life}")
        if gc_retired_after is not None and gc_retired_after < 1:
            raise ValueError(
                f"gc_retired_after must be >= 1, got {gc_retired_after}"
            )
        if object_rate_mode not in ("exact", "sketch"):
            raise ValueError(
                f"object_rate_mode must be 'exact' or 'sketch', got {object_rate_mode!r}"
            )
        self.half_life = half_life
        self.gc_retired_after = gc_retired_after
        self.object_rate_mode = object_rate_mode
        self._sketch = (
            HeavyHitterSketch(width=sketch_width, depth=sketch_depth, top_k=sketch_top_k)
            if object_rate_mode == "sketch"
            else None
        )
        self._last_ops: dict[str, int] = {}
        self._rates: dict[str, float] = {}
        self._instant: dict[str, float] = {}
        self._last_time: float | None = None
        #: retired alias → (messages seen at last sweep, idle sweep count)
        self._retired_traffic: dict[str, tuple[int, int]] = {}
        #: object id → decayed updates/second (rate-weighted split cuts).
        self._object_rates: dict[str, float] = {}
        #: object id → updates recorded since the last sample (exact mode).
        self._object_pending: dict[str, int] = {}

    def sample(self, service, now: float) -> dict[str, LoadSample]:
        """Fold the current counters into the window; returns all samples.

        Servers appearing for the first time (freshly spawned split
        children) start from their current counters with an undecayed
        instantaneous rate; servers that left the hierarchy (retired
        after a merge) are dropped from the window.
        """
        dt = None if self._last_time is None else now - self._last_time
        if dt is not None and dt <= 0.0:
            # Same-instant resample: report the current state but leave
            # the window untouched — blending a forced-zero instant rate
            # here would wipe every EWMA and fake an idle cluster.
            return {
                server_id: LoadSample(
                    server_id=server_id,
                    ops=ops_of(server),
                    delta=0,
                    rate=self._rates.get(server_id, 0.0),
                    index_size=len(server.store.sightings) if server.is_leaf else 0,
                )
                for server_id, server in service.servers.items()
            }
        self._last_time = now
        alpha = 1.0 if dt is None else 1.0 - 0.5 ** (dt / self.half_life)
        samples: dict[str, LoadSample] = {}
        live_ids = set(service.servers)
        for server_id, server in service.servers.items():
            ops = ops_of(server)
            previous = self._last_ops.get(server_id)
            delta = ops - previous if previous is not None else 0
            instant = 0.0 if dt is None else delta / dt
            if server_id in self._rates and dt is not None:
                rate = (1.0 - alpha) * self._rates[server_id] + alpha * instant
            else:
                rate = instant
            self._last_ops[server_id] = ops
            self._rates[server_id] = rate
            self._instant[server_id] = instant
            samples[server_id] = LoadSample(
                server_id=server_id,
                ops=ops,
                delta=delta,
                rate=rate,
                index_size=len(server.store.sightings) if server.is_leaf else 0,
            )
        for stale in set(self._rates) - live_ids:
            self._rates.pop(stale, None)
            self._last_ops.pop(stale, None)
            self._instant.pop(stale, None)
        self._fold_object_rates(dt, alpha)
        if self.gc_retired_after is not None:
            self._sweep_retired(service)
        return samples

    # -- per-object update rates (rate-weighted split cuts) ------------------

    def record_object_updates(self, object_ids) -> None:
        """Accumulate one update per id since the last sample.

        Fed from the batched update lane: the harness/service fast paths
        and the leaf servers' update listeners call this for every
        applied position report (including handover admissions — a hot
        object stays hot across a leaf crossing).  The counts fold into
        per-object EWMAs at the next :meth:`sample`.

        In ``sketch`` mode the counts go into the heavy-hitter sketch
        instead of a per-object dict, so this stays constant-memory no
        matter how many distinct ids stream through.
        """
        if self._sketch is not None:
            sketch = self._sketch
            for oid in object_ids:
                sketch.add(oid)
            return
        pending = self._object_pending
        for oid in object_ids:
            pending[oid] = pending.get(oid, 0) + 1

    def record_object_updates_array(self, int_keys, labeler) -> None:
        """Vectorized window feed for the columnar lane (``sketch`` mode).

        ``int_keys`` are integer object keys (columnar slots); ``labeler``
        maps batch positions to object-id strings and runs only for the
        sketch's ≤ top-K batch candidates — see
        :meth:`HeavyHitterSketch.add_array`.
        """
        if self._sketch is None:
            raise ValueError(
                "record_object_updates_array requires object_rate_mode='sketch'"
            )
        self._sketch.add_array(int_keys, labeler)

    def _fold_object_rates(self, dt: float | None, alpha: float) -> None:
        if dt is None or dt <= 0.0:
            return  # first sample: keep accumulating, no interval to rate over
        rates = self._object_rates
        if self._sketch is not None:
            pending: dict[str, int] = self._sketch.heavy_hitters()
            self._sketch.reset()  # fresh window; EWMAs carry the history
        else:
            pending, self._object_pending = self._object_pending, {}
        keep = 1.0 - alpha
        for oid, count in pending.items():
            instant = count / dt
            previous = rates.get(oid)
            rates[oid] = (
                instant if previous is None else keep * previous + alpha * instant
            )
        for oid in list(rates):
            if oid not in pending:
                decayed = keep * rates[oid]
                if decayed < _OBJECT_RATE_FLOOR:
                    del rates[oid]  # dormant: stop tracking (bounds memory)
                else:
                    rates[oid] = decayed
        if self._sketch is not None and len(rates) > 2 * self._sketch.top_k:
            # Each window can promote up to top_k fresh candidates while
            # old ones decay slowly; clamp the EWMA dict so monitor
            # memory stays bounded by the sketch geometry, not by how
            # many distinct objects ever got hot.
            kept = sorted(rates.items(), key=lambda kv: kv[1], reverse=True)
            self._object_rates = dict(kept[: 2 * self._sketch.top_k])

    def object_rate_footprint(self) -> dict[str, int]:
        """Window memory accounting: tracked EWMAs, pending entries, and
        the sketch's constant counter-table bytes (0 in exact mode)."""
        return {
            "tracked_rates": len(self._object_rates),
            "pending_entries": (
                len(self._object_pending)
                if self._sketch is None
                else len(self._sketch._top)
            ),
            "sketch_bytes": 0 if self._sketch is None else self._sketch.memory_bytes(),
        }

    def object_rate(self, object_id: str) -> float:
        """The decayed update rate of one object; 0 for unknown/dormant."""
        return self._object_rates.get(object_id, 0.0)

    def object_rates(self) -> dict[str, float]:
        """Decayed updates/second per (recently active) object."""
        return dict(self._object_rates)

    def _sweep_retired(self, service) -> None:
        """Drop retirement aliases that went quiet (ROADMAP follow-up).

        A retired server forwards every message it still receives and
        counts it in ``stats.messages_handled``; once that counter stops
        moving for ``gc_retired_after`` consecutive sweeps, nobody is
        using the alias any more — stale agent pointers have been healed
        by the forwarding answers — and it can leave the network
        (``drop_retired`` also purges it from every live server's §6.5
        caches, so no server dispatches to the vanished address).  A
        straggler from a stale *client* becomes a dead letter and
        recovers through the batched lane's envelope re-route via the
        root.
        """
        retired = getattr(service, "retired_servers", None)
        if not retired:
            self._retired_traffic.clear()
            return
        for server_id, server in list(retired.items()):
            seen = sum(server.stats.messages_handled.values())
            previous, idle = self._retired_traffic.get(server_id, (None, 0))
            idle = idle + 1 if seen == previous else 0
            if idle >= self.gc_retired_after:
                service.drop_retired(server_id)
                self._retired_traffic.pop(server_id, None)
            else:
                self._retired_traffic[server_id] = (seen, idle)
        for stale in set(self._retired_traffic) - set(retired):
            self._retired_traffic.pop(stale, None)

    # -- migration rate seeding (phased cutover) ----------------------------

    def seed_split(self, source_id: str, weights: dict[str, float]) -> None:
        """Split the source leaf's decayed rate among its children.

        Called at a split cutover: the children inherit the parent's
        load proportional to the weight they received — the *rate mass*
        of their staged objects when per-object rates are tracked
        (a child taking the dormant majority of a skewed
        leaf must not inherit the hot minority's load), object counts
        otherwise — so the planner sees a realistic picture on the very
        next sample instead of a cold start (which the merge-cooldown
        would otherwise have to paper over while the EWMA ramps from
        zero).
        """
        rate = self._rates.pop(source_id, 0.0)
        self._last_ops.pop(source_id, None)
        total = sum(weights.values())
        if total <= 0:
            return
        for child_id, weight in weights.items():
            self._rates[child_id] = rate * weight / total

    def seed_merge(self, parent_id: str, child_ids) -> None:
        """Fold merged children's decayed rates into the parent leaf."""
        total = sum(self._rates.pop(cid, 0.0) for cid in child_ids)
        for cid in child_ids:
            self._last_ops.pop(cid, None)
        self._rates[parent_id] = self._rates.get(parent_id, 0.0) + total

    def forget_server(self, server_id: str) -> None:
        """Drop every window entry for one server (chaos recovery).

        A crashed-and-re-homed leaf's counters restart from zero (or the
        address disappears entirely), so the next :meth:`sample` would
        read a huge negative delta against the stale cumulative baseline;
        forgetting the id makes the server — should it return — look
        freshly spawned instead.
        """
        self._last_ops.pop(server_id, None)
        self._rates.pop(server_id, None)
        self._instant.pop(server_id, None)
        self._retired_traffic.pop(server_id, None)

    def rates(self) -> dict[str, float]:
        return dict(self._rates)

    def instant_rates(self) -> dict[str, float]:
        """Per-server ops/s over the *last sampling interval only*.

        The undecayed companion of :meth:`rates`: a surge registers here
        in full on its first sample while the EWMA is still ramping, so
        the planner sizes a split's fan-out by how big the hotspot
        really is instead of by how much of it the window has absorbed
        so far (the EWMA remains the *trigger* — a blip spikes the
        instant rate too, but never the decayed one).
        """
        return dict(self._instant)

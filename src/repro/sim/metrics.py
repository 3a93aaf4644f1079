"""Measurement utilities: latency distributions and throughput.

Table 1 reports operations per second; Table 2 reports response time
*and* overall throughput.  These helpers compute both from either
virtual-clock or wall-clock samples, so the same harness code serves the
micro-benchmarks and the simulated distributed runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.runtime.base import NetworkStats


@dataclass(frozen=True, slots=True)
class Summary:
    """Summary statistics of one latency series (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float
    minimum: float

    @property
    def mean_ms(self) -> float:
        return self.mean * 1e3

EMPTY_SUMMARY = Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted values, q in [0, 1]."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = q * (len(sorted_values) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_values[low]
    weight = rank - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


@dataclass
class LatencyRecorder:
    """Collects per-operation latency samples keyed by operation name."""

    samples: dict[str, list[float]] = field(default_factory=dict)

    def record(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    def summary(self, name: str) -> Summary:
        values = sorted(self.samples.get(name, []))
        if not values:
            return EMPTY_SUMMARY
        return Summary(
            count=len(values),
            # fsum: correctly rounded, so the mean is the same on every
            # interpreter (3.12's sum() compensates, 3.11's does not).
            mean=math.fsum(values) / len(values),
            p50=percentile(values, 0.50),
            p95=percentile(values, 0.95),
            p99=percentile(values, 0.99),
            maximum=values[-1],
            minimum=values[0],
        )

    def names(self) -> list[str]:
        return sorted(self.samples)


@dataclass
class ThroughputMeter:
    """Counts completed operations over a measured interval."""

    completed: int = 0
    _start: float | None = None
    _end: float | None = None

    def begin(self, now: float) -> None:
        self._start = now
        self.completed = 0

    def note(self, now: float, count: int = 1) -> None:
        self.completed += count
        self._end = now

    def per_second(self) -> float:
        if self._start is None or self._end is None or self._end <= self._start:
            return 0.0
        return self.completed / (self._end - self._start)


#: Message type names that make up the *protocol lane* — the Section-6
#: update/handover/deregister traffic (device-edge singles and
#: server-to-server envelopes).  Query fan-out messages are deliberately
#: excluded: they are the query lane.
PROTOCOL_LANE_MESSAGE_TYPES = frozenset(
    {
        "CreatePath",
        "UpdateReq",
        "UpdateRes",
        "UpdateBatchReq",
        "UpdateBatchRes",
        "HandoverBatchReq",
        "HandoverBatchRes",
        "DeregisterReq",
        "DeregisterRes",
        "DeregisterBatchReq",
        "DeregisterBatchRes",
        "PathTeardownBatch",
        "PathTeardownNack",
        "PathUpdate",
        "RemovePath",
        "NotifyAvailAcc",
    }
)


#: Message types of the *topology lane* — elastic-reconfiguration
#: control traffic (§6.5 invalidation broadcasts at migration cutovers).
#: Counted separately from the protocol lane: it scales with rebalance
#: frequency × leaf count, not with report volume.
TOPOLOGY_MESSAGE_TYPES = frozenset({"CacheInvalidate"})


class MessageLedger:
    """Per-type message-count deltas over a runtime's ``NetworkStats``.

    Snapshot the stats at construction (or :meth:`rebase`), read the
    traffic since then with :meth:`delta` /
    :meth:`protocol_messages`.  The elastic scenarios use this to count
    protocol-lane messages per tick.

    Dropped and duplicated deliveries are tracked **distinctly** from
    sent traffic: an injected duplicate never increments ``by_type`` or
    ``messages_sent`` (the sender paid for one send; the network
    manufactured the copies), so :meth:`delta` stays an honest sender-
    side traffic count and :meth:`duplicated_deliveries` /
    :meth:`dropped_deliveries` report what the fault layer did to it.
    """

    __slots__ = ("_stats", "_base")

    def __init__(self, stats: NetworkStats) -> None:
        self._stats = stats
        self.rebase()

    def rebase(self) -> None:
        """Snapshot every counter of the wrapped stats."""
        self._base = replace(self._stats, by_type=dict(self._stats.by_type))

    def dropped_deliveries(self) -> int:
        """Messages dropped (crashes, drop rate, injected faults) since
        the last (re)base."""
        return self._stats.messages_dropped - self._base.messages_dropped

    def duplicated_deliveries(self) -> int:
        """Fault-injected duplicate deliveries since the last (re)base."""
        return self._stats.messages_duplicated - self._base.messages_duplicated

    def faults_injected(self) -> int:
        """Fault-injector rule firings since the last (re)base."""
        return self._stats.faults_injected - self._base.faults_injected

    def frames_corrupted(self) -> int:
        """Frames rejected at the byte layer (checksum/framing) since
        the last (re)base."""
        return self._stats.frames_corrupted - self._base.frames_corrupted

    def messages_quarantined(self) -> int:
        """Decoded messages rejected by receive-path validation since
        the last (re)base."""
        return self._stats.messages_quarantined - self._base.messages_quarantined

    def stale_epoch_rejected(self) -> int:
        """Messages rejected as stale-epoch replays since the last
        (re)base."""
        return self._stats.stale_epoch_rejected - self._base.stale_epoch_rejected

    def delta(self) -> dict[str, int]:
        """Messages sent per type since the last (re)base, zeros omitted."""
        base = self._base.by_type
        return {
            name: count - base.get(name, 0)
            for name, count in self._stats.by_type.items()
            if count - base.get(name, 0) > 0
        }

    def protocol_delta(self) -> dict[str, int]:
        """The protocol-lane slice of :meth:`delta`."""
        return {
            name: count
            for name, count in self.delta().items()
            if name in PROTOCOL_LANE_MESSAGE_TYPES
        }

    def protocol_messages(self) -> int:
        """Total protocol-lane messages since the last (re)base."""
        return sum(self.protocol_delta().values())

    def topology_messages(self) -> int:
        """Total topology-lane messages (cache invalidation broadcasts)
        since the last (re)base."""
        return sum(
            count
            for name, count in self.delta().items()
            if name in TOPOLOGY_MESSAGE_TYPES
        )


def format_table(title: str, headers: tuple[str, ...], rows: list[tuple]) -> str:
    """Render an aligned plain-text table (benches print these)."""
    widths = [len(h) for h in headers]
    str_rows = [[str(cell) for cell in row] for row in rows]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))
    lines = [title, fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)

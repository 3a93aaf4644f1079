"""Metric catalogue (name, unit, direction, bound) and how each is computed.

``BENCHMARK.json`` lists exactly ``END_TO_END`` and ``PER_LAYER``; a
self-test keeps the two in step.  End-to-end metrics come from an untraced
pass; per-layer metrics from the ``--trace 1`` run (busy times and counts
from its traced pass, the ``q.*``/``lat.*`` detail latencies and the
overhead baseline from the untraced quarter-size pass beside it).
"""

from __future__ import annotations

import resource
import statistics
from collections import Counter

from repro.sim.metrics import LatencyRecorder

from tracing import self_times

# (name, unit, better, bound).  The bound is the share of the parent's median
# by which a change may make the metric worse.  Timings sit at the widest
# bound the contract allows: on the shared sandbox identical code on an
# identical seed runs 20-40 % slower for tens of seconds at a time, and what
# of that still reaches a result would make a tighter gate refuse innocent
# changes.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("reports_per_s", "1/s", "higher", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("update_p50_ms", "ms", "lower", 0.25),
    ("update_p95_ms", "ms", "lower", 0.25),
    ("pos_p50_ms", "ms", "lower", 0.25),
    ("pos_p95_ms", "ms", "lower", 0.25),
    ("range_p50_ms", "ms", "lower", 0.25),
    ("range_p95_ms", "ms", "lower", 0.25),
    ("nn_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: busy-time metric -> the span names whose self time it sums.
BUSY = {
    "driver.envelope_build_busy_s": ("driver.envelope_build",),
    "driver.client_busy_s": ("driver.client", "driver.deliver"),
    "wire.encode_busy_s": ("wire.encode_frame",),
    "wire.decode_busy_s": ("wire.decoder_feed", "wire.decoder_flush"),
    "sock.send_busy_s": ("sock.transmit", "sock.transmit_many", "sock.send_bytes", "sock.tcp_sender"),
    "sock.recv_busy_s": ("sock.on_datagram", "sock.on_frames", "sock.tcp_reader"),
    "rt.transmit_busy_s": ("rt.transmit", "rt.transmit_many"),
    "validate.busy_s": ("validate.find_defect",),
    "server.handler_busy_s": ("server.deliver", "server.handler"),
    "store.update_busy_s": ("store.update_many",),
    "store.handover_busy_s": ("store.admit_handover_many", "store.deregister"),
    "store.pos_busy_s": ("store.position_query",),
    "store.range_busy_s": ("store.range_query", "store.range_query_many"),
    "store.nn_busy_s": (
        "store.nearest_neighbor_query",
        "store.nn_candidates",
        "store.nn_candidates_many",
    ),
    "index.update_busy_s": ("index.update_many",),
    "index.query_busy_s": ("index.query_rect", "index.query_rect_many"),
    "index.nn_busy_s": ("index.nearest",),
}

#: call-count metric -> the span names it counts.
CALLS = {
    "wire.encode_calls": ("wire.encode_frame",),
    "validate.calls": ("validate.find_defect",),
    "store.update_calls": ("store.update_many",),
    "store.pos_calls": ("store.position_query",),
    "store.range_calls": BUSY["store.range_busy_s"],
    "store.nn_calls": BUSY["store.nn_busy_s"],
    "index.query_calls": BUSY["index.query_busy_s"],
    "index.nn_calls": ("index.nearest",),
}

_COUNTED_IN_WRAPPERS = (
    "wire.encode_msgs",
    "wire.encode_bytes",
    "wire.decode_calls",
    "wire.decode_bytes",
    "wire.msgs_skipped",
    "sock.frames_sent",
    "sock.bytes_sent",
    "sock.fragments_sent",
    "store.update_items",
    "store.range_entries",
    "index.update_items",
    "index.query_hits",
)

_DETAIL_P50 = (
    "pos_local",
    "pos_remote",
    "range_local",
    "range_remote1",
    "range_remote2",
    "range_remote4",
    "nn_local",
    "nn_remote",
)

PER_LAYER = (
    [(name, "s", "lower") for name in BUSY]
    + [(name, "count", "lower") for name in CALLS]
    + [(name, "count", "lower") for name in _COUNTED_IN_WRAPPERS]
    + [
        ("driver.pregen_s", "s", "lower"),
        ("driver.ops", "count", "higher"),
        ("driver.retries", "count", "lower"),
        ("driver.timeouts", "count", "lower"),
        ("driver.failed_ops_share", "share", "lower"),
        ("driver.handover_share", "share", "lower"),
        ("wire.frames_corrupted", "count", "lower"),
        ("sock.bytes_per_op", "bytes", "lower"),
        ("sock.msgs_sent", "count", "lower"),
        ("sock.msgs_delivered", "count", "higher"),
        ("sock.msgs_dropped", "count", "lower"),
        ("sock.dead_letters", "count", "lower"),
        ("rt.msgs_sent", "count", "lower"),
        ("rt.msgs_delivered", "count", "higher"),
        ("validate.quarantined", "count", "lower"),
        ("validate.stale_epoch_rejected", "count", "lower"),
        ("server.msgs_handled", "count", "lower"),
        ("server.msgs_per_op", "count", "lower"),
        ("server.update_batches", "count", "lower"),
        ("server.handovers_initiated", "count", "lower"),
        ("server.handovers_admitted", "count", "lower"),
        ("server.servers_per_range", "count", "lower"),
        ("server.nn_rounds_per_query", "count", "lower"),
        ("server.epoch_retries", "count", "lower"),
        ("server.path_repair_resends", "count", "lower"),
        ("index.candidates_per_entry", "ratio", "lower"),
    ]
    + [(f"q.{sub}_p50_ms", "ms", "lower") for sub in _DETAIL_P50]
    + [
        ("lat.update_p99_ms", "ms", "lower"),
        ("lat.range_p99_ms", "ms", "lower"),
        ("lat.nn_p95_ms", "ms", "lower"),
        ("q.reports_per_s_all_groups", "1/s", "higher"),
        ("q.queries_per_s_all_groups", "1/s", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.accounted_share", "share", "higher"),
        ("trace.overhead_share", "share", "lower"),
    ]
)

UNITS = {name: unit for name, unit, *_rest in END_TO_END + PER_LAYER}


def _latencies(records, key) -> LatencyRecorder:
    recorder = LatencyRecorder()
    for record in records:
        recorder.record(key(record.op), record.done - record.sent)
    return recorder


#: the share of each kind of group that ``undisturbed`` keeps.
KEPT_SHARE = 1 / 3


def undisturbed(samples) -> list:
    """The fastest third of each kind of group.

    The sandbox shares its processor and caches with other tenants, and
    their interference only ever *adds* time, for a fraction of a second to
    tens of seconds at a stretch (``quiet.py`` moves away from the longest
    stretches).  Groups of one kind (updates, position queries, range
    queries, ...) carry the same work, so the slower ones, by wall clock
    relative to their operations' usual cost, are taken to be the disturbed
    ones and set aside; metrics are computed over the rest.  A third, not a
    half: over ten seeds the half still spread the p95s by 10-33 %, the
    third by 2-13 %.  The rule is the same for every commit.  A cost that
    recurs in fewer than two thirds of the groups is therefore not in the
    end-to-end numbers — the traced run reports throughput over all groups
    (``q.*_all_groups``) so that it still shows.
    """
    by_sub = _latencies(
        [record for sample in samples for record in sample.records], lambda op: op.sub
    )
    typical = {sub: by_sub.summary(sub).p50 for sub in by_sub.names()}

    def slowdown(sample) -> float:
        """Wall clock against what this group's operations usually take, so
        that groups of unequal make-up can be ranked."""
        return sample.wall / sum(typical[record.op.sub] for record in sample.records)

    kinds: dict[frozenset, list] = {}
    for sample in samples:
        kinds.setdefault(frozenset(record.op.kind for record in sample.records), []).append(sample)
    kept = []
    for group in kinds.values():
        group.sort(key=slowdown)
        kept.extend(group[: max(1, round(len(group) * KEPT_SHARE))])
    return kept


def _throughput(samples, work) -> float:
    """Completed work per second over the groups that carry that work."""
    carrying = [sample for sample in samples if work(sample)]
    return sum(work(sample) for sample in carrying) / sum(sample.wall for sample in carrying)


def end_to_end(samples, setup_seconds: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced timed pass, and the sample
    count behind each latency, both over the undisturbed groups."""
    kept = undisturbed(samples)
    by_kind = _latencies([record for sample in kept for record in sample.records], lambda op: op.kind)
    values = {
        "setup_s": statistics.median(setup_seconds),
        "reports_per_s": _throughput(kept, lambda sample: sample.reports),
        "queries_per_s": _throughput(kept, lambda sample: sample.queries),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {}
    for kind in ("update", "pos", "range", "nn"):
        summary = by_kind.summary(kind)
        values[f"{kind}_p50_ms"] = summary.p50 * 1e3
        values[f"{kind}_p95_ms"] = summary.p95 * 1e3
        counts[f"{kind}_p50_ms"] = counts[f"{kind}_p95_ms"] = summary.count
    # NN latency follows the crowd around the probe and has a long tail: its
    # p95 spread 27-29 % over ten seeds, beyond any bound the contract
    # allows, so it is a detail metric of the traced run (lat.nn_p95_ms).
    del values["nn_p95_ms"], counts["nn_p95_ms"]
    return values, counts


def cluster_counts(cluster, driver) -> Counter:
    """The cumulative counters the layers keep themselves; subtract two
    snapshots to get a pass's share."""
    counts: Counter = Counter()
    prefix = "rt" if cluster.network is not None else "sock"
    for stats in cluster.network_stats():
        counts[f"{prefix}.msgs_sent"] += stats.messages_sent
        counts[f"{prefix}.msgs_delivered"] += stats.messages_delivered
        counts["sock.msgs_dropped"] += stats.messages_dropped
        counts["sock.dead_letters"] += stats.dead_letters
        counts["wire.frames_corrupted"] += stats.frames_corrupted
    for server in cluster.servers.values():
        stats = server.stats
        counts["server.msgs_handled"] += sum(stats.messages_handled.values())
        counts["server.update_batches"] += stats.messages_handled.get("UpdateBatchReq", 0)
        counts["server.handovers_initiated"] += stats.handovers_initiated
        counts["server.handovers_admitted"] += stats.handovers_admitted
        counts["server.epoch_retries"] += stats.epoch_retries
        counts["server.path_repair_resends"] += stats.path_repair_resends
        counts["validate.quarantined"] += stats.messages_quarantined
        counts["validate.stale_epoch_rejected"] += stats.stale_epoch_rejected
    for endpoint in (driver.reporter, *driver.clients):
        counts["validate.quarantined"] += endpoint.quarantined_count
    counts["driver.retries"] = driver.retries
    counts["driver.timeouts"] = driver.timeouts
    return counts


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(
    *,
    spans: list[list],
    wrapper_counts: Counter,
    layer_counts: Counter,
    traced_records,
    traced_wall: float,
    plain_samples,
    plain_wall: float,
    pregen_s: float,
) -> dict:
    """Every per-layer metric of one ``--trace 1`` run."""
    self_by_name = self_times(spans)
    calls_by_name = Counter(span[0] for span in spans)
    values = {name: 0.0 for name, _unit, _better in PER_LAYER}
    for metric, names in BUSY.items():
        values[metric] = sum(self_by_name.get(name, 0.0) for name in names)
    for metric, names in CALLS.items():
        values[metric] = sum(calls_by_name[name] for name in names)
    for metric in _COUNTED_IN_WRAPPERS:
        values[metric] = wrapper_counts[metric]
    for metric, count in layer_counts.items():
        values[metric] = count

    ops = len(traced_records)
    answered = [r for r in traced_records if r.ok]
    reports = sum(len(r.op.arg[1]) for r in answered if r.op.kind == "update")
    queries = sum(1 for r in answered if r.op.kind != "update")
    values["driver.pregen_s"] = pregen_s
    values["driver.ops"] = ops
    values["driver.failed_ops_share"] = (ops - len(answered)) / ops
    values["driver.handover_share"] = (
        layer_counts["server.handovers_initiated"] / reports if reports else 0.0
    )
    values["sock.bytes_per_op"] = wrapper_counts["sock.bytes_sent"] / max(1, reports + queries)
    values["server.msgs_per_op"] = layer_counts["server.msgs_handled"] / ops
    values["server.servers_per_range"] = _mean(
        r.answer.servers_involved for r in answered if r.op.kind == "range"
    )
    values["server.nn_rounds_per_query"] = _mean(
        r.answer.rounds for r in answered if r.op.kind == "nn"
    )
    values["index.candidates_per_entry"] = wrapper_counts["index.range_hits"] / max(
        1, wrapper_counts["store.range_entries"]
    )

    plain_records = [record for sample in plain_samples for record in sample.records]
    by_sub = _latencies(plain_records, lambda op: op.sub)
    for sub in _DETAIL_P50:
        values[f"q.{sub}_p50_ms"] = by_sub.summary(sub).p50 * 1e3
    by_kind = _latencies(plain_records, lambda op: op.kind)
    values["lat.update_p99_ms"] = by_kind.summary("update").p99 * 1e3
    values["lat.range_p99_ms"] = by_kind.summary("range").p99 * 1e3
    values["lat.nn_p95_ms"] = by_kind.summary("nn").p95 * 1e3
    values["q.reports_per_s_all_groups"] = _throughput(plain_samples, lambda sample: sample.reports)
    values["q.queries_per_s_all_groups"] = _throughput(plain_samples, lambda sample: sample.queries)

    values["trace.wall_s"] = traced_wall
    values["trace.accounted_share"] = sum(self_by_name.values()) / traced_wall
    values["trace.overhead_share"] = (traced_wall / ops) / (plain_wall / len(plain_records)) - 1.0
    return values


def layer_table(values: dict) -> str:
    """The busy times as shares of the traced wall clock, largest first."""
    wall = values["trace.wall_s"]
    rows = sorted(((values[name], name) for name in BUSY), reverse=True)
    lines = [f"{'layer busy time':34s} {'s':>9s} {'share':>7s}"]
    lines += [f"{name:34s} {busy:9.4f} {busy / wall:7.1%}" for busy, name in rows if busy > 0.0]
    lines.append(f"{'accounted':34s} {'':9s} {values['trace.accounted_share']:7.1%}")
    return "\n".join(lines)

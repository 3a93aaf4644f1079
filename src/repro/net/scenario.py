"""Drive the elastic scenarios' workloads over a live socket cluster.

A :class:`~repro.sim.elastic.ScenarioWorkload` (e.g.
:func:`repro.sim.elastic.festival_surge_workload` /
:func:`~repro.sim.elastic.commuter_rush_workload`) is transport-
agnostic: placements and motion, nothing else.  :func:`drive_workload`
runs one against *any* joinable runtime — the in-process
:class:`~repro.runtime.asyncio_rt.AsyncioNetwork` or a
:class:`~repro.net.bootstrap.ClusterLauncher` whose servers are real OS
processes — with the workload's own motion seed and using only public
protocol messages: ``RegisterReq`` per object, one ``UpdateBatchReq``
envelope per destination leaf per tick (fresh-id resends on timeout,
and the simulated lane's per-item rounds for unacknowledged items via
:func:`~repro.core.service.drive_item_rounds`), and a final
``PosQueryReq`` sweep that proves zero lost sightings end to end.

:func:`socket_benchmark_payload` is the ``BENCH_PR7.json`` body: both
scenarios on the asyncio runtime (one interpreter) vs. the multi-process
UDP cluster, plus a lossy-UDP lane showing retries recover every
sighting.
"""

from __future__ import annotations

import asyncio
import random
import time

from repro.core import messages as m
from repro.core.hierarchy import Hierarchy, build_table2_hierarchy
from repro.core.service import Reporter, drive_item_rounds
from repro.errors import TransportError
from repro.model import SightingRecord
from repro.net.bootstrap import ClusterLauncher
from repro.runtime.base import Endpoint

__all__ = [
    "drive_workload",
    "run_workload_multiprocess",
    "run_workload_inprocess",
    "socket_benchmark_payload",
]


async def _request_retrying(
    reporter: Endpoint, dest: str, make_message, timeout: float, retries: int
):
    """Fresh-id re-sends on timeout — the protocol lane's envelope
    recovery, driver-side (there is no LocationService facade here)."""
    last: TransportError | None = None
    for _ in range(retries + 1):
        request_id = reporter.next_request_id()
        try:
            return await reporter.request(dest, make_message(request_id), timeout=timeout)
        except TransportError as exc:
            last = exc
    raise TransportError(f"request to {dest} unanswered after {retries + 1} attempts: {last}")


async def drive_workload(
    workload,
    hierarchy: Hierarchy,
    join,
    *,
    timeout: float = 2.0,
    retries: int = 8,
    sub_timeout: float | None = None,
) -> dict:
    """Run one scenario workload through the public protocol.

    ``join(endpoint)`` attaches an endpoint to whatever runtime is under
    test.  Returns the measurement payload (reports/s over the tick
    loop, plus the zero-lost verification sweep).

    ``sub_timeout`` bounds the *cluster-side* fan-out each envelope
    triggers (handover/forward sub-requests).  Leave it ``None`` only on
    a loss-free fabric: with faults in play an unanswered sub-request
    would otherwise park a server task forever.  With it set, items an
    answer leaves unacknowledged are re-sent alone, up to ``retries``
    rounds.
    """
    reporter = join(Reporter("wl-reporter"))
    homes: dict[str, str] = {}

    # -- registration (RegisterReq to each object's entry leaf) ------------
    semaphore = asyncio.Semaphore(32)  # registrations / sweep queries in flight

    async def register(oid: str, pos) -> None:
        leaf = hierarchy.leaf_for_point(pos)
        async with semaphore:
            res = await _request_retrying(
                reporter,
                leaf,
                lambda rid: m.RegisterReq(
                    request_id=rid,
                    reply_to=reporter.address,
                    sighting=SightingRecord(oid, 0.0, pos, 10.0),
                    des_acc=25.0,
                    min_acc=100.0,
                    registrar=reporter.address,
                ),
                timeout,
                retries,
            )
            assert isinstance(res, m.RegisterRes) and res.ok, res
            homes[oid] = res.agent or leaf

    await asyncio.gather(*(register(oid, pos) for oid, pos in workload.placements))

    # -- tick loop: one UpdateBatchReq envelope per destination ------------
    rng = random.Random(workload.motion_seed)
    positions = dict(workload.placements)
    total_reports = 0
    envelope_count = 0
    t_start = time.perf_counter()
    for tick in range(workload.ticks):
        reports = workload.positions_at(rng, positions, tick)
        now = float(tick + 1)
        by_dest: dict[str, list] = {}
        for oid, pos in reports:
            by_dest.setdefault(homes[oid], []).append(
                SightingRecord(oid, now, pos, 10.0)
            )
        total_reports += len(reports)

        async def drive(dest: str, sightings: list) -> None:
            def send(remaining: set[str] | None, _budget: int):
                # Every round gets the whole retry budget: on a lossy or
                # corrupting fabric the destination that just answered
                # can still lose the next request.
                return _request_retrying(
                    reporter,
                    dest,
                    lambda rid: m.UpdateBatchReq(
                        request_id=rid,
                        reply_to=reporter.address,
                        sightings=tuple(
                            s for s in sightings
                            if remaining is None or s.object_id in remaining
                        ),
                        epoch=hierarchy.epoch,
                        sub_timeout=sub_timeout,
                    ),
                    timeout,
                    retries,
                )

            def settle(res) -> set[str]:
                assert isinstance(res, m.UpdateBatchRes)
                unacked: set[str] = set()
                for outcome in res.outcomes:
                    if outcome.agent:
                        homes[outcome.object_id] = outcome.agent
                    elif outcome.deregistered:
                        homes.pop(outcome.object_id, None)
                    elif outcome.error == m.NACK_UNACKNOWLEDGED:
                        unacked.add(outcome.object_id)
                return unacked

            await drive_item_rounds(send, settle, retries, sub_timeout)

        envelope_count += len(by_dest)
        await asyncio.gather(
            *(drive(dest, sightings) for dest, sightings in by_dest.items())
        )
    elapsed = time.perf_counter() - t_start

    payload: dict = {
        "objects": workload.objects,
        "ticks": workload.ticks,
        "reports": total_reports,
        "envelopes": envelope_count,
        "elapsed_s": round(elapsed, 4),
        "reports_per_s": round(total_reports / elapsed, 1) if elapsed > 0 else None,
    }

    # -- zero-lost sweep: every object still answerable by position query --
    found = 0

    async def query(oid: str, entry: str) -> None:
        nonlocal found
        async with semaphore:
            res = await _request_retrying(
                reporter,
                entry,
                lambda rid: m.PosQueryReq(
                    request_id=rid, reply_to=reporter.address, object_id=oid
                ),
                timeout,
                retries,
            )
            assert isinstance(res, m.PosQueryRes)
            if res.found:
                found += 1

    await asyncio.gather(
        *(
            query(oid, homes.get(oid, hierarchy.root_id))
            for oid, _ in workload.placements
        )
    )
    payload["registered"] = len(workload.placements)
    payload["found"] = found
    payload["lost_sightings"] = len(workload.placements) - found
    return payload


# ---------------------------------------------------------------------------
# Lanes
# ---------------------------------------------------------------------------


def run_workload_multiprocess(
    workload,
    transport: str = "udp",
    drop_rate: float = 0.0,
    retries: int = 8,
    timeout: float = 2.0,
    seed: int = 0,
) -> dict:
    """The workload against a real multi-process socket cluster over the
    Fig.-8 testbed."""
    hierarchy = build_table2_hierarchy(1500.0)

    async def main() -> dict:
        launcher = ClusterLauncher(
            hierarchy, transport=transport, drop_rate=drop_rate, seed=seed
        )
        await launcher.start()
        try:
            payload = await drive_workload(
                workload,
                hierarchy,
                launcher.join,
                timeout=timeout,
                retries=retries,
            )
            payload["transport"] = transport
            payload["processes"] = len(launcher.order)
            payload["drop_rate"] = drop_rate
            # Cross-process invariant: the leaves' tracked sum must cover
            # every registered object (the driver-side sweep already
            # proved each is *answerable*; this proves none is tracked
            # twice or zero times cluster-side).
            payload["tracked_total"] = await launcher.total_tracked()
            stats = launcher.transport.stats
            payload["driver_messages_sent"] = stats.messages_sent
            payload["driver_messages_dropped"] = stats.messages_dropped
            return payload
        finally:
            await launcher.stop()

    return asyncio.run(main())


def run_workload_inprocess(workload) -> dict:
    """The same driver against the in-process asyncio runtime (the
    single-interpreter comparison lane)."""
    from repro.core.server import LocationServer
    from repro.runtime.asyncio_rt import AsyncioNetwork

    hierarchy = build_table2_hierarchy(1500.0)

    async def main() -> dict:
        network = AsyncioNetwork()
        for server_id in hierarchy.server_ids():
            server = LocationServer(hierarchy.config(server_id), sighting_ttl=1e9)
            server.topology_epoch = hierarchy.epoch
            network.join(server)
        payload = await drive_workload(workload, hierarchy, network.join)
        payload["transport"] = "in-process"
        payload["processes"] = 1
        await network.quiesce()
        return payload

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# BENCH_PR7.json payload
# ---------------------------------------------------------------------------


def socket_benchmark_payload(seed: int = 0) -> dict:
    """In-process vs. multi-process reports/s on both acceptance
    scenarios (300 objects, 10 ticks), plus the lossy-UDP zero-lost lane
    (120 objects, 6 ticks, 1 % loss).

    Acceptance numbers gated by ``scripts/bench_check.py``:

    * ``lanes_lost`` — every lane's verification sweep found every
      registered object (including over UDP with injected loss).
    * ``min_throughput_ratio`` — multi-process reports/s within an
      agreed factor of in-process on every scenario (the processes pay
      real serialization + syscalls; the gate catches collapse, e.g. a
      retry storm, not the expected constant factor).
    """
    from repro.sim.elastic import commuter_rush_workload, festival_surge_workload

    workloads = {
        "festival_surge": festival_surge_workload(300, 10, seed),
        "commuter_rush": commuter_rush_workload(300, 10, seed),
    }
    scenarios: dict[str, dict] = {}
    for name, workload in workloads.items():
        in_process = run_workload_inprocess(workload)
        multi_process = run_workload_multiprocess(workload, transport="udp", seed=seed)
        ratio = (
            round(multi_process["reports_per_s"] / in_process["reports_per_s"], 4)
            if in_process["reports_per_s"]
            else None
        )
        scenarios[name] = {
            "in_process": in_process,
            "multi_process": multi_process,
            "throughput_ratio": ratio,
        }

    loss_lane = run_workload_multiprocess(
        commuter_rush_workload(120, 6, seed),
        transport="udp",
        drop_rate=0.01,
        retries=12,
        timeout=1.0,
        seed=seed,
    )

    lanes_lost = {
        f"{name}:{lane}": scenarios[name][lane]["lost_sightings"]
        for name in scenarios
        for lane in ("in_process", "multi_process")
    }
    lanes_lost["commuter_rush:udp_loss"] = loss_lane["lost_sightings"]
    ratios = [
        s["throughput_ratio"] for s in scenarios.values() if s["throughput_ratio"]
    ]
    return {
        "bench": "real-transport lane: sockets vs in-process (smoke)",
        "scenarios": scenarios,
        "udp_loss": loss_lane,
        "lanes_lost": lanes_lost,
        "zero_lost_all_lanes": all(v == 0 for v in lanes_lost.values()),
        "min_throughput_ratio": min(ratios) if ratios else None,
    }

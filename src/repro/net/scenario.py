"""Drive the elastic scenarios' workloads over a live cluster, on any runtime.

A :class:`~repro.sim.elastic.ScenarioWorkload` (e.g.
:func:`repro.sim.elastic.festival_surge_workload` /
:func:`~repro.sim.elastic.commuter_rush_workload`) is transport-
agnostic: placements and motion, nothing else.  :func:`drive_workload`
runs one against *any* joinable runtime with the workload's own motion
seed and using only public protocol messages: ``RegisterReq`` per
object, one ``UpdateBatchReq`` envelope per destination leaf per tick
(fresh-id resends on timeout via
:meth:`~repro.runtime.base.Endpoint.ask`, and the simulated lane's
per-item rounds for unacknowledged items via
:func:`~repro.core.service.drive_item_rounds`), and a final
``PosQueryReq`` sweep that proves zero lost sightings end to end.

:data:`RUNTIMES` is the table of runtimes a workload is driven on, one
row each:

* ``"asyncio"`` — every server on one in-process
  :class:`~repro.runtime.asyncio_rt.AsyncioNetwork`;
* ``"udp"`` — one :class:`~repro.net.udp.UdpTransport` per server plus
  one for the driver, all in this process;
* ``"processes"`` — a :class:`~repro.net.bootstrap.ClusterLauncher`:
  one OS process per server, over UDP.

:func:`run_lane` stands a row's cluster up, drives the workload and adds
one payload tail (tracked total, duplicated sightings, fault and defense
counters, stored-defect sweep) — the same keys on every row.  Adding a
runtime, a fault rule or a loss rate to a lane is data: a row, or a
:func:`run_lane` argument.

:func:`socket_benchmark_payload` is the ``BENCH_PR7.json`` body: both
scenarios on the asyncio row (one interpreter) vs. the processes row,
plus a lossy-UDP lane showing retries recover every sighting.  The
byzantine lanes of ``BENCH_PR9.json`` (:mod:`repro.sim.byzantine`) are
the asyncio and udp rows under an adversary.
"""

from __future__ import annotations

import asyncio
import random
import time
from functools import partial

from repro.chaos.faults import FaultInjector, LinkFaults
from repro.core import messages as m
from repro.core.hierarchy import Hierarchy, build_table2_hierarchy
from repro.core.service import Reporter, drive_item_rounds
from repro.model import SightingRecord
from repro.net.address import AddressBook
from repro.net.bootstrap import DEFENSE_COUNTERS, ClusterLauncher, node_server
from repro.net.udp import UdpTransport
from repro.runtime.asyncio_rt import AsyncioNetwork
from repro.runtime.validation import find_defect

__all__ = [
    "DEFENSE_COUNTERS",
    "FAULT_COUNTERS",
    "RUNTIMES",
    "drive_workload",
    "fault_counters",
    "run_lane",
    "socket_benchmark_payload",
    "stored_defects",
]


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
            res = await reporter.ask(
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
                # can still lose the next request.  That is why this step
                # is not protocol_sender, whose later rounds get
                # drive_item_rounds' budget of 0 retries.
                return reporter.ask(
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
            res = await reporter.ask(
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
# The runtime table
# ---------------------------------------------------------------------------
#
# A row stands the cluster up, awaits ``drive(join)`` and returns the
# payload, the NetworkStats of every runtime in this process, and a census
# only the row can take.  ``faults`` arms every runtime in this process
# with a FaultInjector rule on every link; ``drop_rate`` is socket loss.

_INJECTOR_SEED = 7919  # injector seeds are seed * 7919 + transport index
_DRIVER_INDEX = 4096  # the driver socket's transport index

#: The counters every lane reports: the injector's firings and the
#: defenses that caught them.
FAULT_COUNTERS = ("faults_injected", *DEFENSE_COUNTERS)


def fault_counters(stats_list) -> dict[str, int]:
    """:data:`FAULT_COUNTERS` summed over ``NetworkStats``."""
    return {name: sum(getattr(s, name) for s in stats_list) for name in FAULT_COUNTERS}


def stored_defects(servers) -> int:
    """Stored sightings that fail the receive path's own
    :func:`~repro.runtime.validation.find_defect`: the post-run proof
    that corruption never reached storage."""
    leaves = [server for server in servers if server.is_leaf]
    records = (record for leaf in leaves for record in leaf.store.sightings.records())
    return sum(find_defect(record) is not None for record in records)


def _census(servers) -> dict:
    return {
        "processes": 1,
        "tracked_total": sum(len(s.store.sightings) for s in servers if s.is_leaf),
        "corrupted_accepted": stored_defects(servers),
    }


def _arm(runtime, faults, seed: int) -> None:
    if faults is not None:
        FaultInjector(runtime, seed=seed).set_link("*", "*", faults)


async def _asyncio_row(hierarchy, drive, faults, drop_rate, seed):
    """Every server on one in-process :class:`AsyncioNetwork`."""
    if drop_rate:
        raise ValueError("the asyncio runtime has no drop rate; use faults")
    network = AsyncioNetwork()
    servers = [
        network.join(node_server(hierarchy, server_id))
        for server_id in hierarchy.server_ids()
    ]
    _arm(network, faults, seed)
    payload = await drive(network.join)
    # Every wait a handler parks has a deadline, so the settle ends.
    await network.quiesce()
    return payload, [network.stats], _census(servers)


async def _udp_row(hierarchy, drive, faults, drop_rate, seed):
    """One :class:`UdpTransport` (one socket) per server plus one for the
    driver, all in this process: every hop is a real datagram through the
    wire codec, so injected corruption lands on frame *bytes*."""
    book = AddressBook()
    transports: list[UdpTransport] = []

    async def start(index: int) -> UdpTransport:
        transport = UdpTransport(book=book, drop_rate=drop_rate, seed=seed + index)
        _arm(transport, faults, seed * _INJECTOR_SEED + index)
        await transport.start()
        transports.append(transport)
        return transport

    try:
        servers = []
        for index, server_id in enumerate(hierarchy.server_ids()):
            transport = await start(index)
            servers.append(transport.join(node_server(hierarchy, server_id)))
            book.bind(server_id, transport.host, transport.port)
        driver = await start(_DRIVER_INDEX)
        # Driver-side endpoints are created dynamically; server replies
        # resolve to the driver socket via the fallback.
        book.fallback = (driver.host, driver.port)
        payload = await drive(driver.join)
        return payload, [t.stats for t in transports], _census(servers)
    finally:
        for transport in transports:
            await transport.stop()


async def _processes_row(hierarchy, drive, faults, drop_rate, seed):
    """A :class:`ClusterLauncher`: every server in its own OS process,
    over UDP."""
    if faults is not None:
        raise ValueError("node processes run no fault injector; use drop_rate")
    launcher = ClusterLauncher(hierarchy, drop_rate=drop_rate, seed=seed)
    await launcher.start()
    try:
        payload = await drive(launcher.join)
        census = {
            "processes": len(launcher.order),
            # The driver-side sweep proved every object answerable; this
            # proves none is tracked twice or zero times cluster-side.
            "tracked_total": await launcher.total_tracked(),
            "corrupted_accepted": None,  # the stores are in other processes
            **await launcher.defense_totals(),
        }
        return payload, [launcher.transport.stats], census
    finally:
        await launcher.stop()


#: Runtime name → row.  Adding a runtime is adding a row.
RUNTIMES = {
    "asyncio": _asyncio_row,
    "udp": _udp_row,
    "processes": _processes_row,
}


def run_lane(
    workload,
    runtime: str,
    *,
    faults: LinkFaults | None = None,
    epoch: int = 0,
    drop_rate: float = 0.0,
    timeout: float = 2.0,
    retries: int = 8,
    sub_timeout: float | None = None,
    seed: int = 0,
) -> dict:
    """Drive ``workload`` over the Fig.-8 testbed at topology ``epoch`` on
    the :data:`RUNTIMES` row ``runtime``.

    Returns :func:`drive_workload`'s payload plus one tail, the same keys
    on every row: ``transport`` (the row), ``processes``, ``drop_rate``,
    ``driver_messages_sent`` / ``driver_messages_dropped`` (counted by
    the runtimes in the driver's process), ``tracked_total``,
    ``duplicated_sightings``, ``corrupted_accepted`` (``None`` where the
    servers run in other processes) and :data:`FAULT_COUNTERS` (summed
    over this process's runtimes and the node processes).
    """
    hierarchy = Hierarchy(build_table2_hierarchy().configs, epoch=epoch)
    drive = partial(
        drive_workload, workload, hierarchy,
        timeout=timeout, retries=retries, sub_timeout=sub_timeout,
    )
    payload, stats, census = asyncio.run(
        RUNTIMES[runtime](hierarchy, drive, faults, drop_rate, seed)
    )
    counters = fault_counters(stats)
    for name in DEFENSE_COUNTERS:  # plus the node processes' own
        counters[name] += census.pop(name, 0)
    payload.update(
        transport=runtime,
        processes=census["processes"],
        drop_rate=drop_rate,
        driver_messages_sent=sum(s.messages_sent for s in stats),
        driver_messages_dropped=sum(s.messages_dropped for s in stats),
        tracked_total=census["tracked_total"],
        duplicated_sightings=max(0, census["tracked_total"] - payload["registered"]),
        corrupted_accepted=census["corrupted_accepted"],
        **counters,
    )
    return payload


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
      retry storm, not the expected constant factor).  A collapsed lane
      reads 0.0 and counts.
    """
    from repro.sim.elastic import commuter_rush_workload, festival_surge_workload

    workloads = {
        "festival_surge": festival_surge_workload(300, 10, seed),
        "commuter_rush": commuter_rush_workload(300, 10, seed),
    }
    scenarios: dict[str, dict] = {}
    for name, workload in workloads.items():
        in_process = run_lane(workload, "asyncio")
        multi_process = run_lane(workload, "processes", seed=seed)
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

    loss_lane = run_lane(
        commuter_rush_workload(120, 6, seed),
        "processes",
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
        s["throughput_ratio"]
        for s in scenarios.values()
        if s["throughput_ratio"] is not None
    ]
    return {
        "bench": "real-transport lane: sockets vs in-process (smoke)",
        "scenarios": scenarios,
        "udp_loss": loss_lane,
        "lanes_lost": lanes_lost,
        "zero_lost_all_lanes": all(v == 0 for v in lanes_lost.values()),
        "min_throughput_ratio": min(ratios) if ratios else None,
    }

"""Byzantine-grade traffic lanes: corrupted and stale messages, defended.

PR 9's acceptance artifact (``BENCH_PR9.json``) proves the receive-path
hardening end to end on **all three runtimes** behind the ``Context``
contract:

* :func:`run_sim_byzantine_lane` — the table-2 service on
  :class:`~repro.runtime.simnet.SimNetwork` (virtual time), driven by
  the elastic harness's envelope lane.
* :func:`run_asyncio_byzantine_lane` — the same hierarchy on
  :class:`~repro.runtime.asyncio_rt.AsyncioNetwork`, driven through the
  public protocol by :func:`repro.net.scenario.drive_workload`.
* :func:`run_udp_byzantine_lane` — one :class:`~repro.net.udp.
  UdpTransport` **per server** in one process, so every inter-server and
  driver↔server message is a real datagram: corruption lands on encoded
  frame *bytes* and must be caught by the wire codec's CRC32 /
  resynchronising :class:`~repro.net.wire.FrameDecoder` before the
  message-layer validator ever sees it.

Every lane runs under the same adversary — a wildcard
:class:`~repro.chaos.LinkFaults` rule corrupting
:data:`CORRUPT_RATE` of traffic and replaying :data:`STALE_EPOCH_RATE`
of epoch-stamped messages with an ancient epoch — and must finish with:

* **zero corrupted-accepted**: no stored record fails
  :func:`~repro.runtime.validation.find_defect` post-run (damage never
  reached storage);
* **zero lost / zero duplicated sightings**: quarantine degrades to the
  retry path, never to silent loss, and a rejected stale replay is
  never applied twice;
* **a non-vacuous defense**: faults actually fired and at least one
  frame/message was caught (``frames_corrupted`` +
  ``messages_quarantined`` + ``stale_epoch_rejected`` > 0).

The topology epoch is aged to :data:`AGED_EPOCH` before traffic flows
so a replay rewound by :attr:`~repro.chaos.FaultInjector.
stale_epoch_skew` is *outside* the legitimate in-flight window
(``_EPOCH_REJECT_HORIZON``) the forwarding machinery heals — rejected,
not healed.

:func:`byzantine_benchmark_payload` folds the three lanes plus the
root-partition promotion scenario
(:func:`repro.sim.chaos.root_partition_scenario`) into the artifact
gated by ``scripts/bench_check.py``.
"""

from __future__ import annotations

import asyncio

from repro.chaos import FaultInjector, LinkFaults
from repro.core.hierarchy import build_table2_hierarchy
from repro.errors import TransportError
from repro.runtime.validation import find_defect
from repro.sim.chaos import _FaultRun, root_partition_scenario
from repro.sim.elastic import DT, ROOT_SIDE, _aged, commuter_rush_workload

__all__ = [
    "AGED_EPOCH",
    "CORRUPT_RATE",
    "STALE_EPOCH_RATE",
    "byzantine_benchmark_payload",
    "byzantine_rule",
    "run_asyncio_byzantine_lane",
    "run_sim_byzantine_lane",
    "run_udp_byzantine_lane",
]

#: Share of traffic the adversary damages (frames on socket transports,
#: message fields on the in-process runtimes).
CORRUPT_RATE = 0.02

#: Share of epoch-stamped messages echoed back with an ancient epoch.
STALE_EPOCH_RATE = 0.02

#: Topology epoch every lane ages to before traffic flows.  A replay is
#: rewound toward 0 (``FaultInjector.stale_epoch_skew``), so with the
#: receiver at epoch 3 the gap exceeds the server's two-epoch heal
#: horizon and the replay *must* be rejected — at epoch 0 the rewind
#: would saturate at 0 and the adversary would be a no-op.
AGED_EPOCH = 3


def byzantine_rule() -> LinkFaults:
    """The adversary every lane runs under."""
    return LinkFaults(corrupt_rate=CORRUPT_RATE, stale_epoch_rate=STALE_EPOCH_RATE)


def _poison_everywhere(injector: FaultInjector) -> None:
    injector.set_link("*", "*", byzantine_rule())


def _stored_defects(servers) -> int:
    """Stored sightings that carry validator-detectable damage.

    The defense claim is *negative* — corruption must never be accepted
    — so the proof is a post-run sweep of every leaf's store with the
    same :func:`find_defect` the receive path uses.
    """
    bad = 0
    for server in servers:
        store = getattr(server, "store", None)
        if store is None:
            continue
        for record in store.sightings.records():
            if find_defect(record) is not None:
                bad += 1
    return bad


def _defense_counters(stats_list) -> dict:
    return {
        "faults_injected": sum(s.faults_injected for s in stats_list),
        "frames_corrupted": sum(s.frames_corrupted for s in stats_list),
        "messages_quarantined": sum(s.messages_quarantined for s in stats_list),
        "stale_epoch_rejected": sum(s.stale_epoch_rejected for s in stats_list),
    }


# ---------------------------------------------------------------------------
# Lane 1 — SimNetwork (virtual time, elastic harness envelopes)
# ---------------------------------------------------------------------------


def run_sim_byzantine_lane(objects: int = 200, ticks: int = 8, seed: int = 0) -> dict:
    """Corrupt + stale traffic on the simulated runtime.

    Faults stay live through the whole run *including* the final
    invariant sweep (which reads server state directly, so the sweep
    itself cannot be poisoned): a quarantined envelope NACKs and the
    device's next tick re-reports, exactly the drop-recovery path.
    """
    run = _FaultRun(objects, seed, "bz", caches=True, epoch=AGED_EPOCH, radius=60.0)
    _poison_everywhere(run.injector)

    def report(reports) -> int:
        try:
            run.bounded(reports)
        except TransportError:
            # An envelope burned its whole retry budget against the
            # adversary; the objects re-report next tick.
            return 1
        return 0

    envelope_failures = sum(run.tick(report) for _ in range(ticks))
    return {
        "transport": "sim",
        "objects": objects,
        "ticks": ticks,
        "dt_s": DT,
        "reports": objects * ticks,
        "corrupt_rate": CORRUPT_RATE,
        "stale_epoch_rate": STALE_EPOCH_RATE,
        "envelope_failures": envelope_failures,
        "corrupted_accepted": _stored_defects(run.svc.servers.values()),
        **run.invariants(),
        **_defense_counters([run.svc.network.stats]),
    }


# ---------------------------------------------------------------------------
# Lanes 2 and 3 — the protocol driver on asyncio and real UDP sockets
# ---------------------------------------------------------------------------


def _finish_driver_lane(payload: dict, servers, stats_list) -> dict:
    """Shared post-run bookkeeping for the drive_workload lanes."""
    tracked = sum(
        len(server.store.sightings) for server in servers if server.is_leaf
    )
    payload["tracked_total"] = tracked
    payload["duplicated_sightings"] = max(0, tracked - payload["registered"])
    payload["corrupted_accepted"] = _stored_defects(servers)
    payload["corrupt_rate"] = CORRUPT_RATE
    payload["stale_epoch_rate"] = STALE_EPOCH_RATE
    payload.update(_defense_counters(stats_list))
    return payload


def run_asyncio_byzantine_lane(
    objects: int = 160, ticks: int = 6, seed: int = 0
) -> dict:
    """Corrupt + stale traffic on the in-process asyncio runtime."""
    from repro.core.server import LocationServer
    from repro.net.scenario import drive_workload
    from repro.runtime.asyncio_rt import AsyncioNetwork

    hierarchy = _aged(build_table2_hierarchy(ROOT_SIDE), AGED_EPOCH)
    workload = commuter_rush_workload(objects=objects, ticks=ticks, seed=seed)

    async def main() -> dict:
        network = AsyncioNetwork()
        servers = []
        for server_id in hierarchy.server_ids():
            server = LocationServer(hierarchy.config(server_id), sighting_ttl=1e9)
            server.topology_epoch = hierarchy.epoch
            network.join(server)
            servers.append(server)
        injector = FaultInjector(network, seed=seed)
        _poison_everywhere(injector)
        payload = await drive_workload(
            workload,
            hierarchy,
            network.join,
            timeout=0.5,
            retries=12,
            sub_timeout=0.4,
        )
        # Every handler that can change a store is bounded by the
        # timeouts above; a position query whose answer the adversary
        # quarantined stays parked at its entry server for good, so the
        # settle is bounded too.
        try:
            await asyncio.wait_for(network.quiesce(), timeout=5.0)
        except asyncio.TimeoutError:
            pass
        payload["transport"] = "asyncio"
        return _finish_driver_lane(payload, servers, [network.stats])

    return asyncio.run(main())


def run_udp_byzantine_lane(objects: int = 120, ticks: int = 6, seed: int = 0) -> dict:
    """Corrupt + stale traffic over real UDP datagrams.

    One transport (one socket) per server in a single process, plus one
    for the driver, sharing an :class:`~repro.net.address.AddressBook`:
    every inter-server hop serializes through the versioned wire codec,
    so the injected corruption damages encoded frame *bytes* and the
    CRC32 / magic-resync machinery is what keeps it out.
    """
    from repro.core.server import LocationServer
    from repro.net.address import AddressBook
    from repro.net.scenario import drive_workload
    from repro.net.udp import UdpTransport

    hierarchy = _aged(build_table2_hierarchy(ROOT_SIDE), AGED_EPOCH)
    workload = commuter_rush_workload(objects=objects, ticks=ticks, seed=seed)

    async def main() -> dict:
        book = AddressBook()
        transports: list[UdpTransport] = []
        servers = []
        try:
            for index, server_id in enumerate(hierarchy.server_ids()):
                transport = UdpTransport(book=book, seed=seed + index)
                _poison_everywhere(FaultInjector(transport, seed=seed * 7919 + index))
                await transport.start()
                server = LocationServer(
                    hierarchy.config(server_id), sighting_ttl=1e9
                )
                server.topology_epoch = hierarchy.epoch
                transport.join(server)
                book.bind(server_id, transport.host, transport.port)
                transports.append(transport)
                servers.append(server)
            driver = UdpTransport(book=book, seed=seed + 4096)
            _poison_everywhere(FaultInjector(driver, seed=seed * 7919 + 4096))
            await driver.start()
            transports.append(driver)
            # Driver-side endpoints (reporter) are created dynamically;
            # server replies resolve to the driver socket via fallback.
            book.fallback = (driver.host, driver.port)
            payload = await drive_workload(
                workload,
                hierarchy,
                driver.join,
                timeout=1.0,
                retries=12,
                sub_timeout=0.4,
            )
            payload["transport"] = "udp"
            payload["sockets"] = len(transports)
            return _finish_driver_lane(
                payload, servers, [t.stats for t in transports]
            )
        finally:
            for transport in transports:
                await transport.stop()

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# Bench payload (BENCH_PR9.json)
# ---------------------------------------------------------------------------


def byzantine_benchmark_payload(seed: int = 0) -> dict:
    """All three byzantine lanes plus the apex-promotion scenario.

    Gated per lane (zero corrupted-accepted, lost and duplicated
    sightings; faults fired and were caught) and on the root-partition
    run (every cross-subtree query answered before the heal, bounded
    reconvergence, nothing lost or duplicated); the thresholds are rows
    of ``scripts/bench_check.py``.
    """
    lanes = {
        "sim": run_sim_byzantine_lane(seed=seed),
        "asyncio": run_asyncio_byzantine_lane(seed=seed),
        "udp": run_udp_byzantine_lane(seed=seed),
    }
    root_partition = root_partition_scenario(seed=seed)
    caught = {
        name: lane["frames_corrupted"]
        + lane["messages_quarantined"]
        + lane["stale_epoch_rejected"]
        for name, lane in lanes.items()
    }
    return {
        "bench": "byzantine hardening: corrupt/stale defense + apex promotion",
        "seed": seed,
        "corrupt_rate": CORRUPT_RATE,
        "stale_epoch_rate": STALE_EPOCH_RATE,
        "aged_epoch": AGED_EPOCH,
        "lanes": lanes,
        "root_partition": root_partition,
        "zero_corrupted_accepted_all_lanes": all(
            lane["corrupted_accepted"] == 0 for lane in lanes.values()
        ),
        "zero_lost_all_lanes": all(
            lane["lost_sightings"] == 0 for lane in lanes.values()
        ),
        "zero_duplicated_all_lanes": all(
            lane["duplicated_sightings"] == 0 for lane in lanes.values()
        ),
        "defense_exercised_all_lanes": all(
            lane["faults_injected"] > 0 and caught[name] > 0
            for name, lane in lanes.items()
        ),
        "defense_catches": caught,
        "total_faults_injected": sum(
            lane["faults_injected"] for lane in lanes.values()
        ),
        "total_quarantined": sum(
            lane["messages_quarantined"] for lane in lanes.values()
        ),
        "total_stale_rejected": sum(
            lane["stale_epoch_rejected"] for lane in lanes.values()
        ),
        "total_frames_corrupted": sum(
            lane["frames_corrupted"] for lane in lanes.values()
        ),
        "root_reconvergence_ticks": root_partition["reconvergence_ticks"],
    }

"""Byzantine-grade traffic lanes: corrupted and stale messages, defended.

PR 9's acceptance artifact (``BENCH_PR9.json``) proves the receive-path
hardening end to end on **all three runtimes** behind the ``Context``
contract:

1. :func:`run_sim_byzantine_lane` — the table-2 service on
   :class:`~repro.runtime.simnet.SimNetwork` (virtual time), driven by
   the elastic harness's envelope lane.
2. The ``"asyncio"`` row of :data:`repro.net.scenario.RUNTIMES` — the
   same hierarchy on :class:`~repro.runtime.asyncio_rt.AsyncioNetwork`,
   driven through the public protocol by
   :func:`repro.net.scenario.run_lane`.
3. The ``"udp"`` row — one :class:`~repro.net.udp.UdpTransport` **per
   server** in one process, so every inter-server and driver↔server
   message is a real datagram: corruption lands on encoded frame
   *bytes* and must be caught by the wire codec's CRC32 /
   resynchronising :class:`~repro.net.wire.FrameDecoder` before the
   message-layer validator ever sees it.

Every lane runs under the same adversary — a wildcard
:class:`~repro.chaos.LinkFaults` rule corrupting
:data:`CORRUPT_RATE` of traffic and replaying :data:`STALE_EPOCH_RATE`
of epoch-stamped messages with an ancient epoch — and must finish with:

* **zero corrupted-accepted**: no stored record fails
  :func:`~repro.runtime.validation.find_defect` post-run
  (:func:`~repro.net.scenario.stored_defects`; damage never reached
  storage);
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

from repro.chaos import LinkFaults
from repro.errors import TransportError
from repro.net.scenario import (
    DEFENSE_COUNTERS,
    fault_counters,
    run_lane,
    stored_defects,
)
from repro.sim.chaos import _FaultRun, root_partition_scenario
from repro.sim.elastic import DT, commuter_rush_workload

__all__ = [
    "AGED_EPOCH",
    "CORRUPT_RATE",
    "STALE_EPOCH_RATE",
    "byzantine_benchmark_payload",
    "byzantine_rule",
    "run_sim_byzantine_lane",
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
    run.injector.set_link("*", "*", byzantine_rule())

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
        "corrupted_accepted": stored_defects(run.svc.servers.values()),
        **run.invariants(),
        **fault_counters([run.svc.network.stats]),
    }


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
    lanes = {"sim": run_sim_byzantine_lane(seed=seed)}
    for runtime, objects, timeout in (("asyncio", 160, 0.5), ("udp", 120, 1.0)):
        lanes[runtime] = {
            **run_lane(
                commuter_rush_workload(objects, 6, seed),
                runtime,
                faults=byzantine_rule(),
                epoch=AGED_EPOCH,
                timeout=timeout,
                retries=12,
                sub_timeout=0.4,
                seed=seed,
            ),
            "corrupt_rate": CORRUPT_RATE,
            "stale_epoch_rate": STALE_EPOCH_RATE,
        }
    root_partition = root_partition_scenario(seed=seed)
    caught = {
        name: sum(lane[d] for d in DEFENSE_COUNTERS) for name, lane in lanes.items()
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

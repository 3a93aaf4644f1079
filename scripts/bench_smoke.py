#!/usr/bin/env python
"""Quick perf smoke — refreshes every ``BENCH_PR*.json`` artifact.

The tier-1 test suite never runs benchmarks (bench files do not match
pytest's default collection), and the full pytest-benchmark suite takes
minutes.  This script is the middle ground:

* **PR1** — the small-displacement update measurement of
  ``bench_spatial_index.py`` plus one batched
  :class:`~repro.sim.scenario.MobilitySimulation` tick measure per index
  kind in ``bench_spatial_index.INDEX_KINDS`` → ``BENCH_PR1.json``.
  (The committed file's ``grid`` / ``rtree`` rows are frozen numbers
  from before those index kinds were deleted; a refresh drops them.)
* **PR2** — the hotspot-rebalance measurement: the flash-crowd and
  commuter-rush scenarios run static and elastic, recording before/after
  per-server sustained load, split/merge counts and query latency →
  ``BENCH_PR2.json``.  The acceptance number is
  ``scenarios.flash_crowd.load_drop_factor`` (must be ≥ 2).
* (``BENCH_PR3.json`` is a frozen record of the PR-3 lane comparison;
  its baseline lane was deleted in PR 14, so it is not regenerated.)
* **PR4** — zero-stall elasticity: the festival-surge scenario run with
  phased migrations under sustained churn → ``BENCH_PR4.json``.  The
  acceptance numbers are a ``migration_throughput_ratio`` ≥ 0.8 and
  zero lost sightings with ``consistency_ok``.
* **PR5** — rate-weighted k-way planning: the hot-object-skew scenario
  → ``BENCH_PR5.json``.  The acceptance numbers are
  ``rounds_to_balance_v2`` ≤ 4 (half the 9 rounds of the count-based
  binary planner, frozen in the committed file),
  ``migration_throughput_ratio`` ≥ 0.8 and zero lost sightings.
* **PR6** — the chaos suite: every injected fault class (leaf crash
  mid-tick, partition + heal, a crash in each migration phase) run
  with detection, recovery and reconvergence measured →
  ``BENCH_PR6.json``.  The acceptance numbers are
  ``zero_lost_all_scenarios`` and ``zero_duplicated_all_scenarios``
  (both true), ``max_recovery_ticks`` ≤ 3 and ``reconvergence_ticks``
  ≤ 3.
* **PR7** — the real-transport lane: both acceptance scenarios run
  in-process (asyncio runtime) and multi-process (one OS process per
  server, UDP sockets, versioned wire codec), plus a lossy-UDP lane
  recovered entirely by protocol retries → ``BENCH_PR7.json``.  The
  acceptance numbers are ``zero_lost_all_lanes`` (true — including
  over injected datagram loss) and ``min_throughput_ratio`` ≥ 0.25
  (multi-process reports/s must not collapse vs. in-process; the
  processes pay real serialization + syscalls, so the gate catches a
  retry storm, not the expected constant factor).
* **PR9** — the byzantine suite: 2% frame corruption + 2% stale-epoch
  replay on all three runtimes (SimNetwork, asyncio, real UDP sockets)
  plus the root-partition apex-promotion scenario →
  ``BENCH_PR9.json``.  The acceptance numbers are
  ``zero_corrupted_accepted_all_lanes``, ``zero_lost_all_lanes`` and
  ``zero_duplicated_all_lanes`` (all true),
  ``defense_exercised_all_lanes`` (the adversary was real and caught),
  and ``root_reconvergence_ticks`` ≤ 5.
* **PR10** — the columnar hot path: twin seeded populations through
  the columnar and object store backends, measuring tick throughput
  and cross-checking query answers exactly → ``BENCH_PR10.json``.
  The acceptance numbers are ``objects`` ≥ 10^6, ``tick_speedup`` ≥ 5
  (per-object-normalized), ``answers_identical`` and
  ``load_monitor_bounded`` (both true).
* **PR16** — wire v3 under the microscope: one 100-sighting
  ``UpdateBatchReq`` and its ``UpdateBatchRes`` through ``encode_frame``
  / ``FrameDecoder.feed`` / ``find_defect`` → ``BENCH_PR16.json``.  The
  microsecond figures *explain* the BENCH_E2E layer table and are not
  gated (they move with the machine); the acceptance number is the one
  that repeats exactly: ``bytes_per_sighting`` ≤ 48 (110 with the v2
  text body).

After every runner the freshly written artifact is re-loaded and its
acceptance keys are validated: a missing key or a NaN/Inf value makes
the script exit non-zero instead of silently writing a payload the
``bench_check.py`` gate would later trip over (or worse, miss — JSON
``NaN`` survives a round-trip through Python's parser).

Usage::

    python scripts/bench_smoke.py               # defaults, a few seconds
    python scripts/bench_smoke.py --objects 2000 --moves 2000 --rounds 2
    python scripts/bench_smoke.py --skip-pr1    # only the scenario benches
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "src"))

import bench_spatial_index as bsi  # noqa: E402  (path set up above)
from benchreport import write_bench_json  # noqa: E402
from repro.sim.scenario import MobilitySimulation  # noqa: E402


def measure_tick(kind: str, objects: int, ticks: int, dt: float = 2.0) -> float:
    """Updates/s through the full batched sim tick (walkers + store)."""
    sim = MobilitySimulation.table1(object_count=objects, index_kind=kind, seed=5)
    sim.tick(dt)  # warm up caches and walker state
    start = time.perf_counter()
    sim.run(ticks, dt=dt)
    elapsed = time.perf_counter() - start
    return objects * ticks / elapsed


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return parsed


def run_pr1(args) -> None:
    bsi.OBJECTS = args.objects
    bsi.FASTPATH_MOVES = args.moves

    header = f"{'index':10s} {'remove+insert':>14s} {'update':>12s} {'update_many':>12s} {'speedup':>8s} {'sim tick':>12s}"
    print(header)
    print("-" * len(header))
    indexes = {}
    for kind in bsi.INDEX_KINDS:
        row, best_ratio = bsi.measure_fastpath(kind, rounds=args.rounds)
        tick_rate = measure_tick(kind, objects=args.objects, ticks=args.ticks)
        print(
            f"{kind:10s} {row['baseline_remove_insert']:>12,.0f}/s "
            f"{row['update']:>10,.0f}/s {row['update_many']:>10,.0f}/s "
            f"{best_ratio:>7.2f}x {tick_rate:>10,.0f}/s"
        )
        indexes[kind] = {
            "updates_per_s": row,
            "speedup_vs_baseline": {
                "update": row["update"] / row["baseline_remove_insert"],
                "update_many": row["update_many"] / row["baseline_remove_insert"],
            },
            "sim_tick_updates_per_s": tick_rate,
        }

    path = write_bench_json(
        args.out,
        {
            "bench": "spatial-index update fast paths + batch pipeline (smoke)",
            "generated_by": "scripts/bench_smoke.py",
            "workload": {
                "objects": args.objects,
                "area_side_m": bsi.AREA_SIDE,
                "moves": args.moves,
                "displacement_m": bsi.DISPLACEMENT_M,
                "batch_size": bsi.FASTPATH_BATCH,
                "sim_ticks": args.ticks,
            },
            "indexes": indexes,
        },
    )
    print(f"\nwrote {path}")


def run_pr2(args) -> None:
    """The hotspot-rebalance measurement (elastic cluster layer)."""
    from repro.sim.elastic import elastic_benchmark_payload

    start = time.perf_counter()
    payload = elastic_benchmark_payload(seed=args.seed)
    payload["generated_by"] = "scripts/bench_smoke.py"
    elapsed = time.perf_counter() - start

    header = f"{'scenario':16s} {'static max':>12s} {'elastic max':>12s} {'drop':>7s} {'splits':>7s} {'merges':>7s} {'lost':>5s}"
    print(header)
    print("-" * len(header))
    for name, result in payload["scenarios"].items():
        static = result["static"]
        elastic = result["elastic"]
        print(
            f"{name:16s} {static['max_sustained_load_ops_per_s']:>10,.0f}/s "
            f"{elastic['max_sustained_load_ops_per_s']:>10,.0f}/s "
            f"{result['load_drop_factor']:>6.2f}x "
            f"{elastic['splits']:>7d} {elastic['merges']:>7d} "
            f"{elastic['invariants']['lost_sightings']:>5d}"
        )
    path = write_bench_json(args.out_pr2, payload)
    print(f"\nwrote {path} ({elapsed:.1f}s)")


def run_pr4(args) -> None:
    """The zero-stall measurement (phased migration under churn)."""
    from repro.sim.elastic import zero_stall_benchmark_payload

    start = time.perf_counter()
    payload = zero_stall_benchmark_payload(seed=args.seed)
    payload["generated_by"] = "scripts/bench_smoke.py"
    elapsed = time.perf_counter() - start

    header = (
        f"{'lane':12s} {'mig ticks':>10s} {'mig/steady':>11s} {'chunk':>6s} "
        f"{'splits':>7s} {'merges':>7s} {'epoch':>6s} {'invals':>7s} {'lost':>5s}"
    )
    print(header)
    print("-" * len(header))
    for lane, result in payload["lanes"].items():
        ratio = result["migration_throughput_ratio"]
        print(
            f"{lane:12s} {result['migration_tick_count']:>10d} "
            f"{ratio if ratio is not None else float('nan'):>11.3f} "
            f"{result['copy_chunk_final']:>6d} "
            f"{result['splits']:>7d} {result['merges']:>7d} "
            f"{result['topology_epoch']:>6d} "
            f"{result['invalidations_sent']:>7d} "
            f"{result['invariants']['lost_sightings']:>5d}"
        )
    print(f"migration throughput ratio: {payload['migration_throughput_ratio']}")
    path = write_bench_json(args.out_pr4, payload)
    print(f"\nwrote {path} ({elapsed:.1f}s)")


def run_pr5(args) -> None:
    """The rate-weighted k-way planning measurement (rounds to balance)."""
    from repro.sim.elastic import planner_v2_benchmark_payload

    start = time.perf_counter()
    payload = planner_v2_benchmark_payload(seed=args.seed)
    payload["generated_by"] = "scripts/bench_smoke.py"
    elapsed = time.perf_counter() - start

    header = (
        f"{'lane':16s} {'rounds':>7s} {'splits':>7s} {'mig/steady':>11s} "
        f"{'leaves':>7s} {'chunk':>6s} {'lost':>5s}"
    )
    print(header)
    print("-" * len(header))
    for lane, result in payload["lanes"].items():
        ratio = result["migration_throughput_ratio"]
        print(
            f"{lane:16s} {result['rounds_to_balance']:>7d} "
            f"{result['splits']:>7d} "
            f"{ratio if ratio is not None else float('nan'):>11.3f} "
            f"{result['leaf_count_final']:>7d} "
            f"{result['copy_chunk_final']:>6d} "
            f"{result['invariants']['lost_sightings']:>5d}"
        )
    print(
        f"rounds to balance: {payload['rounds_to_balance_v2']}, "
        f"migration throughput ratio: {payload['migration_throughput_ratio']}"
    )
    path = write_bench_json(args.out_pr5, payload)
    print(f"\nwrote {path} ({elapsed:.1f}s)")


def run_pr6(args) -> None:
    """The chaos-suite measurement (fault injection + exact recovery)."""
    from repro.sim.chaos import chaos_benchmark_payload

    start = time.perf_counter()
    payload = chaos_benchmark_payload(seed=args.seed)
    payload["generated_by"] = "scripts/bench_smoke.py"
    elapsed = time.perf_counter() - start

    header = (
        f"{'scenario':28s} {'faults':>7s} {'detect':>8s} {'rec ticks':>10s} "
        f"{'replayed':>9s} {'lost':>5s} {'dup':>4s} {'epoch':>6s}"
    )
    print(header)
    print("-" * len(header))
    for name, result in payload["scenarios"].items():
        detection = result.get("detection")
        detect = "-" if detection is None else "{0:.2f}s".format(detection["time_s"])
        print(
            f"{name:28s} {result['faults_injected']:>7d} "
            f"{detect:>8s} "
            f"{str(result.get('recovery_ticks', '-')):>10s} "
            f"{str(result.get('replayed_records', '-')):>9s} "
            f"{result['lost_sightings']:>5d} "
            f"{result['duplicated_sightings']:>4d} "
            f"{result['topology_epoch']:>6d}"
        )
    print(
        f"zero lost: {payload['zero_lost_all_scenarios']}, "
        f"zero duplicated: {payload['zero_duplicated_all_scenarios']}, "
        f"max recovery ticks: {payload['max_recovery_ticks']}, "
        f"reconvergence ticks: {payload['reconvergence_ticks']}, "
        f"cache staleness ticks: {payload['cache_staleness_ticks']}"
    )
    path = write_bench_json(args.out_pr6, payload)
    print(f"\nwrote {path} ({elapsed:.1f}s)")


def run_pr7(args) -> None:
    """The real-transport measurement (in-process vs. multi-process)."""
    from repro.net.scenario import socket_benchmark_payload

    start = time.perf_counter()
    payload = socket_benchmark_payload(seed=args.seed)
    payload["bench"] = "real-transport lane: sockets vs in-process (smoke)"
    payload["generated_by"] = "scripts/bench_smoke.py"
    elapsed = time.perf_counter() - start

    header = (
        f"{'scenario':16s} {'in-proc rep/s':>14s} {'multi-proc rep/s':>17s} "
        f"{'ratio':>6s} {'procs':>6s} {'lost':>5s}"
    )
    print(header)
    print("-" * len(header))
    for name, result in payload["scenarios"].items():
        print(
            f"{name:16s} {result['in_process']['reports_per_s']:>12,.0f}/s "
            f"{result['multi_process']['reports_per_s']:>15,.0f}/s "
            f"{result['throughput_ratio']:>6.2f} "
            f"{result['multi_process']['processes']:>6d} "
            f"{result['multi_process']['lost_sightings']:>5d}"
        )
    loss = payload["udp_loss"]
    print(
        f"{'udp_loss':16s} {'-':>13s}  {loss['reports_per_s']:>15,.0f}/s "
        f"{'-':>6s} {loss['processes']:>6d} {loss['lost_sightings']:>5d} "
        f"(driver drops: {loss['driver_messages_dropped']})"
    )
    print(
        f"zero lost (all lanes): {payload['zero_lost_all_lanes']}, "
        f"min throughput ratio: {payload['min_throughput_ratio']}"
    )
    path = write_bench_json(args.out_pr7, payload)
    print(f"\nwrote {path} ({elapsed:.1f}s)")


def run_pr9(args) -> None:
    """The byzantine measurement (corrupt/stale defense + promotion)."""
    from repro.sim.byzantine import byzantine_benchmark_payload

    start = time.perf_counter()
    payload = byzantine_benchmark_payload(seed=args.seed)
    payload["generated_by"] = "scripts/bench_smoke.py"
    elapsed = time.perf_counter() - start

    header = (
        f"{'lane':8s} {'faults':>7s} {'frames':>7s} {'quar':>5s} {'stale':>6s} "
        f"{'bad acc':>8s} {'lost':>5s} {'dup':>4s}"
    )
    print(header)
    print("-" * len(header))
    for name, lane in payload["lanes"].items():
        print(
            f"{name:8s} {lane['faults_injected']:>7d} "
            f"{lane['frames_corrupted']:>7d} "
            f"{lane['messages_quarantined']:>5d} "
            f"{lane['stale_epoch_rejected']:>6d} "
            f"{lane['corrupted_accepted']:>8d} "
            f"{lane['lost_sightings']:>5d} "
            f"{lane['duplicated_sightings']:>4d}"
        )
    rp = payload["root_partition"]
    print(
        f"root partition: reconvergence {rp['reconvergence_ticks']} ticks, "
        f"cross queries before heal "
        f"{rp['cross_queries_answered_before_heal']}/{rp['cross_queries_before_heal']}, "
        f"lost {rp['lost_sightings']}, dup {rp['duplicated_sightings']}"
    )
    print(
        f"zero corrupted accepted: {payload['zero_corrupted_accepted_all_lanes']}, "
        f"zero lost: {payload['zero_lost_all_lanes']}, "
        f"zero duplicated: {payload['zero_duplicated_all_lanes']}, "
        f"defense exercised: {payload['defense_exercised_all_lanes']}"
    )
    path = write_bench_json(args.out_pr9, payload)
    print(f"\nwrote {path} ({elapsed:.1f}s)")


def run_pr10(args) -> None:
    """The columnar-hot-path measurement (vectorized vs object store)."""
    from repro.sim.columnar import columnar_benchmark_payload

    start = time.perf_counter()
    payload = columnar_benchmark_payload(
        objects=args.pr10_objects, ticks=args.pr10_ticks, seed=args.seed
    )
    payload["bench"] = "columnar hot path: 1M-object tick vs object backend"
    payload["generated_by"] = "scripts/bench_smoke.py"
    elapsed = time.perf_counter() - start

    header = f"{'backend':10s} {'objects':>11s} {'tick wall':>11s} {'updates/s':>14s}"
    print(header)
    print("-" * len(header))
    print(
        f"{'columnar':10s} {payload['objects']:>11,d} "
        f"{payload['columnar']['seconds_per_tick'] * 1e3:>8,.0f} ms "
        f"{payload['columnar']['updates_per_second']:>12,.0f}/s"
    )
    print(
        f"{'objects':10s} {payload['baseline_objects']:>11,d} "
        f"{payload['object_baseline']['seconds_per_tick'] * 1e3:>8,.0f} ms "
        f"{payload['object_baseline']['updates_per_second']:>12,.0f}/s"
    )
    print(
        f"tick speedup: {payload['tick_speedup']:.1f}x, "
        f"answers identical: {payload['answers_identical']}, "
        f"monitor bounded: {payload['load_monitor_bounded']}, "
        f"store memory: {payload['columnar']['store_memory_bytes'] / 1e6:,.1f} MB"
    )
    path = write_bench_json(args.out_pr10, payload)
    print(f"\nwrote {path} ({elapsed:.1f}s)")


def run_pr16(args) -> None:
    """The wire-v3 envelope microbench (an explanation, gated on bytes)."""
    from repro.core import messages as m
    from repro.geo import Point
    from repro.model import SightingRecord
    from repro.net.wire import FrameDecoder, encode_frame
    from repro.runtime.validation import find_defect

    def best_us(fn, repeats: int = 5, loops: int = 300) -> float:
        best = float("inf")
        for _ in range(repeats):
            begin = time.perf_counter()
            for _ in range(loops):
                fn()
            best = min(best, (time.perf_counter() - begin) / loops)
        return round(best * 1e6, 1)

    start = time.perf_counter()
    count = 100
    sightings = tuple(
        SightingRecord(f"o{7000 + i}", 12.5 + i, Point(31.25 * i, 1400.0 - 7.5 * i), 10.0)
        for i in range(count)
    )
    req = m.UpdateBatchReq("driver-0:17", "driver-0", sightings, epoch=3, sub_timeout=2.0)
    res = m.UpdateBatchRes(
        req.request_id,
        tuple(m.UpdateOutcome(s.object_id, True, "root.2", 25.0) for s in sightings),
    )
    payload = {
        "bench": "wire v3: one 100-sighting update envelope, request and response",
        "generated_by": "scripts/bench_smoke.py",
        "sightings": count,
    }
    for name, message in (("request", req), ("response", res)):
        frame = encode_frame("driver-0", "root.2", [message])
        ((_, _, (decoded,)),) = FrameDecoder().feed(frame)
        assert decoded == message
        payload[name] = {
            "frame_bytes": len(frame),
            "encode_us": best_us(lambda: encode_frame("driver-0", "root.2", [message])),
            "decode_us": best_us(lambda: FrameDecoder().feed(frame)),
            "find_defect_us": best_us(lambda: find_defect(message)),
        }
    payload["bytes_per_sighting"] = round(payload["request"]["frame_bytes"] / count, 2)
    elapsed = time.perf_counter() - start

    print(f"{'message':10s} {'bytes':>7s} {'encode':>10s} {'decode':>10s} {'find_defect':>12s}")
    for name in ("request", "response"):
        row = payload[name]
        print(
            f"{name:10s} {row['frame_bytes']:>7d} {row['encode_us']:>7.1f} us "
            f"{row['decode_us']:>7.1f} us {row['find_defect_us']:>9.1f} us"
        )
    print(f"bytes per sighting: {payload['bytes_per_sighting']}")
    path = write_bench_json(args.out_pr16, payload)
    print(f"\nwrote {path} ({elapsed:.1f}s)")


#: Per-runner acceptance keys (dotted paths into the written payload).
#: These are the numbers scripts/bench_check.py gates on; a runner that
#: writes an artifact where any of them is missing or NaN/Inf has
#: produced garbage the gate may not catch (e.g. ``NaN >= 2.0`` is just
#: False with no hint why) — so main() fails fast right here instead.
ACCEPTANCE_KEYS: dict[str, tuple[str, ...]] = {
    "out": ("indexes",),
    "out_pr2": ("scenarios.flash_crowd.load_drop_factor",),
    "out_pr4": ("migration_throughput_ratio", "zero_lost_all_lanes"),
    "out_pr5": (
        "rounds_to_balance_v2",
        "migration_throughput_ratio",
        "zero_lost_all_lanes",
    ),
    "out_pr6": (
        "zero_lost_all_scenarios",
        "zero_duplicated_all_scenarios",
        "max_recovery_ticks",
        "reconvergence_ticks",
    ),
    "out_pr7": ("zero_lost_all_lanes", "min_throughput_ratio"),
    "out_pr9": (
        "zero_corrupted_accepted_all_lanes",
        "zero_lost_all_lanes",
        "zero_duplicated_all_lanes",
        "defense_exercised_all_lanes",
        "root_reconvergence_ticks",
    ),
    "out_pr10": (
        "objects",
        "tick_speedup",
        "answers_identical",
        "load_monitor_bounded",
    ),
    "out_pr16": ("bytes_per_sighting", "request.frame_bytes"),
}


def validate_artifact(filename: str, keys: tuple[str, ...]) -> list[str]:
    """Problems with the written artifact's acceptance keys, if any.

    Re-loads the JSON from disk (so what is validated is exactly what CI
    uploads) and walks each dotted key path.  A missing path or a
    non-finite float is a problem; ``None`` passes — several acceptance
    numbers are legitimately nullable and bench_check.py handles that.
    """
    import json
    import math

    from benchreport import ROOT as bench_root

    path = bench_root / filename
    if not path.exists():
        return [f"{filename}: artifact missing after its runner completed"]
    payload = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    for dotted in keys:
        value = payload
        for part in dotted.split("."):
            if not isinstance(value, dict) or part not in value:
                problems.append(f"{filename}: acceptance key {dotted!r} missing")
                value = None
                break
            value = value[part]
        else:
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(
                    f"{filename}: acceptance key {dotted!r} is non-finite ({value})"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=_positive_int, default=bsi.OBJECTS)
    parser.add_argument("--moves", type=_positive_int, default=bsi.FASTPATH_MOVES)
    parser.add_argument("--rounds", type=_positive_int, default=3)
    parser.add_argument(
        "--ticks", type=_positive_int, default=5, help="sim ticks per index kind"
    )
    parser.add_argument("--seed", type=int, default=0, help="rebalance-bench seed")
    parser.add_argument(
        "--pr10-objects",
        type=_positive_int,
        default=1_000_000,
        help="columnar-bench population (acceptance measures at >= 1M)",
    )
    parser.add_argument(
        "--pr10-ticks", type=_positive_int, default=5, help="columnar-bench sim ticks"
    )
    parser.add_argument("--out", default="BENCH_PR1.json")
    parser.add_argument("--out-pr2", default="BENCH_PR2.json")
    parser.add_argument("--out-pr4", default="BENCH_PR4.json")
    parser.add_argument("--out-pr5", default="BENCH_PR5.json")
    parser.add_argument("--out-pr6", default="BENCH_PR6.json")
    parser.add_argument("--out-pr7", default="BENCH_PR7.json")
    parser.add_argument("--out-pr9", default="BENCH_PR9.json")
    parser.add_argument("--out-pr10", default="BENCH_PR10.json")
    parser.add_argument("--out-pr16", default="BENCH_PR16.json")
    parser.add_argument(
        "--skip-pr1", action="store_true", help="skip the fast-path bench"
    )
    parser.add_argument(
        "--skip-pr2", action="store_true", help="skip the rebalance bench"
    )
    parser.add_argument(
        "--skip-pr4", action="store_true", help="skip the zero-stall bench"
    )
    parser.add_argument(
        "--skip-pr5", action="store_true", help="skip the k-way planning bench"
    )
    parser.add_argument(
        "--skip-pr6", action="store_true", help="skip the chaos bench"
    )
    parser.add_argument(
        "--skip-pr7", action="store_true", help="skip the real-transport bench"
    )
    parser.add_argument(
        "--skip-pr9", action="store_true", help="skip the byzantine bench"
    )
    parser.add_argument(
        "--skip-pr10", action="store_true", help="skip the columnar hot-path bench"
    )
    parser.add_argument(
        "--skip-pr16", action="store_true", help="skip the wire-v3 envelope microbench"
    )
    args = parser.parse_args(argv)

    ran = False
    problems: list[str] = []
    for skip, runner, out_attr in (
        (args.skip_pr1, run_pr1, "out"),
        (args.skip_pr2, run_pr2, "out_pr2"),
        (args.skip_pr4, run_pr4, "out_pr4"),
        (args.skip_pr5, run_pr5, "out_pr5"),
        (args.skip_pr6, run_pr6, "out_pr6"),
        (args.skip_pr7, run_pr7, "out_pr7"),
        (args.skip_pr9, run_pr9, "out_pr9"),
        (args.skip_pr10, run_pr10, "out_pr10"),
        (args.skip_pr16, run_pr16, "out_pr16"),
    ):
        if skip:
            continue
        if ran:
            print()
        runner(args)
        ran = True
        problems.extend(
            validate_artifact(getattr(args, out_attr), ACCEPTANCE_KEYS[out_attr])
        )
    if problems:
        print("\nacceptance-key validation FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

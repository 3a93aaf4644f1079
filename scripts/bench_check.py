#!/usr/bin/env python
"""CI perf-regression gate: validate every ``BENCH_*.json`` artifact.

Each bench artifact documents acceptance numbers in its producing
bench's docstring (``benchmarks/bench_*.py``); until now nothing
*checked* them after CI regenerated the artifacts, so a regression in
any number would merge silently.  This script encodes the documented
thresholds and fails (exit code 1) when any regenerated artifact misses
one:

* ``BENCH_PR1.json`` — every spatial index's ``update_many`` fast path
  must beat the remove+insert baseline (speedup > 1).  The committed
  file keeps its ``grid`` / ``rtree`` rows as frozen historical numbers
  (those index kinds were deleted); a regenerated file measures only the
  surviving kinds, and the check covers whichever rows are present.
* ``BENCH_PR2.json`` — flash-crowd ``load_drop_factor`` ≥ 2 and zero
  lost sightings on every elastic lane.
* ``BENCH_PR4.json`` — ``stall_ticks_overlapped`` == 0,
  ``migration_throughput_ratio`` ≥ 0.8, zero lost on all lanes.
* ``BENCH_PR5.json`` — ``round_reduction_ratio`` ≤ 0.5,
  ``migration_throughput_ratio`` ≥ 0.8, zero lost on both lanes.
* ``BENCH_PR6.json`` — zero lost **and** zero duplicated sightings
  after every injected fault class, consistent epochs everywhere,
  ``max_recovery_ticks`` ≤ 3, ``reconvergence_ticks`` ≤ 3.
* ``BENCH_PR7.json`` — zero lost sightings on every real-transport
  lane (in-process, multi-process UDP, and UDP with injected loss),
  and ``min_throughput_ratio`` ≥ 0.25 (the multi-process lane pays
  real serialization + syscalls — the gate catches collapse such as a
  retry storm, not the expected constant factor).
* ``BENCH_PR9.json`` — under 2% frame corruption + 2% stale-epoch
  replay on every runtime (sim, asyncio, real UDP sockets): zero
  corrupted records accepted, zero lost and zero duplicated sightings,
  a non-vacuous defense (faults fired and were caught on every lane),
  and root-partition apex promotion reconverging within 5 ticks with
  every cross-subtree query answered before the heal.
* ``BENCH_PR10.json`` — the columnar hot path measures a population of
  at least 10^6 objects, beats the object backend's per-object tick
  cost by ≥ 5x (``tick_speedup``), returns ``answers_identical`` to
  the object backend on every probed query, and keeps the sketch-mode
  ``LoadMonitor`` footprint bounded (``load_monitor_bounded``).
* ``BENCH_PR16.json`` — a 100-sighting ``UpdateBatchReq`` costs at most
  48 wire bytes per sighting (110 with the v2 text body).  The artifact's
  microsecond figures explain the BENCH_E2E layer table and are not
  gated: only the byte count repeats exactly.

Usage::

    python scripts/bench_check.py            # check repo-root artifacts
    python scripts/bench_check.py --root DIR # check artifacts elsewhere

A missing artifact is a failure too — the gate exists precisely so the
trajectory cannot quietly shrink.
"""

from __future__ import annotations

import argparse
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Check:
    """One named threshold over one artifact's payload."""

    def __init__(self, description: str, probe) -> None:
        self.description = description
        self.probe = probe  # payload -> (ok, observed-value string)

    def run(self, payload: dict) -> tuple[bool, str]:
        try:
            return self.probe(payload)
        except (KeyError, TypeError, IndexError) as exc:
            return False, f"missing field ({exc!r})"


def _threshold(value, ok: bool) -> tuple[bool, str]:
    return ok, str(value)


def _pr1_speedups(payload):
    worst = None
    for name, index in payload["indexes"].items():
        speedup = index["speedup_vs_baseline"]["update_many"]
        if worst is None or speedup < worst[1]:
            worst = (name, speedup)
    return _threshold(
        f"{worst[1]:.2f}x ({worst[0]})", worst is not None and worst[1] > 1.0
    )


def _pr2_lost(payload):
    lost = {
        name: scenario["elastic"]["invariants"]["lost_sightings"]
        for name, scenario in payload["scenarios"].items()
    }
    return _threshold(lost, all(count == 0 for count in lost.values()))


CHECKS: dict[str, list[Check]] = {
    "BENCH_PR1.json": [
        Check("update_many speedup vs remove+insert > 1 (all indexes)", _pr1_speedups),
    ],
    "BENCH_PR2.json": [
        Check(
            "flash_crowd load_drop_factor >= 2",
            lambda p: _threshold(
                p["scenarios"]["flash_crowd"]["load_drop_factor"],
                p["scenarios"]["flash_crowd"]["load_drop_factor"] >= 2.0,
            ),
        ),
        Check("zero lost sightings (all elastic scenarios)", _pr2_lost),
    ],
    "BENCH_PR4.json": [
        Check(
            "stall_ticks_overlapped == 0",
            lambda p: _threshold(
                p["stall_ticks_overlapped"], p["stall_ticks_overlapped"] == 0
            ),
        ),
        Check(
            "migration_throughput_ratio >= 0.8",
            lambda p: _threshold(
                p["migration_throughput_ratio"],
                p["migration_throughput_ratio"] is not None
                and p["migration_throughput_ratio"] >= 0.8,
            ),
        ),
        Check(
            "zero lost sightings + consistency (all lanes)",
            lambda p: _threshold(
                p["zero_lost_all_lanes"], bool(p["zero_lost_all_lanes"])
            ),
        ),
    ],
    "BENCH_PR5.json": [
        Check(
            "round_reduction_ratio <= 0.5 (v2 settles in half the rounds)",
            lambda p: _threshold(
                p["round_reduction_ratio"],
                p["round_reduction_ratio"] is not None
                and p["round_reduction_ratio"] <= 0.5,
            ),
        ),
        Check(
            "v2 migration_throughput_ratio >= 0.8",
            lambda p: _threshold(
                p["migration_throughput_ratio"],
                p["migration_throughput_ratio"] is not None
                and p["migration_throughput_ratio"] >= 0.8,
            ),
        ),
        Check(
            "zero lost sightings + consistency (both lanes)",
            lambda p: _threshold(
                p["zero_lost_all_lanes"], bool(p["zero_lost_all_lanes"])
            ),
        ),
    ],
    "BENCH_PR6.json": [
        Check(
            "zero lost sightings (every injected fault class)",
            lambda p: _threshold(
                {
                    name: result["lost_sightings"]
                    for name, result in p["scenarios"].items()
                },
                bool(p["zero_lost_all_scenarios"]),
            ),
        ),
        Check(
            "zero duplicated sightings (every injected fault class)",
            lambda p: _threshold(
                {
                    name: result["duplicated_sightings"]
                    for name, result in p["scenarios"].items()
                },
                bool(p["zero_duplicated_all_scenarios"]),
            ),
        ),
        Check(
            "consistent topology epoch everywhere after recovery",
            lambda p: _threshold(
                p["epoch_consistent_all_scenarios"],
                bool(p["epoch_consistent_all_scenarios"]),
            ),
        ),
        Check(
            "max_recovery_ticks <= 3",
            lambda p: _threshold(
                p["max_recovery_ticks"],
                p["max_recovery_ticks"] is not None
                and p["max_recovery_ticks"] <= 3,
            ),
        ),
        Check(
            "partition reconvergence_ticks <= 3",
            lambda p: _threshold(
                p["reconvergence_ticks"],
                p["reconvergence_ticks"] is not None
                and p["reconvergence_ticks"] <= 3,
            ),
        ),
    ],
    "BENCH_PR7.json": [
        Check(
            "zero lost sightings (all real-transport lanes, incl. UDP loss)",
            lambda p: _threshold(
                p["lanes_lost"], bool(p["zero_lost_all_lanes"])
            ),
        ),
        Check(
            "multi-process min_throughput_ratio >= 0.25 (no collapse)",
            lambda p: _threshold(
                p["min_throughput_ratio"],
                p["min_throughput_ratio"] is not None
                and p["min_throughput_ratio"] >= 0.25,
            ),
        ),
        Check(
            "udp_loss lane actually lost datagrams (fault was real)",
            lambda p: _threshold(
                p["udp_loss"]["driver_messages_dropped"],
                p["udp_loss"]["driver_messages_dropped"] > 0,
            ),
        ),
    ],
    "BENCH_PR9.json": [
        Check(
            "zero corrupted records accepted (all byzantine lanes)",
            lambda p: _threshold(
                {
                    name: lane["corrupted_accepted"]
                    for name, lane in p["lanes"].items()
                },
                bool(p["zero_corrupted_accepted_all_lanes"]),
            ),
        ),
        Check(
            "zero lost sightings under corruption (all byzantine lanes)",
            lambda p: _threshold(
                {
                    name: lane["lost_sightings"]
                    for name, lane in p["lanes"].items()
                },
                bool(p["zero_lost_all_lanes"]),
            ),
        ),
        Check(
            "zero duplicated sightings under replay (all byzantine lanes)",
            lambda p: _threshold(
                {
                    name: lane["duplicated_sightings"]
                    for name, lane in p["lanes"].items()
                },
                bool(p["zero_duplicated_all_lanes"]),
            ),
        ),
        Check(
            "defense exercised on every lane (faults fired AND were caught)",
            lambda p: _threshold(
                p["defense_catches"], bool(p["defense_exercised_all_lanes"])
            ),
        ),
        Check(
            "root-partition reconvergence_ticks <= 5",
            lambda p: _threshold(
                p["root_reconvergence_ticks"],
                p["root_reconvergence_ticks"] is not None
                and p["root_reconvergence_ticks"] <= 5,
            ),
        ),
        Check(
            "root partition: zero lost + zero duplicated after promotion",
            lambda p: _threshold(
                {
                    "lost": p["root_partition"]["lost_sightings"],
                    "duplicated": p["root_partition"]["duplicated_sightings"],
                },
                p["root_partition"]["lost_sightings"] == 0
                and p["root_partition"]["duplicated_sightings"] == 0,
            ),
        ),
        Check(
            "every cross-subtree query answered before the heal",
            lambda p: _threshold(
                f"{p['root_partition']['cross_queries_answered_before_heal']}"
                f"/{p['root_partition']['cross_queries_before_heal']}",
                p["root_partition"]["cross_queries_before_heal"] > 0
                and p["root_partition"]["cross_queries_answered_before_heal"]
                == p["root_partition"]["cross_queries_before_heal"],
            ),
        ),
    ],
    "BENCH_PR10.json": [
        Check(
            "columnar population >= 1,000,000 objects",
            lambda p: _threshold(p["objects"], p["objects"] >= 1_000_000),
        ),
        Check(
            "tick_speedup >= 5 (per-object, vs object backend)",
            lambda p: _threshold(
                f"{p['tick_speedup']:.1f}x", p["tick_speedup"] >= 5.0
            ),
        ),
        Check(
            "answers identical to the object backend (all probes)",
            lambda p: _threshold(
                p["equivalence"]["mismatches"] or "no mismatches",
                bool(p["answers_identical"]),
            ),
        ),
        Check(
            "sketch-mode LoadMonitor footprint bounded",
            lambda p: _threshold(
                p["load_monitor"], bool(p["load_monitor_bounded"])
            ),
        ),
    ],
    "BENCH_PR16.json": [
        Check(
            "wire bytes per sighting <= 48 (100-sighting UpdateBatchReq)",
            lambda p: _threshold(
                f"{p['bytes_per_sighting']} ({p['request']['frame_bytes']} B frame)",
                p["sightings"] == 100 and p["bytes_per_sighting"] <= 48,
            ),
        ),
    ],
}


def check_artifacts(root: pathlib.Path) -> int:
    """Run every check; prints a table and returns the failure count."""
    failures = 0
    width = max(len(d.description) for checks in CHECKS.values() for d in checks)
    for filename, checks in CHECKS.items():
        path = root / filename
        print(filename)
        if not path.exists():
            print("  MISSING — regenerate with scripts/bench_smoke.py")
            failures += len(checks)
            continue
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"  UNREADABLE — {exc}")
            failures += len(checks)
            continue
        for check in checks:
            ok, observed = check.run(payload)
            status = "ok" if ok else "FAIL"
            print(f"  {status:4s} {check.description:{width}s}  [{observed}]")
            if not ok:
                failures += 1
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=ROOT,
        help="directory holding the BENCH_*.json artifacts (default: repo root)",
    )
    args = parser.parse_args(argv)
    failures = check_artifacts(args.root)
    if failures:
        print(f"\n{failures} bench acceptance check(s) FAILED")
        return 1
    print("\nall bench acceptance checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

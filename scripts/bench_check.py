#!/usr/bin/env python
"""CI perf-regression gate: validate every ``BENCH_PR*.json`` artifact.

:data:`GATES` is the one place an acceptance threshold is written.  A
row is data: a dotted path into one artifact's payload, a comparison
and a threshold.  ``*`` in a path stands for every child of a dict and
must match at least one, so a payload with no lanes fails instead of
passing as ``all([])``.  A row carries a probe callable only where a
path cannot say what it checks.  ``scripts/bench_smoke.py``, the one
producer of every artifact, validates and prints the same paths after
it writes each file.

``BENCH_PR3.json`` is a frozen record whose baseline lane no longer
exists; it has no gates.  Some committed artifacts keep frozen rows the
code can no longer produce (``BENCH_PR1.json``'s ``grid`` / ``rtree``
indexes, ``BENCH_PR4.json``'s ``quiesced`` and ``overlapped_per_report``
lanes, ``BENCH_PR5.json``'s ``v1_count_binary`` lane, whose 9 rounds the
``rounds_to_balance_v2 <= 4`` row halves); a ``*`` row covers whichever
rows are present.

Usage::

    python scripts/bench_check.py            # check repo-root artifacts
    python scripts/bench_check.py --root DIR # check artifacts elsewhere

A missing artifact is a failure too — the gate exists precisely so the
trajectory cannot quietly shrink.
"""

from __future__ import annotations

import argparse
import json
import operator
import pathlib
from typing import Callable, NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<=": operator.le,
    "==": operator.eq,
    "is": operator.is_,
}


class Gate(NamedTuple):
    """``path op limit`` must hold for every value ``path`` names."""

    path: str
    op: str
    limit: object
    why: str = ""
    #: payload -> (ok, observed); only where a path cannot say the check.
    probe: Callable[[dict], tuple[bool, object]] | None = None

    @property
    def description(self) -> str:
        text = f"{self.path} {self.op} {self.limit}"
        return f"{text} ({self.why})" if self.why else text

    def run(self, payload: dict) -> tuple[bool, object]:
        try:
            if self.probe is not None:
                return self.probe(payload)
            values = resolve(payload, self.path)
            ok = bool(values) and all(
                value is not None and OPS[self.op](value, self.limit)
                for value in values.values()
            )
        except (KeyError, TypeError) as exc:
            return False, f"missing field ({exc!r})"
        return ok, values[""] if "" in values else values or "nothing matched"


def resolve(payload: dict, path: str) -> dict[str, object]:
    """Every value ``path`` names, keyed by the children its ``*`` steps
    matched (``""`` for a path without one).  A missing step raises
    ``KeyError``; a step into a non-dict raises ``TypeError``."""
    found: dict[str, object] = {"": payload}
    for part in path.split("."):
        step: dict[str, object] = {}
        for label, value in found.items():
            if not isinstance(value, dict):
                raise TypeError(f"{path!r}: {part!r} under a {type(value).__name__}")
            if part == "*":
                for key, child in value.items():
                    step[f"{label}.{key}" if label else key] = child
            else:
                step[label] = value[part]
        found = step
    return found


def _cross_queries_answered(payload: dict) -> tuple[bool, str]:
    partition = payload["root_partition"]
    asked = partition["cross_queries_before_heal"]
    answered = partition["cross_queries_answered_before_heal"]
    return answered == asked, f"{answered}/{asked}"


GATES: dict[str, list[Gate]] = {
    "BENCH_PR1.json": [
        Gate("indexes.*.speedup_vs_baseline.update_many", ">", 1.0, "vs remove+insert"),
    ],
    "BENCH_PR2.json": [
        Gate("scenarios.flash_crowd.load_drop_factor", ">=", 2.0),
        Gate("scenarios.*.elastic.invariants.lost_sightings", "==", 0),
    ],
    "BENCH_PR4.json": [
        Gate("migration_throughput_ratio", ">=", 0.8),
        Gate("lanes.*.invariants.lost_sightings", "==", 0),
        Gate("lanes.*.invariants.consistency_ok", "is", True),
        Gate("lanes.*.invariants.hierarchy_valid", "is", True),
        Gate("lanes.*.splits", ">=", 1, "the workload must rebalance"),
    ],
    "BENCH_PR5.json": [
        Gate("rounds_to_balance_v2", "<=", 4, "half the frozen v1 lane's 9"),
        Gate("migration_throughput_ratio", ">=", 0.8),
        Gate("lanes.*.invariants.lost_sightings", "==", 0),
        Gate("lanes.*.invariants.consistency_ok", "is", True),
        Gate("lanes.*.invariants.hierarchy_valid", "is", True),
        Gate("lanes.*.splits", ">=", 1, "the hotspot must rebalance"),
    ],
    "BENCH_PR6.json": [
        Gate("scenarios.*.lost_sightings", "==", 0),
        Gate("scenarios.*.duplicated_sightings", "==", 0),
        Gate("scenarios.*.epoch_consistent", "is", True),
        Gate("scenarios.*.invariants.consistency_ok", "is", True),
        Gate("scenarios.*.invariants.hierarchy_valid", "is", True),
        Gate("scenarios.*.faults_injected", ">=", 1, "chaos actually ran"),
        Gate("max_recovery_ticks", "<=", 3),
        Gate("reconvergence_ticks", "<=", 3, "after the partition heals"),
    ],
    "BENCH_PR7.json": [
        Gate("lanes_lost.*", "==", 0, "including UDP with injected loss"),
        Gate("min_throughput_ratio", ">=", 0.25, "multi-process must not collapse"),
        Gate("udp_loss.driver_messages_dropped", ">", 0, "the loss was real"),
    ],
    "BENCH_PR9.json": [
        Gate("lanes.*.corrupted_accepted", "==", 0),
        Gate("lanes.*.lost_sightings", "==", 0),
        Gate("lanes.*.duplicated_sightings", "==", 0),
        Gate("lanes.*.faults_injected", ">", 0, "the adversary was real"),
        Gate("defense_catches.*", ">", 0, "and was caught"),
        Gate("root_reconvergence_ticks", "<=", 5),
        Gate("root_partition.lost_sightings", "==", 0),
        Gate("root_partition.duplicated_sightings", "==", 0),
        Gate("root_partition.cross_queries_before_heal", ">", 0),
        Gate(
            "root_partition.cross_queries_answered_before_heal",
            "==",
            "cross_queries_before_heal",
            probe=_cross_queries_answered,
        ),
    ],
    "BENCH_PR10.json": [
        Gate("objects", ">=", 1_000_000),
        Gate("tick_speedup", ">=", 5.0, "per object, vs the object backend"),
        Gate("answers_identical", "is", True),
        Gate("load_monitor_bounded", "is", True),
    ],
    "BENCH_PR16.json": [
        Gate("sightings", "==", 100),
        Gate("bytes_per_sighting", "<=", 48, "110 with the v2 text body"),
    ],
}

WIDTH = max(len(gate.description) for gates in GATES.values() for gate in gates)


def check_artifact(root: pathlib.Path, filename: str) -> int:
    """Print one artifact's gate rows; returns how many failed."""
    gates = GATES[filename]
    print(filename)
    try:
        payload = json.loads((root / filename).read_text(encoding="utf-8"))
    except FileNotFoundError:
        print("  MISSING — regenerate with scripts/bench_smoke.py")
        return len(gates)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"  UNREADABLE — {exc}")
        return len(gates)
    failures = 0
    for gate in gates:
        ok, observed = gate.run(payload)
        print(f"  {'ok' if ok else 'FAIL':4s} {gate.description:{WIDTH}s}  [{observed}]")
        failures += not ok
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
    failures = sum(check_artifact(args.root, filename) for filename in GATES)
    if failures:
        print(f"\n{failures} bench acceptance check(s) FAILED")
        return 1
    print("\nall bench acceptance checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Parent/change pairs on BENCH_E2E: K alternating pairs per workload.

    python scripts/bench_pairs.py --parent ROOT [--change ROOT] [--pairs 10]
        [--seed 1] [--workload NAME ...] [--claim METRIC/WORKLOAD ...]
        [--save runs.json | --load runs.json]

Pair ``k`` runs both checkouts on seed ``seed + k``, the parent first on
even ``k`` and the change first on odd ``k`` (the machine drifts; an
order effect then cancels).  Runs, medians, spreads and gaps all come
from ``benchmarks/e2e/repeat.py`` (``run_once``, ``compare``): a run is
exactly a BENCH_E2E run with ``--trace 0``, a spread is the quartile
distance over the median, and the gap is how much worse the change's
median is, as a share of the parent's.  ``--change`` defaults to this
checkout.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median [q1, q3], the pairs the change won, a reading and a verdict:

* the reading is ``better`` / ``worse`` when the gap is wider than both
  spreads, else ``unresolved`` — never "unchanged": a run-to-run spread
  wider than the difference says nothing either way;
* a ``--claim METRIC/WORKLOAD`` holds when the change wins at least nine
  pairs in ten and its median beats the parent's by more than the
  parent's own quartile distance;
* every other pairing is ``OVER BOUND`` when the gap is wider than the
  metric's ``BENCHMARK.json`` bound, else ``ok``; either is marked
  ``unresolved`` when a side's spread is wider than that bound, unless
  every run of the change beats every run of the parent.

Exits 1 when a claim does not hold or any pairing is over its bound.
``--save`` writes the raw runs as JSON and ``--load`` judges saved runs
without running anything.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the share of pairs a claimed gain must win.
CLAIM_WIN_SHARE = 0.9


def _load_repeat():
    """This checkout's ``benchmarks/e2e/repeat.py`` (not a package)."""
    spec = importlib.util.spec_from_file_location(
        "bench_e2e_repeat", ROOT / "benchmarks" / "e2e" / "repeat.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPEAT = _load_repeat()


def quartiles(values: list[float]) -> tuple[float, float]:
    """``(q1, q3)`` for display, the quartiles ``repeat.spread`` divides."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def judge(parent: list[float], change: list[float], better: str, bound: float,
          claimed: bool = False) -> dict:
    """``repeat.compare``'s row for one metric on one workload, plus pairs
    won, reading and verdict; ``ok`` is False when the pairing fails the
    run (claim not met, or over its bound)."""
    row = REPEAT.compare(parent, change, better)
    sign = 1 if better == "lower" else -1
    row["won"] = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    row["pairs"] = len(parent)
    row["quartiles_a"], row["quartiles_b"] = quartiles(parent), quartiles(change)
    widest = max(row["spread_a"], row["spread_b"])
    if abs(row["gap"]) > widest:
        row["reading"] = "worse" if row["gap"] > 0 else "better"
    else:
        row["reading"] = "unresolved"
    if claimed:
        needed = math.ceil(CLAIM_WIN_SHARE * len(parent))
        row["ok"] = row["won"] >= needed and -row["gap"] > row["spread_a"]
        row["verdict"] = "CLAIM MET" if row["ok"] else "CLAIM NOT MET"
        return row
    every_run_better = min(sign * (p - c) for p in parent for c in change) > 0
    row["ok"] = row["gap"] <= bound
    row["verdict"] = "ok" if row["ok"] else "OVER BOUND"
    if widest > bound and not every_run_better:
        row["verdict"] += ", unresolved"
    return row


def judge_workload(runs: dict, workload: str, spec: dict, claims: set) -> list[tuple[str, dict]]:
    """Rows for every end-to-end metric of one workload's saved runs
    (``runs["parent"]`` / ``runs["change"]``: lists of metric dicts, in
    pair order)."""
    return [
        (
            metric["name"],
            judge(
                [run[metric["name"]] for run in runs["parent"]],
                [run[metric["name"]] for run in runs["change"]],
                metric["better"],
                metric["bound"],
                claimed=(metric["name"], workload) in claims,
            ),
        )
        for metric in spec["end_to_end"]
    ]


def run_pairs(parent: Path, change: Path, workload: str, pairs: int, seed: int,
              seconds: float, scale: str) -> dict:
    sides = {"parent": parent, "change": change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(pairs):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            runs[side].append(REPEAT.run_once(sides[side], workload, seed + k, seconds, scale))
            print(
                f"  {workload} pair {k + 1}/{pairs} seed {seed + k} {side:6s}"
                f"  {runs[side][-1]['elapsed']:.1f} s",
                file=sys.stderr,
                flush=True,
            )
    return runs


def print_rows(workload: str, rows: list[tuple[str, dict]]) -> None:
    print(f"\n{workload}: {rows[0][1]['pairs']} pairs")
    print(
        f"{'metric':16s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s}"
        f" {'won':>5s} {'gap':>7s}  reading     verdict"
    )
    for name, row in rows:
        sides = [
            f"{median:.5g} [{q1:.5g}, {q3:.5g}]"
            for median, (q1, q3) in (
                (row["median_a"], row["quartiles_a"]),
                (row["median_b"], row["quartiles_b"]),
            )
        ]
        print(
            f"{name:16s} {sides[0]:>32s} {sides[1]:>32s} {row['won']:>2d}/{row['pairs']:<2d}"
            f" {row['gap']:+7.1%}  {row['reading']:11s} {row['verdict']}"
        )


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT, help="default: this checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--claim", action="append", default=[], help="METRIC/WORKLOAD")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--save", type=Path, help="write the raw runs here")
    parser.add_argument("--load", type=Path, help="judge saved runs instead of running")
    args = parser.parse_args(argv)
    if args.load is None and args.parent is None:
        parser.error("--parent is required unless --load is given")
    claims = {tuple(claim.partition("/")[::2]) for claim in args.claim}

    if args.load is not None:
        saved = json.loads(args.load.read_text(encoding="utf-8"))
    else:
        saved = {
            workload: run_pairs(
                args.parent, args.change, workload, args.pairs, args.seed,
                args.seconds, args.scale,
            )
            for workload in args.workload or [w["name"] for w in spec["workloads"]]
        }
        if args.save is not None:
            args.save.write_text(json.dumps(saved, indent=1), encoding="utf-8")

    failed = False
    for workload, runs in saved.items():
        rows = judge_workload(runs, workload, spec, claims)
        print_rows(workload, rows)
        failed |= not all(row["ok"] for _, row in rows)
    names = {metric["name"] for metric in spec["end_to_end"]}
    for metric, workload in sorted(c for c in claims if c[0] not in names or c[1] not in saved):
        print(f"claim {metric}/{workload}: no such metric or workload in these runs")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

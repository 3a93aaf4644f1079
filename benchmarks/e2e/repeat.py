"""Run the benchmark K times, twice over, and compare the two sets.

    python3 benchmarks/e2e/repeat.py [--runs K] [--workload NAME ...] [--other ROOT]

Two uses.  With nothing else given, both sets run this checkout, each run
on another seed: the spreads and the gap between the two medians say how
steady the benchmark itself is (the check BENCHMARK.json's bounds must
survive: every spread except ``setup_s``'s, and every gap, within the
metric's bound).  With ``--other ROOT`` the second set runs the checkout at
ROOT on the *same* seeds, the two sides alternating which goes first: the
parent/change comparison a later performance issue needs.

For each end-to-end metric it prints both medians, both spreads (distance
between the quartiles of ``statistics.quantiles(values, n=4)`` over the
median) and the gap (how much worse the second median is, as a share of the
first), and exits 1 if a spread or a gap exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_TIMEOUT = 180


def run_once(root: Path, workload: str, seed: int, seconds: float, scale: str) -> dict:
    command = [sys.executable, str(root / "benchmarks" / "e2e" / "run.py")]
    command += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    command += ["--scale", scale, "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(command)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"elapsed": elapsed} | {name: entry["value"] for name, entry in result["metrics"].items()}


def compare(first: list[float], second: list[float], better: str) -> dict:
    median_a, median_b = statistics.median(first), statistics.median(second)
    worse = median_b - median_a if better == "lower" else median_a - median_b
    return {
        "median_a": median_a,
        "median_b": median_b,
        "spread_a": spread(first),
        "spread_b": spread(second),
        "gap": worse / median_a,
    }


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per set and workload")
    parser.add_argument("--workload", action="append", help="repeatable; default: all four")
    parser.add_argument("--other", type=Path, help="checkout the second set runs (same seeds)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    args = parser.parse_args(argv)

    sides = (ROOT, args.other if args.other is not None else ROOT)
    second_seed_offset = 0 if args.other is not None else args.runs
    exceeded = False
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        sets: tuple[list[dict], list[dict]] = ([], [])
        for k in range(args.runs):
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                seed = args.seed + k + side * second_seed_offset
                sets[side].append(run_once(sides[side], workload, seed, args.seconds, args.scale))
                print(
                    f"  {workload} set {'AB'[side]} run {k + 1}/{args.runs} seed {seed}"
                    f"  {sets[side][-1]['elapsed']:.1f} s",
                    flush=True,
                )
        print(f"\n{workload}: {args.runs} runs per set")
        print(
            f"{'metric':16s} {'bound':>6s} {'median A':>12s} {'spread A':>9s} "
            f"{'median B':>12s} {'spread B':>9s} {'gap':>7s}"
        )
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = compare(
                [run[name] for run in sets[0]], [run[name] for run in sets[1]], metric["better"]
            )
            widest = max(row["spread_a"], row["spread_b"])
            over = row["gap"] > bound or (name != "setup_s" and widest > bound)
            exceeded |= over
            print(
                f"{name:16s} {bound:6.2f} {row['median_a']:12.5g} {row['spread_a']:9.1%} "
                f"{row['median_b']:12.5g} {row['spread_b']:9.1%} "
                f"{row['gap']:+7.1%}{'  EXCEEDS' if over else ''}"
            )
        print()
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())

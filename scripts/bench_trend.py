#!/usr/bin/env python
"""Nightly bench time-series: append, report, and trend-gate.

``scripts/bench_check.py`` gates each night's artifacts against fixed
thresholds, so a single-night collapse fails loudly — but a slow leak
(say 3% a night) sails under every fixed threshold until the margin is
gone.  This script closes that hole with a *trend* gate over a rolling
time-series of the key acceptance metrics:

* ``--append`` extracts :data:`TRACKED_METRICS` from the freshly
  regenerated ``BENCH_*.json`` artifacts under ``--root`` and appends
  one entry to the series file (``BENCH_SERIES.json``).
* ``--report`` prints the trajectory table: one row per metric, one
  column per recorded night, with the drift since the oldest shown run.
* ``--check`` fails (exit 1) when any metric has drifted monotonically
  in its *worse* direction across the last three appended runs **and**
  the cumulative drift over those three nights exceeds 10%.  Fewer
  than four entries is always green — the gate needs a baseline night
  plus three drifting nights before it can call a trend.

Series schema (``schema: 1``)::

    {
      "schema": 1,
      "series": [
        {"run": "<ci run id>", "label": "<yyyy-mm-dd>",
         "metrics": {"pr10.tick_speedup": 49.3, ...}},
        ...
      ]
    }

A metric missing on some night (artifact absent, key null) is recorded
as ``null``; a null breaks any monotone run, so a flaky artifact can
delay the gate but never trip it.  The series is pruned to the newest
:data:`MAX_ENTRIES` entries on append, so the artifact stays small.

Usage (the nightly workflow's ``bench-trend`` job)::

    python scripts/bench_trend.py --append --root bench-artifacts \
        --run "$GITHUB_RUN_ID" --label "$(date -u +%F)"
    python scripts/bench_trend.py --report
    python scripts/bench_trend.py --check
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCHEMA_VERSION = 1

#: Rolling-window cap: nightly appends stay bounded (~4 months).
MAX_ENTRIES = 120

#: Monotone-drift window: a baseline night + this many worsening nights.
TREND_NIGHTS = 3

#: Cumulative worse-direction drift (fraction) that trips the gate.
DRIFT_LIMIT = 0.10

#: metric name -> (artifact filename, dotted key path, better direction).
#: One acceptance-critical number per measuring PR lane; ``higher`` means
#: larger is better (a drop is drift), ``lower`` the opposite.
TRACKED_METRICS: dict[str, tuple[str, str, str]] = {
    "pr2.load_drop_factor": (
        "BENCH_PR2.json",
        "scenarios.flash_crowd.load_drop_factor",
        "higher",
    ),
    "pr4.migration_throughput_ratio": (
        "BENCH_PR4.json",
        "migration_throughput_ratio",
        "higher",
    ),
    "pr5.rounds_to_balance": (
        "BENCH_PR5.json",
        "rounds_to_balance_v2",
        "lower",
    ),
    "pr7.min_throughput_ratio": (
        "BENCH_PR7.json",
        "min_throughput_ratio",
        "higher",
    ),
    "pr10.tick_speedup": ("BENCH_PR10.json", "tick_speedup", "higher"),
    "pr10.updates_per_second": (
        "BENCH_PR10.json",
        "columnar.updates_per_second",
        "higher",
    ),
}


def _lookup(payload: dict, dotted: str):
    value = payload
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def extract_metrics(root: pathlib.Path) -> dict[str, float | None]:
    """Tonight's tracked metrics from the artifacts under ``root``.

    Missing artifacts, missing keys and non-finite values all map to
    ``None`` — recorded, visible in the report, never a crash.
    """
    metrics: dict[str, float | None] = {}
    payloads: dict[str, dict | None] = {}
    for name, (filename, dotted, _direction) in TRACKED_METRICS.items():
        if filename not in payloads:
            path = root / filename
            try:
                payloads[filename] = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                payloads[filename] = None
        payload = payloads[filename]
        value = _lookup(payload, dotted) if payload is not None else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            metrics[name] = None
        elif not math.isfinite(value):
            metrics[name] = None
        else:
            metrics[name] = round(float(value), 6)
    return metrics


def load_series(path: pathlib.Path) -> dict:
    if not path.exists():
        return {"schema": SCHEMA_VERSION, "series": []}
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("schema") != SCHEMA_VERSION:
        raise SystemExit(
            f"{path}: unsupported series schema {data.get('schema')!r} "
            f"(this script speaks schema {SCHEMA_VERSION})"
        )
    return data


def save_series(path: pathlib.Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def append_entry(data: dict, run: str, label: str, metrics: dict) -> None:
    data["series"].append({"run": run, "label": label, "metrics": metrics})
    del data["series"][:-MAX_ENTRIES]


def _drift(first: float, last: float, direction: str) -> float:
    """Worse-direction drift as a fraction of the baseline (>=0)."""
    if first == 0:
        return 0.0
    change = (last - first) / abs(first)
    return -change if direction == "higher" else change


def trend_failures(data: dict) -> list[str]:
    """Metrics whose last ``TREND_NIGHTS`` runs drift monotonically worse.

    The window is the last ``TREND_NIGHTS + 1`` entries: a baseline
    night and three nights each strictly worse than the one before,
    with cumulative drift beyond :data:`DRIFT_LIMIT`.  Any ``None`` in
    the window breaks the chain.
    """
    series = data["series"]
    if len(series) < TREND_NIGHTS + 1:
        return []
    window = series[-(TREND_NIGHTS + 1):]
    failures = []
    for name, (_file, _dotted, direction) in TRACKED_METRICS.items():
        values = [entry["metrics"].get(name) for entry in window]
        if any(v is None for v in values):
            continue
        worse = (
            all(b < a for a, b in zip(values, values[1:]))
            if direction == "higher"
            else all(b > a for a, b in zip(values, values[1:]))
        )
        if not worse:
            continue
        drift = _drift(values[0], values[-1], direction)
        if drift > DRIFT_LIMIT:
            failures.append(
                f"{name}: {TREND_NIGHTS}-night monotone drift "
                f"{drift * 100:.1f}% (> {DRIFT_LIMIT * 100:.0f}%): "
                + " -> ".join(f"{v:g}" for v in values)
            )
    return failures


def print_report(data: dict, tail: int = 8) -> None:
    """The trajectory table: metrics down, the newest runs across."""
    series = data["series"][-tail:]
    if not series:
        print("series is empty — nothing to report")
        return
    labels = [entry["label"] for entry in series]
    name_width = max(len(name) for name in TRACKED_METRICS)
    cells_for = lambda entry: (  # noqa: E731 — local formatting helper
        "-" if (v := entry["metrics"].get(name)) is None else f"{v:,.3f}"
        for name in TRACKED_METRICS
    )
    col_width = max(
        [10]
        + [len(label) for label in labels]
        + [len(cell) for entry in series for cell in cells_for(entry)]
    )
    header = "metric".ljust(name_width) + "".join(
        f"  {label:>{col_width}s}" for label in labels
    ) + f"  {'drift':>8s}"
    print(header)
    print("-" * len(header))
    for name, (_file, _dotted, direction) in TRACKED_METRICS.items():
        values = [entry["metrics"].get(name) for entry in series]
        cells = "".join(
            f"  {('-' if v is None else f'{v:,.3f}'):>{col_width}s}" for v in values
        )
        shown = [v for v in values if v is not None]
        if len(shown) >= 2:
            drift = _drift(shown[0], shown[-1], direction)
            trend = f"{-drift * 100:+.1f}%"
        else:
            trend = "-"
        print(f"{name:{name_width}s}{cells}  {trend:>8s}")
    print(
        f"\n{len(data['series'])} run(s) recorded; drift column is the "
        f"better(+)/worse(-) change across the shown window"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--series",
        type=pathlib.Path,
        default=ROOT / "BENCH_SERIES.json",
        help="series file (default: repo-root BENCH_SERIES.json)",
    )
    parser.add_argument(
        "--append", action="store_true", help="append tonight's metrics"
    )
    parser.add_argument(
        "--report", action="store_true", help="print the trajectory table"
    )
    parser.add_argument(
        "--check", action="store_true", help="fail on sustained monotone drift"
    )
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=ROOT,
        help="directory holding tonight's BENCH_*.json (default: repo root)",
    )
    parser.add_argument("--run", default="local", help="run id recorded on --append")
    parser.add_argument(
        "--label", default="tonight", help="display label recorded on --append"
    )
    args = parser.parse_args(argv)
    if not (args.append or args.report or args.check):
        parser.error("nothing to do: pass --append, --report and/or --check")

    data = load_series(args.series)

    if args.append:
        metrics = extract_metrics(args.root)
        append_entry(data, args.run, args.label, metrics)
        save_series(args.series, data)
        recorded = sum(1 for v in metrics.values() if v is not None)
        print(
            f"appended run {args.run!r} ({args.label}): "
            f"{recorded}/{len(metrics)} metrics recorded, "
            f"{len(data['series'])} entries in {args.series}"
        )

    if args.report:
        if args.append:
            print()
        print_report(data)

    if args.check:
        failures = trend_failures(data)
        if failures:
            print("\nbench trend gate FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        nights = len(data["series"])
        print(
            f"\nbench trend gate passed ({nights} run(s); "
            f"gate needs {TREND_NIGHTS + 1} to call a trend)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

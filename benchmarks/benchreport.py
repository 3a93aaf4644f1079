"""Collector for paper-versus-measured tables (shared bench state).

Bench-JSON schema
-----------------

Machine-readable perf artifacts live at the repository root as
``BENCH_<tag>.json``, one per PR that measures something, written by
:func:`write_bench_json`.  Each artifact has one producer, an entry of
``scripts/bench_smoke.py``'s ``ARTIFACTS`` table, and one gate list, its
rows in ``scripts/bench_check.py``'s ``GATES`` table — the one place an
acceptance threshold is written.  Shared conventions the gate rows rely
on:

* every payload has a ``bench`` (one-line description) and a
  ``generated_by`` (``scripts/bench_smoke.py``) key;
* scenario benches group per-configuration runs under ``lanes`` (lane
  name → full scenario result dict) or ``scenarios``, which a gate row
  walks with a ``*`` path step; every scenario result carries an
  ``invariants`` dict with ``lost_sightings``, ``consistency_ok`` and
  ``hierarchy_valid``;
* a simulated scenario result keeps every wall-clock number in one
  ``timing`` sub-dict (``tick_wall_clock_s``, ``reports_per_s_steady``,
  ``reports_per_s_migration``, ``migration_throughput_ratio``); the rest
  of it is one value per seed, pinned by
  ``tests/sim/test_payload_goldens.py``;
* the headline acceptance numbers sit at the payload top level, named
  for what they measure (``migration_throughput_ratio``, a lane's
  ``timing`` value, ``rounds_to_balance_v2``, ``tick_speedup``, ...);
* numbers are rounded for diffability and the payload is written with
  ``sort_keys`` so regenerated artifacts diff cleanly.

CI's ``bench-smoke`` job regenerates every artifact and
``python scripts/bench_check.py`` fails the build when any row fails.
``BENCH_PR3.json`` is the exception: a frozen record of the PR-3 lane
comparison, whose baseline lane no longer exists — kept in the tree,
neither regenerated nor gated.

Time-series schema
------------------

Fixed thresholds miss slow leaks, so the nightly workflow also keeps a
rolling *time series* of the acceptance numbers in ``BENCH_SERIES.json``
(same directory, ``schema: 1``)::

    {"schema": 1,
     "series": [{"run": "<ci run id>", "label": "<yyyy-mm-dd>",
                 "metrics": {"pr10.tick_speedup": 44.07, ...}}, ...]}

``scripts/bench_trend.py --append`` extracts its ``TRACKED_METRICS``
from the freshly regenerated artifacts and appends one entry (pruned to
the newest 120); ``--check`` fails the ``bench-trend`` job on a 3-night
monotone drift > 10% in any metric's worse direction.  A metric that is
missing some night is recorded as ``null`` and breaks any monotone run,
so a flaky artifact can delay the gate but never trip it.
"""

from __future__ import annotations

import json
import pathlib

REPORTS: list[str] = []

#: Repository root — machine-readable bench artifacts (``BENCH_*.json``)
#: live here so every PR's perf trajectory is one flat glob away.
ROOT = pathlib.Path(__file__).resolve().parent.parent


def report(text: str) -> None:
    """Register a formatted comparison table for the terminal summary."""
    REPORTS.append(text)


def write_bench_json(filename: str, payload: dict) -> pathlib.Path:
    """Write a machine-readable bench artifact to the repository root.

    ``filename`` should follow the ``BENCH_<tag>.json`` convention (e.g.
    ``BENCH_PR1.json``); the payload is stable-sorted so diffs between
    runs stay readable.
    """
    path = ROOT / filename
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path

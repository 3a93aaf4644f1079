#!/usr/bin/env python
"""Quick perf smoke — the one producer of every ``BENCH_PR*.json`` artifact.

The tier-1 test suite never runs benchmarks (bench files do not match
pytest's default collection), and the full pytest-benchmark suite takes
minutes.  This script is the middle ground.  :data:`ARTIFACTS` maps a
name to an artifact file and the function that produces its payload;
one loop runs the producers, writes each payload with
``benchreport.write_bench_json`` and prints the artifact's gate rows
from ``scripts/bench_check.py``, the one place thresholds live.

After every producer the written artifact is re-loaded and the paths
its gates read are validated: a missing path, a ``*`` step that matches
nothing, or a NaN/Inf value makes the script exit non-zero instead of
silently writing a payload the gate would later trip over (or worse,
miss — JSON ``NaN`` survives a round-trip through Python's parser).

``BENCH_PR3.json`` is a frozen record whose baseline lane no longer
exists, so it is not regenerated.

Usage::

    python scripts/bench_smoke.py                     # every artifact
    python scripts/bench_smoke.py --only pr2 pr4 pr5  # the elastic ones
    python scripts/bench_smoke.py --objects 2000 --moves 2000 --rounds 2
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
import time
from importlib import import_module

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "src"))

import bench_spatial_index as bsi  # noqa: E402  (path set up above)
import benchreport  # noqa: E402
from bench_check import GATES, check_artifact, resolve  # noqa: E402
from repro.sim.scenario import MobilitySimulation  # noqa: E402


def measure_tick(kind: str, objects: int, ticks: int, dt: float = 2.0) -> float:
    """Updates/s through the full batched sim tick (walkers + store)."""
    sim = MobilitySimulation.table1(object_count=objects, index_kind=kind, seed=5)
    sim.tick(dt)  # warm up caches and walker state
    start = time.perf_counter()
    sim.run(ticks, dt=dt)
    elapsed = time.perf_counter() - start
    return objects * ticks / elapsed


def produce_pr1(args) -> dict:
    """The small-displacement update fast paths of ``bench_spatial_index``
    plus one batched sim tick measure per index kind."""
    bsi.OBJECTS = args.objects
    bsi.FASTPATH_MOVES = args.moves
    indexes = {}
    for kind in bsi.INDEX_KINDS:
        row, _ = bsi.measure_fastpath(kind, rounds=args.rounds)
        indexes[kind] = {
            "updates_per_s": row,
            "speedup_vs_baseline": {
                "update": row["update"] / row["baseline_remove_insert"],
                "update_many": row["update_many"] / row["baseline_remove_insert"],
            },
            "sim_tick_updates_per_s": measure_tick(kind, args.objects, args.ticks),
        }
    return {
        "bench": "spatial-index update fast paths + batch pipeline (smoke)",
        "workload": {
            "objects": args.objects,
            "area_side_m": bsi.AREA_SIDE,
            "moves": args.moves,
            "displacement_m": bsi.DISPLACEMENT_M,
            "batch_size": bsi.FASTPATH_BATCH,
            "sim_ticks": args.ticks,
        },
        "indexes": indexes,
    }


def produce_pr16(args) -> dict:
    """One 100-sighting ``UpdateBatchReq`` and its ``UpdateBatchRes``
    through ``encode_frame`` / ``FrameDecoder.feed`` / ``find_defect``.
    The microseconds explain the BENCH_E2E layer table and move with the
    machine; only the byte count is gated."""
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
    return payload


def _scenario(module: str, function: str):
    """A producer calling ``module.function(seed=...)``.

    The module is imported only when the producer runs.  The socket
    lane's node processes are spawned, so they re-import this script;
    with every scenario module imported at the top, their reports/s
    read about a third lower (two-core Linux container).
    """
    return lambda args: getattr(import_module(module), function)(seed=args.seed)


def produce_pr10(args) -> dict:
    from repro.sim.columnar import columnar_benchmark_payload

    return columnar_benchmark_payload(
        objects=args.pr10_objects, ticks=args.pr10_ticks, seed=args.seed
    )


#: name → (artifact file, producer of its payload from the parsed options).
ARTIFACTS = {
    "pr1": ("BENCH_PR1.json", produce_pr1),
    "pr2": ("BENCH_PR2.json", _scenario("repro.sim.elastic", "elastic_benchmark_payload")),
    "pr4": ("BENCH_PR4.json", _scenario("repro.sim.elastic", "zero_stall_benchmark_payload")),
    "pr5": ("BENCH_PR5.json", _scenario("repro.sim.elastic", "planner_v2_benchmark_payload")),
    "pr6": ("BENCH_PR6.json", _scenario("repro.sim.chaos", "chaos_benchmark_payload")),
    "pr7": ("BENCH_PR7.json", _scenario("repro.net.scenario", "socket_benchmark_payload")),
    "pr9": ("BENCH_PR9.json", _scenario("repro.sim.byzantine", "byzantine_benchmark_payload")),
    "pr10": ("BENCH_PR10.json", produce_pr10),
    "pr16": ("BENCH_PR16.json", produce_pr16),
}


def validate_artifact(filename: str, paths: list[str]) -> list[str]:
    """Problems with the written artifact's gate paths, if any.

    Re-loads the JSON from disk (so what is validated is exactly what CI
    uploads) and resolves each dotted path.  A missing path, a ``*``
    that matches nothing or a non-finite float is a problem; ``None``
    passes — several acceptance numbers are legitimately nullable and
    their gate rows fail on it with the observed value in view.
    """
    path = benchreport.ROOT / filename
    if not path.exists():
        return [f"{filename}: artifact missing after its producer ran"]
    payload = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    for dotted in paths:
        try:
            values = resolve(payload, dotted)
        except (KeyError, TypeError):
            problems.append(f"{filename}: acceptance key {dotted!r} missing")
            continue
        if not values:
            problems.append(f"{filename}: acceptance key {dotted!r} matches nothing")
        for value in values.values():
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(
                    f"{filename}: acceptance key {dotted!r} is non-finite ({value})"
                )
    return problems


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return parsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=_positive_int, default=bsi.OBJECTS)
    parser.add_argument("--moves", type=_positive_int, default=bsi.FASTPATH_MOVES)
    parser.add_argument("--rounds", type=_positive_int, default=3)
    parser.add_argument(
        "--ticks", type=_positive_int, default=5, help="sim ticks per index kind"
    )
    parser.add_argument("--seed", type=int, default=0, help="scenario seed")
    parser.add_argument(
        "--pr10-objects",
        type=_positive_int,
        default=1_000_000,
        help="columnar-bench population (acceptance measures at >= 1M)",
    )
    parser.add_argument(
        "--pr10-ticks", type=_positive_int, default=5, help="columnar-bench sim ticks"
    )
    parser.add_argument(
        "--only",
        nargs="+",
        choices=ARTIFACTS,
        metavar="NAME",
        help=f"produce only these artifacts (default: all of {' '.join(ARTIFACTS)})",
    )
    args = parser.parse_args(argv)

    problems: list[str] = []
    for name, (filename, produce) in ARTIFACTS.items():
        if args.only and name not in args.only:
            continue
        start = time.perf_counter()
        payload = produce(args)
        payload["generated_by"] = "scripts/bench_smoke.py"
        path = benchreport.write_bench_json(filename, payload)
        print(f"\nwrote {path} ({time.perf_counter() - start:.1f}s)")
        check_artifact(benchreport.ROOT, filename)
        problems.extend(
            validate_artifact(filename, [gate.path for gate in GATES[filename]])
        )
    if problems:
        print("\nacceptance-key validation FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""NN query latency by traffic shape, on an in-process Table-2 service.

    python scripts/bench_nn_shapes.py [--root CHECKOUT] [--backend objects|columnar]
        [--objects 100000] [--budget-s 60]

Every BENCH_E2E NN query has one shape: ``req_acc`` 50 over objects
offered at 25, ``nearQual`` 0, so every candidate qualifies and a
leaf's first k-nearest probe settles its share.  This script times
client NN queries (wall clock, one root and four leaves on the virtual
network, ``nn_initial_radius`` 100 m as in BENCH_E2E) for that shape and
for shapes the benchmark does not send: few objects satisfying
``req_acc``, a wide ``nearQual`` ring, nothing qualifying at all.

``--root`` imports another checkout's ``src/`` (a parent copy), so runs
of both checkouts, alternating, compare them.  Prints one line per shape
and, last, every shape's numbers as one JSON line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: ``(name, share offered 25 m (the rest 60 m), req_acc, near_qual, probes)``.
SHAPES = (
    ("all_qualify", 1.0, 50.0, 0.0, 40),  # BENCH_E2E's shape
    ("qualify_25pct", 0.25, 30.0, 0.0, 40),
    ("qualify_1pct", 0.01, 30.0, 0.0, 40),
    ("qualify_0.1pct", 0.001, 30.0, 0.0, 20),
    ("near_qual_50", 1.0, 50.0, 50.0, 40),
    ("near_qual_200", 1.0, 50.0, 200.0, 10),
    ("none_qualify", 1.0, 10.0, 0.0, 5),
)


def run(backend: str, objects: int, max_probes: int | None = None,
        budget_s: float = math.inf) -> dict:
    """Per shape: median and worst latency (ms), mean rounds and mean
    answer size over the same seeded probe points."""
    from repro.core.hierarchy import build_table2_hierarchy
    from repro.core.service import LocationService
    from repro.geo import Point
    from repro.model import SightingRecord

    hierarchy = build_table2_hierarchy(1500.0)
    svc = LocationService(hierarchy, sighting_ttl=1e9, nn_initial_radius=100.0, backend=backend)
    rng = random.Random(7)
    stores = {}
    for i in range(objects):
        oid, pos = f"o{i}", Point(rng.uniform(0, 1500), rng.uniform(0, 1500))
        path = hierarchy.path_to_root(hierarchy.leaf_for_point(pos))
        store = svc.servers[path[0]].store
        store.register(SightingRecord(oid, 0.0, pos, 10.0), 25.0, 100.0, "bench", now=0.0)
        stores[oid] = store
        for below, above in zip(path, path[1:]):
            svc.servers[above].visitors.insert_forward(oid, below)
    client = svc.new_client(entry_server=hierarchy.leaf_ids()[0])
    gc.collect()
    results = {}
    for name, share, req_acc, near_qual, probes in SHAPES:
        pick = random.Random(11)
        for oid, store in stores.items():
            store.visitors.set_offered_acc(oid, 25.0 if pick.random() < share else 60.0)
        points = random.Random(5)
        times, rounds, sizes = [], [], []
        started = time.perf_counter()
        for _ in range(min(probes, max_probes or probes)):
            if time.perf_counter() - started > budget_s:
                break
            pos = Point(points.uniform(0, 1500), points.uniform(0, 1500))
            sent = time.perf_counter()
            answer = svc.run(client.neighbor_query(pos, req_acc=req_acc, near_qual=near_qual))
            times.append((time.perf_counter() - sent) * 1e3)
            rounds.append(answer.rounds)
            nearest = answer.result.nearest
            sizes.append(0 if nearest is None else 1 + len(answer.result.near_set))
        results[name] = {
            "p50_ms": statistics.median(times),
            "max_ms": max(times),
            "rounds": statistics.mean(rounds),
            "answer": statistics.mean(sizes),
            "probes": len(times),
        }
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ to time")
    parser.add_argument("--backend", choices=("objects", "columnar"), default="objects")
    parser.add_argument("--objects", type=int, default=100_000)
    parser.add_argument("--budget-s", type=float, default=60.0, help="per shape")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    results = run(args.backend, args.objects, budget_s=args.budget_s)
    for name, row in results.items():
        print(
            f"{name:15s} p50 {row['p50_ms']:9.2f} ms  max {row['max_ms']:9.2f} ms"
            f"  rounds {row['rounds']:.2f}  answer {row['answer']:.1f}  ({row['probes']} probes)"
        )
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

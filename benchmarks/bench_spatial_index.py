"""Ablation C — spatial-index comparison (paper §5).

The paper picks a Point Quadtree; this bench measures it on the Table-1
workload (scaled to 5 000 objects to keep bench time short) against the
linear scan, the correctness oracle.  Expected shape: the linear scan
leads on updates (a dict store); the quadtree beats it on range queries
by an order of magnitude.  The R-tree and uniform-grid rows were retired
with those index kinds; their last numbers are in ``RESULTS.txt``.

``test_update_fastpath_small_displacement`` additionally measures the
in-place move fast paths against the seed's remove+insert baseline on a
walking-speed displacement workload.  ``scripts/bench_smoke.py`` runs
the same measurement (:func:`measure_fastpath`) to write
``BENCH_PR1.json``.
"""

import random
import time

import pytest

from benchreport import report
from repro.geo import Point, Rect
from repro.model import RangeQuery, SightingRecord
from repro.sim.metrics import format_table
from repro.sim.scenario import table1_store
from repro.spatial import make_index
from repro.spatial.base import SpatialIndex

OBJECTS = 5_000
AREA_SIDE = 10_000.0
INDEX_KINDS = ["quadtree", "linear"]

#: Per-move displacement of the small-displacement workload: one tick of
#: the paper's reference pedestrian (~3 km/h) at a couple of seconds.
DISPLACEMENT_M = 1.5
FASTPATH_MOVES = 4_000
FASTPATH_BATCH = 500
FASTPATH_ROUNDS = 5

_results: dict[str, dict[str, float]] = {}
_fastpath_results: dict[str, dict[str, float]] = {}


def _note(kind: str, operation: str, ops_per_second: float) -> None:
    _results.setdefault(kind, {})[operation] = ops_per_second
    done = all(
        len(_results.get(k, {})) == 3 for k in INDEX_KINDS
    )
    if done:
        rows = [
            (
                kind,
                f"{_results[kind]['updates']:,.0f}",
                f"{_results[kind]['range 100 m']:,.0f}",
                f"{_results[kind]['range 1 km']:,.0f}",
            )
            for kind in INDEX_KINDS
        ]
        report(
            format_table(
                f"Ablation C — spatial index comparison ({OBJECTS:,} objects, ops/s)",
                ("index", "updates", "range 100 m", "range 1 km"),
                rows,
            )
        )


@pytest.fixture(scope="module", params=INDEX_KINDS)
def store_of_kind(request):
    store, ids = table1_store(object_count=OBJECTS, index_kind=request.param)
    return request.param, store, ids


def test_updates(benchmark, store_of_kind):
    kind, store, ids = store_of_kind
    rng = random.Random(1)
    batch = 2_000

    def run():
        for _ in range(batch):
            oid = ids[rng.randrange(len(ids))]
            pos = Point(rng.uniform(0, AREA_SIDE), rng.uniform(0, AREA_SIDE))
            store.update(SightingRecord(oid, 1.0, pos, 10.0), now=1.0)

    benchmark.pedantic(run, rounds=3, iterations=1)
    _note(kind, "updates", batch / benchmark.stats.stats.mean)


@pytest.mark.parametrize(
    "label,side,batch", [("range 100 m", 100.0, 2_000), ("range 1 km", 1_000.0, 200)]
)
def test_range_queries(benchmark, store_of_kind, label, side, batch):
    kind, store, ids = store_of_kind
    rng = random.Random(2)
    areas = [
        Rect.from_center(
            Point(rng.uniform(side, AREA_SIDE - side), rng.uniform(side, AREA_SIDE - side)),
            side,
            side,
        )
        for _ in range(batch)
    ]

    def run():
        for area in areas:
            store.range_query(RangeQuery(area, req_acc=50.0, req_overlap=0.3))

    benchmark.pedantic(run, rounds=3, iterations=1)
    _note(kind, label, batch / benchmark.stats.stats.mean)


# -- in-place move fast paths vs. the remove+insert baseline ----------------


def _filled_index(kind: str, seed: int = 7):
    """A bare index holding ``OBJECTS`` uniform points, plus the points."""
    rng = random.Random(seed)
    index = make_index(kind)
    positions = {}
    entries = []
    for i in range(OBJECTS):
        pos = Point(rng.uniform(0, AREA_SIDE), rng.uniform(0, AREA_SIDE))
        positions[f"fp-{i}"] = pos
        entries.append((f"fp-{i}", pos))
    index.bulk_load(entries)
    return rng, index, positions


def _small_displacement_moves(rng, positions, count: int):
    """``count`` walking-speed moves over the tracked population."""
    ids = list(positions)
    moves = []
    for _ in range(count):
        oid = ids[rng.randrange(len(ids))]
        old = positions[oid]
        pos = Point(
            min(AREA_SIDE, max(0.0, old.x + rng.uniform(-DISPLACEMENT_M, DISPLACEMENT_M))),
            min(AREA_SIDE, max(0.0, old.y + rng.uniform(-DISPLACEMENT_M, DISPLACEMENT_M))),
        )
        positions[oid] = pos
        moves.append((oid, pos))
    return moves


def _run_baseline(index, moves):
    base_update = SpatialIndex.update  # the seed's remove+insert path
    for oid, pos in moves:
        base_update(index, oid, pos)


def _run_fastpath(index, moves):
    for oid, pos in moves:
        index.update(oid, pos)


def _run_batched(index, moves):
    for i in range(0, len(moves), FASTPATH_BATCH):
        index.update_many(moves[i : i + FASTPATH_BATCH])


def _note_fastpath(kind: str, row: dict[str, float]) -> None:
    _fastpath_results[kind] = row
    if set(_fastpath_results) != set(INDEX_KINDS):
        return
    report(
        format_table(
            f"PR 1 — in-place move fast paths ({OBJECTS:,} objects, "
            f"±{DISPLACEMENT_M:g} m moves, ops/s)",
            ("index", "remove+insert", "update", "update_many", "speedup"),
            [
                (
                    kind,
                    f"{r['baseline_remove_insert']:,.0f}",
                    f"{r['update']:,.0f}",
                    f"{r['update_many']:,.0f}",
                    f"{r['update_many'] / r['baseline_remove_insert']:.2f}x",
                )
                for kind, r in ((k, _fastpath_results[k]) for k in INDEX_KINDS)
            ],
        )
    )


def measure_fastpath(kind: str, rounds: int = FASTPATH_ROUNDS):
    """Interleaved rounds of (baseline, update, update_many) ops/s.

    All three runners execute back to back inside each round so thermal
    and scheduler drift hits them equally; the speedup assertion uses
    the best per-round ratio, the reported ops/s the best per runner.
    Returns ``(row, best_ratio)``.
    """
    runners = (
        ("baseline_remove_insert", _run_baseline),
        ("update", _run_fastpath),
        ("update_many", _run_batched),
    )
    best = {name: 0.0 for name, _ in runners}
    best_ratio = 0.0
    for round_no in range(rounds):
        round_ops = {}
        for name, runner in runners:
            rng, index, positions = _filled_index(kind, seed=7 + round_no)
            moves = _small_displacement_moves(rng, positions, FASTPATH_MOVES)
            start = time.perf_counter()
            runner(index, moves)
            elapsed = time.perf_counter() - start
            round_ops[name] = FASTPATH_MOVES / elapsed
            best[name] = max(best[name], round_ops[name])
        best_ratio = max(
            best_ratio, round_ops["update_many"] / round_ops["baseline_remove_insert"]
        )
    return best, best_ratio


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_update_fastpath_small_displacement(benchmark, kind):
    row, best_ratio = measure_fastpath(kind)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # timings above
    _note_fastpath(kind, row)
    # Acceptance floors (generous against the measured ~8x quadtree and
    # ~1.6x linear so scheduler noise cannot flake the bench).
    floors = {"quadtree": 1.5, "linear": 1.2}
    assert best_ratio >= floors[kind], (
        f"{kind}: update_many is only {best_ratio:.2f}x the remove+insert "
        f"baseline ({row['update_many']:,.0f} vs {row['baseline_remove_insert']:,.0f} ops/s)"
    )

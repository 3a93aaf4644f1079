"""Batch API + in-place fast-path equivalence for every spatial index.

The PR-1 invariant: whatever internal shortcut an index takes —
in-place point rewrites, deferred structural passes, column stores —
``update`` and ``update_many`` must leave the index point-for-point
identical (items, rect queries, nearest neighbors) to the seed's
remove+insert baseline.  The workloads here move objects with the
random-waypoint mobility model, the paper's reference movement pattern.
"""

import random

import pytest

from repro.geo import Point, Rect
from repro.sim.mobility import RandomWaypointWalker
from repro.spatial import ColumnarIndex, LinearScanIndex, PointQuadtree
from repro.spatial.base import SpatialIndex

AREA = Rect(0.0, 0.0, 1000.0, 1000.0)

ALL_INDEXES = [
    pytest.param(lambda: PointQuadtree(), id="quadtree"),
    pytest.param(lambda: LinearScanIndex(), id="linear"),
    pytest.param(lambda: ColumnarIndex(capacity=8), id="columnar"),
    # One starting slot: every batch crosses the growth path mid-flight.
    pytest.param(lambda: ColumnarIndex(capacity=1), id="columnar-one-slot"),
]


@pytest.fixture(params=ALL_INDEXES)
def factory(request):
    return request.param


def _walker_population(n, seed):
    walkers = {
        f"w{i}": RandomWaypointWalker(
            AREA, seed=seed * 10_000 + i, min_speed=1.0, max_speed=30.0
        )
        for i in range(n)
    }
    return walkers


def _baseline_pair(factory, walkers):
    """(index under test, baseline index fed through remove+insert)."""
    index = factory()
    baseline = factory()
    for oid, walker in walkers.items():
        index.insert(oid, walker.position)
        baseline.insert(oid, walker.position)
    return index, baseline


def _assert_equivalent(index, baseline, rng):
    assert dict(index.items()) == dict(baseline.items())
    for _ in range(10):
        x1, x2 = sorted((rng.uniform(0, 1000), rng.uniform(0, 1000)))
        y1, y2 = sorted((rng.uniform(0, 1000), rng.uniform(0, 1000)))
        rect = Rect(x1, y1, x2, y2)
        assert sorted(index.query_rect(rect)) == sorted(baseline.query_rect(rect))
    for _ in range(10):
        probe = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
        got = index.nearest(probe, k=5)
        expected = baseline.nearest(probe, k=5)
        assert [(h.object_id, h.point) for h in got] == [
            (h.object_id, h.point) for h in expected
        ]


class TestWaypointEquivalence:
    """update / update_many vs remove+insert under waypoint movement."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sequential_update_matches_remove_insert(self, factory, seed):
        rng = random.Random(seed)
        walkers = _walker_population(60, seed)
        index, baseline = _baseline_pair(factory, walkers)
        base_update = SpatialIndex.update
        for _ in range(15):  # ticks
            for oid, walker in walkers.items():
                pos = walker.step(2.0)
                index.update(oid, pos)
                base_update(baseline, oid, pos)
            _assert_equivalent(index, baseline, rng)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_update_many_matches_remove_insert(self, factory, seed):
        rng = random.Random(seed)
        walkers = _walker_population(80, seed)
        index, baseline = _baseline_pair(factory, walkers)
        base_update = SpatialIndex.update
        for _ in range(12):
            moves = [(oid, walker.step(2.0)) for oid, walker in walkers.items()]
            index.update_many(moves)
            for oid, pos in moves:
                base_update(baseline, oid, pos)
            _assert_equivalent(index, baseline, rng)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_mixed_batches_with_jumps_and_churn(self, factory, seed):
        """Batches mixing small moves, region escapes, inserts, removals."""
        rng = random.Random(seed)
        walkers = _walker_population(50, seed)
        index, baseline = _baseline_pair(factory, walkers)
        base_update = SpatialIndex.update
        population = dict(walkers)
        next_id = len(population)
        for _ in range(10):
            moves = []
            for oid, walker in population.items():
                if rng.random() < 0.15:
                    # Teleport: guaranteed to escape any leaf region/MBR.
                    pos = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
                    walker.position = pos
                else:
                    pos = walker.step(2.0)
                moves.append((oid, pos))
            # Occasionally update the same object twice in one batch;
            # the last write must win, as in the sequential stream.
            if moves and rng.random() < 0.7:
                oid, _ = moves[rng.randrange(len(moves))]
                repeat = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
                population[oid].position = repeat
                moves.append((oid, repeat))
            index.update_many(moves)
            for oid, pos in moves:
                base_update(baseline, oid, pos)
            # Churn: remove a couple of objects, insert fresh ones.
            for _ in range(2):
                victim = rng.choice(sorted(population))
                del population[victim]
                index.remove(victim)
                baseline.remove(victim)
                fresh = f"w{next_id}"
                next_id += 1
                walker = RandomWaypointWalker(AREA, seed=next_id)
                population[fresh] = walker
                index.insert(fresh, walker.position)
                baseline.insert(fresh, walker.position)
            _assert_equivalent(index, baseline, rng)


class TestQueryRectMany:
    def test_matches_individual_queries(self, factory):
        rng = random.Random(11)
        walkers = _walker_population(120, 11)
        index, _ = _baseline_pair(factory, walkers)
        index.update_many((oid, w.step(5.0)) for oid, w in walkers.items())
        rects = []
        for _ in range(9):
            x1, x2 = sorted((rng.uniform(0, 1000), rng.uniform(0, 1000)))
            y1, y2 = sorted((rng.uniform(0, 1000), rng.uniform(0, 1000)))
            rects.append(Rect(x1, y1, x2, y2))
        batched = index.query_rect_many(rects)
        assert len(batched) == len(rects)
        for rect, hits in zip(rects, batched):
            assert sorted(hits) == sorted(index.query_rect(rect))

    def test_empty_batch(self, factory):
        index = factory()
        index.insert("a", Point(1, 1))
        assert index.query_rect_many([]) == []

    def test_disjoint_and_overlapping_rects(self, factory):
        index = factory()
        for i in range(30):
            index.insert(f"o{i}", Point(i * 10.0, i * 10.0))
        rects = [
            Rect(0, 0, 95, 95),
            Rect(50, 50, 200, 200),
            Rect(5000, 5000, 6000, 6000),  # empty
            Rect(0, 0, 290, 290),  # everything
        ]
        results = index.query_rect_many(rects)
        assert {oid for oid, _ in results[0]} == {f"o{i}" for i in range(10)}
        assert {oid for oid, _ in results[1]} == {f"o{i}" for i in range(5, 21)}
        assert results[2] == []
        assert {oid for oid, _ in results[3]} == {f"o{i}" for i in range(30)}


class TestBatchEdgeCases:
    def test_update_many_unknown_id_raises(self, factory):
        index = factory()
        index.insert("a", Point(1, 1))
        with pytest.raises(KeyError):
            index.update_many([("a", Point(2, 2)), ("ghost", Point(0, 0))])
        # The move preceding the failure is applied (sequential semantics).
        assert index.get("a") == Point(2, 2)

    def test_update_many_empty(self, factory):
        index = factory()
        index.update_many([])
        assert len(index) == 0

    def test_update_many_accepts_generator(self, factory):
        index = factory()
        for i in range(5):
            index.insert(f"g{i}", Point(i, i))
        index.update_many((f"g{i}", Point(i + 0.5, i + 0.5)) for i in range(5))
        assert index.get("g3") == Point(3.5, 3.5)

    def test_upsert_single_lookup_semantics(self, factory):
        index = factory()
        index.upsert("a", Point(1, 1))
        assert index.get("a") == Point(1, 1)
        index.upsert("a", Point(2, 2))
        assert index.get("a") == Point(2, 2)
        assert len(index) == 1

    def test_bulk_load_duplicate_against_existing_raises(self, factory):
        index = factory()
        index.insert("dup", Point(0, 0))
        with pytest.raises(KeyError):
            index.bulk_load([("fresh", Point(1, 1)), ("dup", Point(2, 2))])

    def test_bulk_load_duplicate_within_batch_raises(self, factory):
        index = factory()
        with pytest.raises(KeyError):
            index.bulk_load([("x", Point(1, 1)), ("x", Point(2, 2))])

    def test_bulk_load_then_query(self, factory):
        index = factory()
        entries = [(f"b{i}", Point(i * 7.0 % 1000, i * 13.0 % 1000)) for i in range(200)]
        index.bulk_load(entries)
        assert len(index) == 200
        assert dict(index.items()) == dict(entries)
        rect = Rect(0, 0, 500, 500)
        expected = {oid for oid, p in entries if rect.contains_point(p)}
        assert {oid for oid, _ in index.query_rect(rect)} == expected

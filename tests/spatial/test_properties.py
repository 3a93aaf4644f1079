"""Property-based tests: every real index agrees with the linear oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import Point, Rect
from repro.spatial import ColumnarIndex, LinearScanIndex, PointQuadtree
from repro.spatial.base import NeighborHit, keep_nearest

coord = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
point = st.builds(Point, coord, coord)

FACTORIES = [
    pytest.param(lambda: PointQuadtree(), id="quadtree"),
    # Tiny starting capacity so hypothesis batches force growth + reuse.
    pytest.param(lambda: ColumnarIndex(capacity=4), id="columnar"),
]


@st.composite
def entry_batches(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    pts = draw(st.lists(point, min_size=n, max_size=n))
    return [(f"e{i}", p) for i, p in enumerate(pts)]


@st.composite
def query_rects(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


@pytest.mark.parametrize("factory", FACTORIES)
class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(batch=entry_batches(), rect=query_rects())
    def test_rect_query_matches_oracle(self, factory, batch, rect):
        index = factory()
        oracle = LinearScanIndex()
        for oid, p in batch:
            index.insert(oid, p)
            oracle.insert(oid, p)
        assert {oid for oid, _ in index.query_rect(rect)} == {
            oid for oid, _ in oracle.query_rect(rect)
        }

    @settings(max_examples=60, deadline=None)
    @given(batch=entry_batches(), probe=point, k=st.integers(min_value=1, max_value=8))
    def test_nearest_matches_oracle_distances(self, factory, batch, probe, k):
        index = factory()
        oracle = LinearScanIndex()
        for oid, p in batch:
            index.insert(oid, p)
            oracle.insert(oid, p)
        got = index.nearest(probe, k=k)
        expected = oracle.nearest(probe, k=k)
        # Distances must agree exactly; ids may differ only on ties.
        assert [h.distance for h in got] == pytest.approx(
            [h.distance for h in expected]
        )
        assert [h.object_id for h in got] == [h.object_id for h in expected]

    @settings(max_examples=40, deadline=None)
    @given(
        batch=entry_batches(),
        removals=st.sets(st.integers(min_value=0, max_value=59)),
        rect=query_rects(),
    )
    def test_removal_sequences_match_oracle(self, factory, batch, removals, rect):
        index = factory()
        oracle = LinearScanIndex()
        for oid, p in batch:
            index.insert(oid, p)
            oracle.insert(oid, p)
        for i in removals:
            oid = f"e{i}"
            if oracle.get(oid) is not None:
                index.remove(oid)
                oracle.remove(oid)
        assert dict(index.items()) == dict(oracle.items())
        assert {oid for oid, _ in index.query_rect(rect)} == {
            oid for oid, _ in oracle.query_rect(rect)
        }

    @settings(max_examples=40, deadline=None)
    @given(
        batch=entry_batches(),
        moves=st.lists(
            st.tuples(st.integers(min_value=0, max_value=59), point), max_size=30
        ),
        probe=point,
    )
    def test_update_sequences_match_oracle(self, factory, batch, moves, probe):
        index = factory()
        oracle = LinearScanIndex()
        for oid, p in batch:
            index.insert(oid, p)
            oracle.insert(oid, p)
        for i, new_point in moves:
            oid = f"e{i}"
            if oracle.get(oid) is not None:
                index.update(oid, new_point)
                oracle.update(oid, new_point)
        got = index.nearest(probe, k=5)
        expected = oracle.nearest(probe, k=5)
        assert [h.object_id for h in got] == [h.object_id for h in expected]


class TestQuadtreeSpecifics:
    def test_duplicate_coordinates_supported(self):
        tree = PointQuadtree()
        p = Point(5, 5)
        for i in range(10):
            tree.insert(f"dup{i}", p)
        assert len(tree) == 10
        assert {oid for oid, _ in tree.query_rect(Rect(5, 5, 5, 5))} == {
            f"dup{i}" for i in range(10)
        }
        tree.remove("dup4")
        assert len(tree) == 9
        assert tree.get("dup4") is None

    def test_sorted_insert_then_query(self):
        """Pathological (sorted) insert order must still answer correctly."""
        tree = PointQuadtree()
        for i in range(500):
            tree.insert(f"o{i}", Point(float(i), float(i)))
        hits = {oid for oid, _ in tree.query_rect(Rect(100, 100, 110, 110))}
        assert hits == {f"o{i}" for i in range(100, 111)}

    def test_bulk_load_bounds_depth(self):
        tree = PointQuadtree(shuffle_seed=1)
        tree.bulk_load((f"o{i}", Point(float(i), float(i))) for i in range(1000))
        # Shuffled insertion keeps a diagonal workload's depth near log4(n).
        assert tree.depth() < 60

    def test_depth_of_empty_tree(self):
        assert PointQuadtree().depth() == 0


class TestKeepNearest:
    """The bounded top-k every index's ``nearest`` folds its hits into."""

    @settings(max_examples=80, deadline=None)
    @given(
        distances=st.lists(st.integers(min_value=0, max_value=20), max_size=40),
        k=st.integers(min_value=1, max_value=12),
    )
    def test_keeps_the_k_smallest_in_distance_then_id_order(self, distances, k):
        hits = [
            NeighborHit(f"o{i:02d}", Point(0.0, 0.0), float(d))
            for i, d in enumerate(distances)
        ]
        best: list[NeighborHit] = []
        for hit in hits:
            keep_nearest(best, hit, k)
        expected = sorted(hits, key=lambda h: (h.distance, h.object_id))[:k]
        assert best == expected

    def test_full_list_rejects_a_tie_with_a_larger_id(self):
        best = [NeighborHit("a", Point(0, 0), 1.0), NeighborHit("b", Point(0, 0), 2.0)]
        keep_nearest(best, NeighborHit("c", Point(0, 0), 2.0), k=2)
        assert [h.object_id for h in best] == ["a", "b"]
        keep_nearest(best, NeighborHit("aa", Point(0, 0), 2.0), k=2)
        assert [h.object_id for h in best] == ["a", "aa"]

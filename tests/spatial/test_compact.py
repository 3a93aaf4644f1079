"""Tests for the quadtree orphan bulk rebuild."""

import random

from repro.geo import Point, Rect
from repro.spatial import LinearScanIndex, PointQuadtree
from repro.spatial.quadtree import _BULK_REINSERT_THRESHOLD


class TestQuadtreeOrphanRebuild:
    def test_large_orphan_set_rebuild_keeps_entries(self):
        # Insert a sorted diagonal under one root so removing the root
        # orphans a large (> threshold) chain, then verify every entry
        # survives the shuffled rebuild and queries match the oracle.
        tree, oracle = PointQuadtree(shuffle_seed=5), LinearScanIndex()
        count = _BULK_REINSERT_THRESHOLD * 3
        for i in range(count):
            p = Point(float(i), float(i))
            tree.insert(f"o{i}", p)
            oracle.insert(f"o{i}", p)
        tree.remove("o0")
        oracle.remove("o0")
        assert len(tree) == count - 1
        assert sorted(tree.items()) == sorted(oracle.items())
        rect = Rect(0, 0, count / 2, count / 2)
        assert sorted(tree.query_rect(rect)) == sorted(oracle.query_rect(rect))

    def test_shuffled_rebuild_reduces_chain_depth(self):
        tree = PointQuadtree(shuffle_seed=1)
        count = 200
        for i in range(count):
            tree.insert(f"o{i}", Point(float(i), float(i)))
        # The sorted insert built a pure chain; removing the root
        # triggers the bulk rebuild of all remaining entries.
        assert tree.depth() == count
        tree.remove("o0")
        assert tree.depth() < count / 2

    def test_small_orphan_sets_keep_exact_semantics(self):
        rng = random.Random(9)
        tree, oracle = PointQuadtree(shuffle_seed=2), LinearScanIndex()
        for i in range(64):
            p = Point(rng.uniform(0, 100), rng.uniform(0, 100))
            tree.insert(f"o{i}", p)
            oracle.insert(f"o{i}", p)
        for i in range(0, 64, 3):
            tree.remove(f"o{i}")
            oracle.remove(f"o{i}")
        assert sorted(tree.items()) == sorted(oracle.items())

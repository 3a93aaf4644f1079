"""Property-based and stress tests of the whole distributed service.

The central invariants, checked after arbitrary operation sequences:

1. **path integrity** — every tracked object has exactly one agent and a
   complete root-to-agent forwarding path (``check_consistency``);
2. **oracle equivalence** — distributed answers equal a centralized
   evaluation of the pure Section-3 semantics over the true object set;
3. **conservation** — objects never duplicate or vanish except through
   explicit deregistration or leaving the service area.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CacheConfig, LocationService, build_quad_hierarchy
from repro.geo import Point, Rect
from repro.model import (
    NearestNeighborQuery,
    RangeQuery,
    nearest_neighbor,
    range_query as oracle_range,
)

ROOT = Rect(0, 0, 1600, 1600)


def oracle_entries(svc):
    entries = []
    for server in svc.servers.values():
        if server.is_leaf:
            for oid in server.store.sightings.object_ids():
                entries.append((oid, server.store.position_query(oid)))
    return entries


class TestRandomWalkEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_operations_preserve_invariants(self, seed):
        rng = random.Random(seed)
        svc = LocationService(
            build_quad_hierarchy(ROOT, depth=2),
            cache_config=CacheConfig.all_enabled() if seed % 2 else None,
        )
        objects = {}
        positions = {}
        for i in range(12):
            pos = Point(rng.uniform(0, 1600), rng.uniform(0, 1600))
            objects[f"o{i}"] = svc.register(f"o{i}", pos)
            positions[f"o{i}"] = pos

        for _ in range(30):
            oid = rng.choice(list(objects))
            action = rng.random()
            if action < 0.55:
                pos = Point(rng.uniform(0, 1600), rng.uniform(0, 1600))
                svc.update(objects[oid], pos)
                positions[oid] = pos
            elif action < 0.8:
                ld = svc.pos_query(
                    oid, entry_server=rng.choice(svc.hierarchy.leaf_ids())
                )
                assert ld is not None
                assert ld.pos == positions[oid]
            else:
                query = RangeQuery(
                    Rect.from_center(
                        Point(rng.uniform(200, 1400), rng.uniform(200, 1400)),
                        rng.uniform(100, 600),
                        rng.uniform(100, 600),
                    ),
                    req_acc=60.0,
                    req_overlap=0.3,
                )
                answer = svc.range_query(
                    query.area,
                    req_acc=60.0,
                    req_overlap=0.3,
                    entry_server=rng.choice(svc.hierarchy.leaf_ids()),
                )
                expected = oracle_range(oracle_entries(svc), query)
                assert list(answer.entries) == expected
        svc.settle()
        svc.check_consistency()
        assert svc.total_tracked() == len(objects)
        assert svc.loop.task_errors == []

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_nn_queries_match_oracle_after_churn(self, seed):
        rng = random.Random(seed)
        svc = LocationService(build_quad_hierarchy(ROOT, depth=1))
        objects = {}
        for i in range(15):
            pos = Point(rng.uniform(0, 1600), rng.uniform(0, 1600))
            objects[f"o{i}"] = svc.register(f"o{i}", pos)
        for _ in range(10):
            oid = rng.choice(list(objects))
            svc.update(objects[oid], Point(rng.uniform(0, 1600), rng.uniform(0, 1600)))
        probe = Point(rng.uniform(0, 1600), rng.uniform(0, 1600))
        near_qual = rng.uniform(0, 400)
        answer = svc.neighbor_query(
            probe,
            req_acc=60.0,
            near_qual=near_qual,
            entry_server=rng.choice(svc.hierarchy.leaf_ids()),
        )
        expected = nearest_neighbor(
            oracle_entries(svc),
            NearestNeighborQuery(probe, req_acc=60.0, near_qual=near_qual),
        )
        assert answer.result.nearest == expected.nearest
        assert set(answer.result.near_set) == set(expected.near_set)
        assert answer.result.guaranteed_min_distance == pytest.approx(
            expected.guaranteed_min_distance
        )


class TestConservation:
    def test_objects_conserved_through_heavy_churn(self):
        rng = random.Random(99)
        svc = LocationService(build_quad_hierarchy(ROOT, depth=2))
        objects = {}
        for i in range(25):
            pos = Point(rng.uniform(0, 1600), rng.uniform(0, 1600))
            objects[f"o{i}"] = svc.register(f"o{i}", pos)
        alive = set(objects)
        for step in range(120):
            oid = rng.choice(sorted(alive)) if alive else None
            if oid is None:
                break
            roll = rng.random()
            if roll < 0.75:
                svc.update(objects[oid], Point(rng.uniform(0, 1600), rng.uniform(0, 1600)))
            elif roll < 0.85:
                svc.deregister(objects[oid])
                alive.discard(oid)
            else:
                # Walk out of the service area: auto-deregistration.
                res = svc.update(objects[oid], Point(5000, 5000))
                assert res.deregistered
                alive.discard(oid)
        svc.settle()
        svc.check_consistency()
        assert svc.total_tracked() == len(alive)
        for oid in objects:
            ld = svc.pos_query(oid)
            assert (ld is not None) == (oid in alive)

    def test_interleaved_concurrent_handovers(self):
        """Many objects bouncing across the same boundary concurrently."""
        svc = LocationService(build_quad_hierarchy(ROOT, depth=1))
        objs = [svc.register(f"o{i}", Point(700, 100 + i * 50.0)) for i in range(10)]

        async def bounce(obj, flips):
            for i in range(flips):
                x = 900.0 if i % 2 == 0 else 700.0
                await obj.report(Point(x, obj.policy.estimate(obj.ctx.now()).y))

        async def run_all():
            tasks = [
                svc.loop.create_task(bounce(obj, 6), name=f"bounce-{i}")
                for i, obj in enumerate(objs)
            ]
            for task in tasks:
                await task

        svc.run(run_all())
        svc.settle()
        svc.check_consistency()
        assert svc.total_tracked() == 10
        assert svc.loop.task_errors == []

"""The range fan-out — many queries at once (``evaluate_range_many``)
and a client's single ``RangeQueryReq`` — against a flat-store oracle."""

import random

from repro.cluster import MigrationExecutor, PlannerConfig, RebalancePlanner
from repro.core import CacheConfig
from repro.geo import Point, Rect
from repro.model import RangeQuery
from repro.sim.scenario import table2_service
from repro.storage import LocalDataStore


def flat_oracle(svc) -> LocalDataStore:
    """One flat store holding every object any leaf of ``svc`` tracks."""
    oracle = LocalDataStore(ttl=1e9)
    for leaf_id in svc.hierarchy.leaf_ids():
        oracle.bulk_admit(svc.servers[leaf_id].store.export_leaf_entries())
    return oracle


def warm_area_cache(svc, entry_id: str) -> None:
    """One spanning query teaches ``entry_id`` every leaf's service area."""
    svc.range_query(svc.hierarchy.root_area(), req_acc=100.0, entry_server=entry_id)
    assert svc.servers[entry_id].caches.known_leaf_count() >= 3


def random_queries(rng, root: Rect, count: int) -> list[RangeQuery]:
    queries = []
    for _ in range(count):
        a = Point(rng.uniform(root.min_x, root.max_x), rng.uniform(root.min_y, root.max_y))
        b = Point(rng.uniform(root.min_x, root.max_x), rng.uniform(root.min_y, root.max_y))
        queries.append(
            RangeQuery(Rect.from_points(a, b), req_acc=100.0, req_overlap=0.5)
        )
    return queries


class TestEvaluateRangeMany:
    def assert_matches_flat_oracle(self, svc, entry_id, queries):
        """Three ways to one answer: the batch entry point, the client's
        single-query message, and a flat store that knows no hierarchy."""
        expected = [tuple(found) for found in flat_oracle(svc).range_query_many(queries)]
        assert svc.run(svc.servers[entry_id].evaluate_range_many(queries)) == expected
        client = svc.new_client(entry_server=entry_id)
        singles = [
            svc.run(client.range_query(q.area, req_acc=q.req_acc, req_overlap=q.req_overlap))
            for q in queries
        ]
        assert [answer.entries for answer in singles] == expected

    def test_matches_per_query_protocol(self):
        svc, _ = table2_service(object_count=400, seed=1)
        rng = random.Random(1)
        queries = random_queries(rng, svc.hierarchy.root_area(), 8)
        self.assert_matches_flat_oracle(svc, "root.0", queries)

    def test_matches_with_warm_area_cache(self):
        svc, _ = table2_service(
            object_count=400, seed=1, cache_config=CacheConfig(area_cache=True)
        )
        warm_area_cache(svc, "root.0")
        rng = random.Random(1)
        queries = random_queries(rng, svc.hierarchy.root_area(), 6) + [
            # clear of root.0, so the cached leaves tile the whole dispatch
            RangeQuery(Rect(900, 900, 1400, 1400), req_acc=100.0, req_overlap=0.5),
            RangeQuery(Rect(900, 100, 1400, 1400), req_acc=100.0, req_overlap=0.5),
        ]
        self.assert_matches_flat_oracle(svc, "root.0", queries)
        assert svc.servers["root.0"].caches.stats.area_hits >= 4  # batch + singles

    def test_cross_leaf_and_local_mix(self):
        svc, _ = table2_service(object_count=400, seed=2)
        queries = [
            RangeQuery(Rect(0, 0, 100, 100), req_acc=100.0, req_overlap=0.5),
            RangeQuery(Rect(700, 700, 800, 800), req_acc=100.0, req_overlap=0.5),
            RangeQuery(Rect(0, 0, 1500, 1500), req_acc=100.0, req_overlap=0.5),
            RangeQuery(Rect(1400, 1400, 1500, 1500), req_acc=100.0, req_overlap=0.5),
        ]
        self.assert_matches_flat_oracle(svc, "root.3", queries)

    def test_empty_batch(self):
        svc, _ = table2_service(object_count=10)
        server = svc.servers["root.0"]
        assert svc.run(server.evaluate_range_many([])) == []

    def test_whole_area_batch_counts_everything(self):
        svc, _ = table2_service(object_count=250, seed=3)
        server = svc.servers["root.1"]
        queries = [
            RangeQuery(svc.hierarchy.root_area(), req_acc=100.0, req_overlap=0.5)
        ] * 3
        results = svc.run(server.evaluate_range_many(queries))
        assert [len(r) for r in results] == [250, 250, 250]

    def test_batch_works_across_a_split_topology(self):
        svc, _ = table2_service(object_count=500, seed=4)
        planner = RebalancePlanner(PlannerConfig(split_load=1.0))
        executor = MigrationExecutor(svc)
        [executor.execute(plan) for plan in planner.plan(svc, {"root.0": 1e9})]
        rng = random.Random(5)
        queries = random_queries(rng, svc.hierarchy.root_area(), 6)
        entry = svc.hierarchy.leaf_ids()[0]
        self.assert_matches_flat_oracle(svc, entry, queries)

    def test_single_server_hierarchy(self):
        from repro.core import LocationService, build_grid_hierarchy
        from repro.model import SightingRecord

        svc = LocationService(build_grid_hierarchy(Rect(0, 0, 100, 100), []))
        server = svc.servers["root"]
        for i in range(20):
            server.store.register(
                SightingRecord(f"o{i}", 0.0, Point(i * 5.0, i * 5.0), 10.0),
                25.0,
                100.0,
                "t",
                now=0.0,
            )
        queries = [
            RangeQuery(Rect(0, 0, 50, 50), req_acc=100.0, req_overlap=0.5),
            RangeQuery(Rect(60, 60, 100, 100), req_acc=100.0, req_overlap=0.5),
        ]
        self.assert_matches_flat_oracle(svc, "root", queries)

"""Tests for the §6.5 leaf-server caches."""

import pytest

from repro.core import (
    CacheConfig,
    LocationService,
    build_quad_hierarchy,
    build_table2_hierarchy,
)
from repro.core.caching import LeafCaches
from repro.geo import Point, Rect
from repro.model import LocationDescriptor, RangeQuery


def make_service(**cache_kwargs):
    return LocationService(
        build_table2_hierarchy(), cache_config=CacheConfig(**cache_kwargs)
    )


class TestLeafCachesUnit:
    def test_disabled_caches_return_nothing(self):
        caches = LeafCaches(CacheConfig.disabled())
        caches.note_leaf_area("leaf", Rect(0, 0, 10, 10))
        caches.note_agent("obj", "leaf")
        caches.note_descriptor("obj", LocationDescriptor(Point(1, 1), 5.0), 0.0)
        assert caches.leaf_for_point(5, 5) is None
        assert caches.agent_of("obj") is None
        assert caches.fresh_descriptor("obj", 1.0, 100.0) is None

    def test_area_cache_point_lookup(self):
        caches = LeafCaches(CacheConfig(area_cache=True))
        caches.note_leaf_area("west", Rect(0, 0, 100, 100))
        caches.note_leaf_area("east", Rect(100, 0, 200, 100))
        assert caches.leaf_for_point(50, 50) == "west"
        assert caches.leaf_for_point(150, 50) == "east"
        assert caches.leaf_for_point(100, 50) == "east"  # half-open boundary
        assert caches.leaf_for_point(500, 50) is None

    def test_leaves_covering_requires_full_tiling(self):
        caches = LeafCaches(CacheConfig(area_cache=True))
        caches.note_leaf_area("west", Rect(0, 0, 100, 100))
        assert caches.leaves_covering(Rect(20, 20, 150, 80)) is None
        caches.note_leaf_area("east", Rect(100, 0, 200, 100))
        covering = caches.leaves_covering(Rect(20, 20, 150, 80))
        assert covering is not None
        assert {leaf for leaf, _ in covering} == {"west", "east"}

    def test_agent_cache_invalidation(self):
        caches = LeafCaches(CacheConfig(agent_cache=True))
        caches.note_agent("obj", "leaf-1")
        assert caches.agent_of("obj") == "leaf-1"
        caches.invalidate_agent("obj")
        assert caches.agent_of("obj") is None
        assert caches.stats.agent_stale == 1

    def test_descriptor_cache_ages_with_max_speed(self):
        caches = LeafCaches(CacheConfig(descriptor_cache=True, max_speed=10.0))
        caches.note_descriptor("obj", LocationDescriptor(Point(0, 0), 20.0), as_of=100.0)
        # At t=103 the aged accuracy is 20 + 3*10 = 50.
        hit = caches.fresh_descriptor("obj", now=103.0, req_acc=50.0)
        assert hit is not None
        assert hit.acc == pytest.approx(50.0)
        assert caches.fresh_descriptor("obj", now=103.1, req_acc=50.0) is None

    def test_descriptor_cache_requires_req_acc(self):
        caches = LeafCaches(CacheConfig(descriptor_cache=True))
        caches.note_descriptor("obj", LocationDescriptor(Point(0, 0), 5.0), as_of=0.0)
        assert caches.fresh_descriptor("obj", now=0.0, req_acc=None) is None


    def test_config_presets(self):
        assert not CacheConfig.disabled().any_enabled
        every = CacheConfig.all_enabled(max_speed=12.0)
        assert every.area_cache and every.agent_cache and every.descriptor_cache
        assert every.max_speed == 12.0
        assert CacheConfig(descriptor_cache=True).any_enabled

    def test_holds_route_to_counts_agent_entries(self):
        caches = LeafCaches(CacheConfig(agent_cache=True))
        caches.note_agent("a", "leaf-1")
        caches.note_agent("b", "leaf-1")
        caches.note_agent("a", "leaf-2")  # re-point releases one reference
        assert caches.holds_route_to("leaf-1")
        assert caches.holds_route_to("leaf-2")
        caches.invalidate_agent("b")
        assert not caches.holds_route_to("leaf-1")
        assert caches.holds_route_to("leaf-2")

    def test_forget_server_drops_every_route_to_it(self):
        caches = LeafCaches(CacheConfig(area_cache=True, agent_cache=True))
        caches.note_leaf_area("west", Rect(0, 0, 100, 100))
        caches.note_leaf_area("east", Rect(100, 0, 200, 100))
        caches.note_agent("a", "west")
        caches.note_agent("b", "west")
        caches.note_agent("c", "east")
        caches.forget_server("west")
        assert not caches.holds_route_to("west")
        assert caches.leaf_for_point(50, 50) is None
        assert caches.agent_of("a") is None and caches.agent_of("b") is None
        assert caches.agent_of("c") == "east"
        assert caches.leaf_for_point(150, 50) == "east"

    def test_apply_invalidation_forgets_and_learns(self):
        caches = LeafCaches(CacheConfig(area_cache=True))
        caches.note_leaf_area("old", Rect(0, 0, 100, 100))
        caches.apply_invalidation(
            forget=("old",),
            learned=(("sw", Rect(0, 0, 50, 50)), ("ne", Rect(50, 50, 100, 100))),
        )
        assert not caches.holds_route_to("old")
        assert caches.leaf_for_point(10, 10) == "sw"
        assert caches.leaf_for_point(60, 60) == "ne"
        assert caches.leaf_for_point(60, 10) is None  # not learned yet
        assert caches.stats.invalidations_applied == 1

    def test_invalidation_is_not_counted_without_caches(self):
        caches = LeafCaches(CacheConfig.disabled())
        caches.apply_invalidation(forget=("old",), learned=(("sw", Rect(0, 0, 1, 1)),))
        assert caches.stats.invalidations_applied == 0
        assert not caches.holds_route_to("sw")


class TestAgentCacheIntegration:
    def test_second_query_goes_direct(self):
        svc = make_service(agent_cache=True)
        svc.register("truck", Point(100, 100))
        client = svc.new_client(entry_server="root.3")
        assert svc.run(client.pos_query("truck")) is not None
        svc.network.stats.reset()
        assert svc.run(client.pos_query("truck")) is not None
        by_type = svc.network.stats.by_type
        # Direct probe: no hierarchy traversal.
        assert by_type.get("PosQueryDirect", 0) == 1
        assert by_type.get("PosQueryFwd", 0) == 0
        assert svc.servers["root.3"].caches.stats.agent_hits >= 1

    def test_stale_agent_falls_back(self):
        svc = make_service(agent_cache=True)
        obj = svc.register("truck", Point(100, 100))
        client = svc.new_client(entry_server="root.3")
        svc.run(client.pos_query("truck"))
        # Hand the object over to another leaf, invalidating the cache.
        svc.update(obj, Point(1400, 100))
        svc.settle()
        svc.network.stats.reset()
        ld = svc.run(client.pos_query("truck"))
        assert ld.pos == Point(1400, 100)
        by_type = svc.network.stats.by_type
        assert by_type.get("PosQueryDirect", 0) == 1  # the failed probe
        assert by_type.get("PosQueryFwd", 0) >= 1  # the fallback
        assert svc.servers["root.3"].caches.stats.agent_stale == 1

    def test_correctness_under_churn(self):
        """Stale caches may cost hops but never wrong answers."""
        import random

        rng = random.Random(11)
        svc = make_service(agent_cache=True, area_cache=True)
        objects = {
            f"o{i}": svc.register(f"o{i}", Point(rng.uniform(0, 1500), rng.uniform(0, 1500)))
            for i in range(10)
        }
        client = svc.new_client(entry_server="root.0")
        positions = {}
        for _ in range(80):
            oid = rng.choice(list(objects))
            if rng.random() < 0.5:
                pos = Point(rng.uniform(0, 1500), rng.uniform(0, 1500))
                svc.update(objects[oid], pos)
                positions[oid] = pos
            else:
                ld = svc.run(client.pos_query(oid))
                if oid in positions:
                    assert ld.pos == positions[oid]
        svc.settle()
        assert svc.loop.task_errors == []
        svc.check_consistency()


class TestDescriptorCacheIntegration:
    def test_fresh_descriptor_answers_without_messages(self):
        svc = make_service(descriptor_cache=True, max_speed=10.0)
        svc.register("truck", Point(100, 100))
        client = svc.new_client(entry_server="root.3")
        assert svc.run(client.pos_query("truck", req_acc=500.0)) is not None
        svc.network.stats.reset()
        ld = svc.run(client.pos_query("truck", req_acc=500.0))
        assert ld is not None
        # Only the client round trip; no server-to-server traffic.
        by_type = svc.network.stats.by_type
        assert by_type.get("PosQueryFwd", 0) == 0
        assert by_type.get("PosQueryDirect", 0) == 0
        assert svc.servers["root.3"].caches.stats.descriptor_hits == 1

    def test_without_req_acc_bypasses_cache(self):
        svc = make_service(descriptor_cache=True)
        svc.register("truck", Point(100, 100))
        client = svc.new_client(entry_server="root.3")
        svc.run(client.pos_query("truck", req_acc=500.0))
        svc.network.stats.reset()
        svc.run(client.pos_query("truck"))  # authoritative query
        assert svc.network.stats.by_type.get("PosQueryFwd", 0) >= 1


class TestAreaCacheIntegration:
    def warm_area_cache(self, svc, entry="root.0"):
        """One spanning range query teaches the entry all leaf areas."""
        svc.range_query(
            Rect(100, 100, 1400, 1400), req_acc=60.0, req_overlap=0.1, entry_server=entry
        )

    def test_range_query_goes_direct_after_warmup(self):
        svc = make_service(area_cache=True)
        for i, (x, y) in enumerate([(100, 100), (1400, 100), (100, 1400), (1400, 1400)]):
            svc.register(f"o{i}", Point(x, y))
        self.warm_area_cache(svc)
        root_fwds_before = svc.servers["root"].stats.messages_handled.get("RangeQueryBatchFwd", 0)
        svc.network.stats.reset()
        answer = svc.range_query(
            Rect(1300, 1300, 1500, 1500), req_acc=60.0, req_overlap=0.3, entry_server="root.0"
        )
        assert {oid for oid, _ in answer.entries} == {"o3"}
        by_type = svc.network.stats.by_type
        # The root never sees the query: the fwd went straight to root.3.
        root_fwds_after = svc.servers["root"].stats.messages_handled.get("RangeQueryBatchFwd", 0)
        assert root_fwds_after == root_fwds_before
        assert by_type.get("RangeQueryBatchFwd", 0) == 1
        assert by_type.get("RangeQueryBatchSubRes", 0) == 1

    def test_batch_groups_direct_dispatch_per_cached_leaf(self):
        """Three queries clear of the entry leaf, two destination leaves:
        one direct forward per leaf, none through the root."""
        svc = make_service(area_cache=True)
        for i, (x, y) in enumerate([(100, 100), (1400, 100), (100, 1400), (1400, 1400)]):
            svc.register(f"o{i}", Point(x, y))
        self.warm_area_cache(svc)
        svc.network.stats.reset()
        queries = [
            RangeQuery(Rect(1300, 1300, 1500, 1500), req_acc=60.0, req_overlap=0.3),
            RangeQuery(Rect(900, 900, 1200, 1200), req_acc=60.0, req_overlap=0.3),
            RangeQuery(Rect(900, 50, 1450, 1450), req_acc=60.0, req_overlap=0.3),
        ]
        results = svc.run(svc.servers["root.0"].evaluate_range_many(queries))
        assert [{oid for oid, _ in found} for found in results] == [{"o3"}, set(), {"o1", "o3"}]
        # root.3 got its three items in one message, root.1 its one.
        assert svc.network.stats.by_type == {
            "RangeQueryBatchFwd": 2,
            "RangeQueryBatchSubRes": 2,
        }

    def test_direct_handover_repairs_path(self):
        svc = make_service(area_cache=True)
        obj = svc.register("truck", Point(700, 100))
        self.warm_area_cache(svc, entry="root.0")
        svc.network.stats.reset()
        svc.update(obj, Point(800, 100))  # into root.1, direct handover
        svc.settle()
        assert obj.agent == "root.1"
        by_type = svc.network.stats.by_type
        assert by_type.get("PathUpdate", 0) >= 1
        # The root's forwarding reference was repaired.
        assert svc.servers["root"].visitors.forward_ref("truck") == "root.1"
        assert "truck" not in svc.servers["root.0"].visitors
        svc.check_consistency()
        # Queries still find the object afterwards.
        assert svc.pos_query("truck", entry_server="root.2").pos == Point(800, 100)

    def test_direct_handover_multilevel_path_repair(self):
        svc = LocationService(
            build_quad_hierarchy(Rect(0, 0, 1600, 1600), depth=2),
            cache_config=CacheConfig(area_cache=True),
        )
        obj = svc.register("truck", Point(100, 100))
        # Warm the cache from the object's own entry leaf.
        svc.range_query(
            Rect(50, 50, 1550, 1550),
            req_acc=60.0,
            req_overlap=0.1,
            entry_server=obj.agent,
        )
        svc.update(obj, Point(1500, 1500))  # diagonal, crosses the root
        svc.settle()
        svc.check_consistency()
        assert svc.pos_query("truck", entry_server="root.0.0").pos == Point(1500, 1500)

"""Tests for the nearest-neighbor fan-out.

:meth:`LocationServer.evaluate_neighbors_many` answers many NN queries
with one ``NNCandidatesBatchFwd`` fan-out per expanding-ring round and
one batched ``query_rect_many`` candidate pass per involved leaf; a
client's ``NeighborQueryReq`` is the same ring loop with one query.
Both must match a flat store that knows no hierarchy.
"""

import random

import pytest

from repro.core import CacheConfig
from repro.geo import Point
from repro.model import NearestNeighborQuery, nearest_neighbor
from repro.sim.metrics import MessageLedger
from repro.sim.scenario import table2_service

from tests.cluster.test_migration import force_split
from tests.core.test_range_batch import flat_oracle, warm_area_cache


def random_queries(rng, count, req_acc=50.0):
    return [
        NearestNeighborQuery(
            Point(rng.uniform(0, 1500), rng.uniform(0, 1500)), req_acc=req_acc
        )
        for _ in range(count)
    ]


class TestBatchedNNEquivalence:
    @pytest.mark.parametrize("seed", [2, 9, 40])
    def test_matches_per_query_protocol(self, seed):
        self.assert_matches_flat_oracle(seed, area_cache=False)

    def test_matches_with_warm_area_cache(self):
        self.assert_matches_flat_oracle(seed=9, area_cache=True)

    def assert_matches_flat_oracle(self, seed, area_cache):
        """Three ways to one answer: the batch entry point, the client's
        single-query message, and every candidate of a flat store.  The
        small initial radius makes most queries take several rounds."""
        svc, homes = table2_service(
            object_count=400,
            seed=seed,
            cache_config=CacheConfig(area_cache=area_cache),
            nn_initial_radius=40.0,
        )
        entry = svc.hierarchy.leaf_ids()[seed % 4]
        if area_cache:
            warm_area_cache(svc, entry)
        rng = random.Random(seed + 1000)  # not the seed that placed the objects
        queries = random_queries(rng, 6)
        oracle = flat_oracle(svc)
        root_area = svc.hierarchy.root_area()
        expected = [
            nearest_neighbor(oracle.nn_candidates(root_area, q.req_acc), q) for q in queries
        ]
        assert svc.run(svc.servers[entry].evaluate_neighbors_many(queries)) == expected
        client = svc.new_client(entry_server=entry)
        singles = [
            svc.run(client.neighbor_query(q.pos, req_acc=q.req_acc)) for q in queries
        ]
        assert [answer.result for answer in singles] == expected
        assert max(answer.rounds for answer in singles) > 1
        if area_cache:  # probes clear of the entry leaf went direct
            assert svc.servers[entry].caches.stats.area_hits > 0

    def test_unsatisfiable_accuracy_returns_empty(self):
        svc, homes = table2_service(object_count=50, seed=3)
        server = svc.servers[svc.hierarchy.leaf_ids()[0]]
        queries = [NearestNeighborQuery(Point(700, 700), req_acc=0.001)]
        results = svc.run(server.evaluate_neighbors_many(queries))
        assert results[0].nearest is None

    def test_empty_batch_is_a_noop(self):
        svc, homes = table2_service(object_count=20, seed=4)
        server = svc.servers[svc.hierarchy.leaf_ids()[0]]
        assert svc.run(server.evaluate_neighbors_many([])) == []


class TestBatchedNNFanOutTraffic:
    def test_one_fanout_message_chain_per_round(self):
        """Six probes entering one leaf share each round's forwards: one
        per hop (entry → root → the three other leaves), not one per
        probe."""
        svc, homes = table2_service(object_count=300, seed=6)
        rng = random.Random(6)
        queries = random_queries(rng, 6)
        server = svc.servers[svc.hierarchy.leaf_ids()[0]]
        ledger = MessageLedger(svc.network.stats)
        _, rounds, _ = svc.run(server._execute_neighbors_many(queries))
        delta = ledger.delta()
        assert 1 <= delta["NNCandidatesBatchFwd"] <= 4 * max(rounds)


class TestInteriorEntryNNFanOut:
    def test_split_entry_server_still_evaluates_nn_batch(self):
        # A server reference held from before a split keeps answering —
        # the batch routes through its own fwd handler, as ranges do.
        svc, homes = table2_service(object_count=300, seed=12)
        server = svc.servers["root.0"]
        force_split(svc)
        assert not server.is_leaf
        rng = random.Random(12)
        queries = random_queries(rng, 4)
        results = svc.run(server.evaluate_neighbors_many(queries))
        assert len(results) == 4
        assert all(result.nearest is not None for result in results)

"""Tests for the nearest-neighbor fan-out.

:meth:`LocationServer.evaluate_neighbors_many` answers many NN queries
with one ``NNCandidatesBatchFwd`` fan-out per expanding-ring round, and
every involved leaf answers each probe with its share (its nearest
qualifying object and ``nearQual`` ring); a client's
``NeighborQueryReq`` is the same ring loop with one query.  Both must
match brute force over a flat store that knows no hierarchy, in the
same rounds as a ring over every candidate.
"""

import math
import random

import pytest

from repro.core import CacheConfig, LocationService, build_table2_hierarchy
from repro.core import messages as m
from repro.geo import Point, Rect
from repro.model import (
    LocationDescriptor,
    NearestNeighborQuery,
    SightingRecord,
    nearest_neighbor,
)
from repro.sim.metrics import MessageLedger
from repro.sim.scenario import table2_service
from repro.sim.workload import scatter_objects
from repro.storage import LocalDataStore

from tests.cluster.test_migration import force_split
from tests.core.test_range_batch import flat_oracle, warm_area_cache


def random_queries(rng, count, req_acc=50.0):
    return [
        NearestNeighborQuery(
            Point(rng.uniform(0, 1500), rng.uniform(0, 1500)), req_acc=req_acc
        )
        for _ in range(count)
    ]


def every_record(store: LocalDataStore, within: Rect | None = None) -> list:
    """``(id, descriptor)`` for each record of ``store`` (in ``within``),
    read straight off the records: no index, no probe."""
    return [
        (record.object_id, LocationDescriptor(record.pos, store.offered_acc(record.object_id)))
        for record in store.sightings.records()
        if within is None or within.contains_point(record.pos)
    ]


def brute_force(oracle: LocalDataStore, query: NearestNeighborQuery):
    """``query``'s answer over every record the flat store holds."""
    return nearest_neighbor(every_record(oracle), query)


def ring_replay(svc, oracle: LocalDataStore, query: NearestNeighborQuery, radius: float):
    """The expanding ring evaluated over *every* qualifying candidate in
    each probe — the entry server's view before leaves answered with
    shares: ``(result, rounds, servers_involved)``."""
    root = svc.hierarchy.root_area()
    leaf_areas = [svc.hierarchy.config(leaf).area for leaf in svc.hierarchy.leaf_ids()]
    involved = set()
    rounds = 0
    while True:
        rounds += 1
        probe = Rect.from_center(query.pos, 2 * radius, 2 * radius)
        dispatch = probe.intersection(root)
        involved |= {i for i, area in enumerate(leaf_areas) if dispatch.intersects(area)}
        result = nearest_neighbor(every_record(oracle, dispatch), query)
        if probe.contains_rect(root):
            return result, rounds, len(involved)
        nearest = result.nearest
        if nearest is not None and nearest[1].pos.distance_to(query.pos) + query.near_qual <= radius:
            return result, rounds, len(involved)
        radius *= 2.0


#: offered accuracies the mixed population cycles through.
MIXED_ACCURACIES = (15.0, 25.0, 60.0, 90.0)
#: exact distance ties across the leaf borders x = 750 and y = 750.
BORDER_TIES = {
    "tie-w": Point(730.0, 420.0),
    "tie-e": Point(770.0, 420.0),
    "tie-s": Point(1100.0, 730.0),
    "tie-n": Point(1100.0, 770.0),
}


def empty_service(backend: str = "objects", nn_initial_radius: float = 40.0):
    return LocationService(
        build_table2_hierarchy(1500.0),
        sighting_ttl=1e9,
        nn_initial_radius=nn_initial_radius,
        backend=backend,
    )


def place(svc, oid: str, pos: Point, offered_acc: float) -> None:
    """Register ``oid`` at its leaf with ``offered_acc``, forwarding
    paths installed as registration would."""
    hierarchy = svc.hierarchy
    leaf_id = hierarchy.leaf_for_point(pos)
    store = svc.servers[leaf_id].store
    store.register(SightingRecord(oid, 0.0, pos, 10.0), 25.0, 100.0, "test")
    store.visitors.set_offered_acc(oid, offered_acc)
    path = hierarchy.path_to_root(leaf_id)
    for below, above in zip(path, path[1:]):
        svc.servers[above].visitors.insert_forward(oid, below)


def mixed_service(backend: str, seed: int):
    """The Table-2 testbed with 400 scattered objects whose offered
    accuracies cycle through :data:`MIXED_ACCURACIES`, every eighth one
    sharing its predecessor's position, plus :data:`BORDER_TIES`."""
    svc = empty_service(backend)
    placed = scatter_objects(svc.hierarchy, 400, seed=seed, prefix="t2")
    for i, (oid, pos) in enumerate(placed):
        place(svc, oid, placed[i - 1][1] if i % 8 == 1 else pos, MIXED_ACCURACIES[i % 4])
    for oid, pos in BORDER_TIES.items():
        place(svc, oid, pos, 15.0)
    return svc


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
        expected = [brute_force(oracle, q) for q in queries]
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


class TestNNShareExactness:
    """Leaves answer a ring round with their share, not every candidate;
    the entry server must still answer as if it had every candidate."""

    @pytest.mark.parametrize("backend", ["objects", "columnar"])
    @pytest.mark.parametrize("req_acc", [10.0, 30.0, 70.0, float("inf")])
    @pytest.mark.parametrize("near_qual", [0.0, 5.0, 50.0])
    def test_matches_brute_force_and_the_full_candidate_ring(
        self, backend, req_acc, near_qual
    ):
        svc = mixed_service(backend, seed=7)
        oracle = flat_oracle(svc)
        rng = random.Random(70)
        duplicated = oracle.sightings.get("t2-0").pos  # t2-1 sits on it too
        positions = [Point(rng.uniform(0, 1500), rng.uniform(0, 1500)) for _ in range(5)]
        positions += [
            Point(750.0, 420.0),  # 20 m from tie-w and from tie-e
            Point(1100.0, 750.0),  # 20 m from tie-s and from tie-n
            Point(duplicated.x + 3.0, duplicated.y + 4.0),
        ]
        queries = [NearestNeighborQuery(p, req_acc=req_acc, near_qual=near_qual) for p in positions]
        expected = [brute_force(oracle, q) for q in queries]
        entry = svc.hierarchy.leaf_ids()[1]
        assert svc.run(svc.servers[entry].evaluate_neighbors_many(queries)) == expected
        client = svc.new_client(entry_server=entry)
        for query, answer in zip(queries, expected):
            single = svc.run(
                client.neighbor_query(query.pos, req_acc=req_acc, near_qual=near_qual)
            )
            replayed, rounds, servers = ring_replay(svc, oracle, query, radius=40.0)
            assert single.result == answer == replayed
            assert (single.rounds, single.servers_involved) == (rounds, servers)

    @pytest.mark.parametrize("backend", ["objects", "columnar"])
    @pytest.mark.parametrize("near_qual", [0.0, 50.0])
    def test_rare_qualifiers_in_a_crowd(self, backend, near_qual):
        """3 000 objects, one in forty fine enough: a leaf's first k-nearest
        probe seldom settles its share, so most shares come from the scan
        of the dispatch."""
        svc = empty_service(backend)
        placed = scatter_objects(svc.hierarchy, 3000, seed=5, prefix="c")
        for i, (oid, pos) in enumerate(placed):
            place(svc, oid, pos, 15.0 if i % 40 == 0 else 60.0)
        oracle = flat_oracle(svc)
        rng = random.Random(50)
        client = svc.new_client(entry_server=svc.hierarchy.leaf_ids()[2])
        for _ in range(6):
            pos = Point(rng.uniform(0, 1500), rng.uniform(0, 1500))
            query = NearestNeighborQuery(pos, req_acc=30.0, near_qual=near_qual)
            answer = svc.run(client.neighbor_query(pos, req_acc=30.0, near_qual=near_qual))
            replayed, rounds, servers = ring_replay(svc, oracle, query, radius=40.0)
            assert answer.result == brute_force(oracle, query) == replayed
            assert (answer.rounds, answer.servers_involved) == (rounds, servers)


    def test_probe_edge_rounding_does_not_end_the_ring_early(self):
        """An object one ulp outside the first probe square measures
        exactly ``r`` from the probe point.  Shares hold only objects in
        the dispatch, so it cannot end round one; it is found in round
        two, as with every candidate hauled."""
        svc = empty_service()
        query = NearestNeighborQuery(Point(50.0, 50.0), near_qual=0.0)
        outside = Point(math.nextafter(10.0, 0.0), 50.0)
        assert not Rect.from_center(query.pos, 80.0, 80.0).contains_point(outside)
        assert outside.distance_to(query.pos) == 40.0
        place(svc, "edge", outside, 15.0)
        place(svc, "corner", Point(85.0, 85.0), 15.0)  # in the square, 49.5 m
        client = svc.new_client(entry_server=svc.hierarchy.leaf_ids()[0])
        answer = svc.run(client.neighbor_query(query.pos, near_qual=0.0))
        replayed, rounds, servers = ring_replay(svc, flat_oracle(svc), query, radius=40.0)
        assert answer.result == replayed
        assert answer.result.nearest[0] == "edge"
        assert (answer.rounds, answer.servers_involved) == (rounds, servers) == (2, 1)


class TestBatchedNNFanOutTraffic:
    def test_leaf_sends_only_its_share(self, monkeypatch):
        """With ``nearQual`` 0 every sub-result triple carries the
        leaf's nearest object in the probe and its distance ties —
        never the probe's other candidates."""
        svc, _ = table2_service(object_count=400, seed=6)
        sent = []
        transmit = svc.network.transmit

        def spy(src, dst, message):
            sent.append(message)
            transmit(src, dst, message)

        monkeypatch.setattr(svc.network, "transmit", spy)
        client = svc.new_client(entry_server=svc.hierarchy.leaf_ids()[0])
        pos = Point(700.0, 720.0)
        answer = svc.run(client.neighbor_query(pos, near_qual=0.0))
        assert answer.result.nearest is not None
        items = {
            (msg.query_id, item.index): item
            for msg in sent
            if isinstance(msg, m.NNCandidatesBatchFwd)
            for item in msg.items
        }
        sub_results = [msg for msg in sent if isinstance(msg, m.NNCandidatesBatchSubRes)]
        assert len({msg.origin for msg in sub_results}) >= 2
        for msg in sub_results:
            leaf = svc.servers[msg.origin].store
            for index, entries, _ in msg.results:
                dispatch = items[msg.query_id, index].dispatch
                nearest = min(
                    d.pos.distance_to(pos) for _, d in every_record(leaf, dispatch)
                )
                assert {d.pos.distance_to(pos) for _, d in entries} == {nearest}


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

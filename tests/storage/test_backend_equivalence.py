"""Hypothesis: the columnar backend is observationally identical.

`LocalDataStore(backend="columnar")` must be indistinguishable from
`backend="objects"` through the public query surface, for *any*
interleaving of registration, movement, deregistration and expiry —
including the interleavings that exercise the columnar free-list
(deregister frees a slot, the next registration reuses it).  Hypothesis
drives both backends through identical operation sequences and compares
every observable after every step.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geo import Point, Rect
from repro.model import NearestNeighborQuery, RangeQuery, RegistrationInfo, SightingRecord
from repro.storage import BACKENDS, LocalDataStore

AREA = 1000.0

oid_idx = st.integers(min_value=0, max_value=11)
coord = st.floats(min_value=0.0, max_value=AREA, allow_nan=False)

register_op = st.tuples(st.just("register"), oid_idx, coord, coord)
update_op = st.tuples(st.just("update"), oid_idx, coord, coord)
deregister_op = st.tuples(st.just("deregister"), oid_idx, coord, coord)
expire_op = st.tuples(st.just("expire"), oid_idx, coord, coord)

ops_lists = st.lists(
    st.one_of(register_op, update_op, deregister_op, expire_op),
    min_size=1,
    max_size=50,
)


def make_store(backend: str) -> LocalDataStore:
    return LocalDataStore(backend=backend, ttl=30.0)


def apply_op(store: LocalDataStore, op, oid: str, x: float, y: float, now: float):
    """One operation; returns True when the guard let it run."""
    known = store.visitors.leaf_record(oid) is not None
    if op == "register":
        if known:
            return False
        store.register(
            SightingRecord(oid, now, Point(x, y), 10.0),
            des_acc=25.0,
            min_acc=100.0,
            registrar="prop",
            now=now,
        )
    elif op == "update":
        if not known:
            return False
        store.update(SightingRecord(oid, now, Point(x, y), 10.0), now=now)
    elif op == "deregister":
        if not known:
            return False
        store.deregister(oid)
    elif op == "expire":
        # TTL is 30; jumping `now` past every deadline sweeps the lot.
        store.expire_due(now + 100.0)
    return True


def observe(store: LocalDataStore, probe: Point):
    """Everything a client can see, as one comparable value."""
    rects = [
        Rect(0.0, 0.0, AREA / 2, AREA / 2),
        Rect(AREA / 4, AREA / 4, AREA, AREA),
        Rect(0.0, 0.0, AREA, AREA),
    ]
    range_hits = [
        sorted((oid, ld) for oid, ld in store.range_query(RangeQuery(r)))
        for r in rects
    ]
    nn = store.nearest_neighbor_query(
        NearestNeighborQuery(probe, req_acc=200.0, near_qual=100.0)
    )
    return (
        store.sighting_count,
        store.visitor_count,
        sorted(store.sightings.object_ids()),
        store.sightings.counts_in_rects(rects),
        range_hits,
        nn.nearest,
        sorted(nn.near_set or []),
    )


class TestBackendEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=ops_lists, probe_x=coord, probe_y=coord)
    def test_any_op_interleaving_is_observationally_identical(
        self, ops, probe_x, probe_y
    ):
        columnar = make_store("columnar")
        objects = make_store("objects")
        probe = Point(probe_x, probe_y)
        now = 0.0
        for op, idx, x, y in ops:
            now += 1.0
            oid = f"obj-{idx}"
            ran_a = apply_op(columnar, op, oid, x, y, now)
            ran_b = apply_op(objects, op, oid, x, y, now)
            assert ran_a == ran_b
            assert observe(columnar, probe) == observe(objects, probe)

    @settings(max_examples=40, deadline=None)
    @given(
        reused=st.lists(oid_idx, min_size=1, max_size=8, unique=True),
        xs=st.lists(coord, min_size=8, max_size=8),
        ys=st.lists(coord, min_size=8, max_size=8),
    )
    def test_free_list_reuse_after_deregistration(self, reused, xs, ys):
        """Deregister a subset, re-register into the freed slots, and the
        backends must still agree — the columnar free-list hands back
        recycled rows whose stale column values must be invisible."""
        columnar = make_store("columnar")
        objects = make_store("objects")
        for store in (columnar, objects):
            for i in range(12):
                store.register(
                    SightingRecord(f"obj-{i}", 0.0, Point(float(i * 70), 50.0), 10.0),
                    des_acc=25.0,
                    min_acc=100.0,
                    registrar="prop",
                )
        for idx in reused:
            columnar.deregister(f"obj-{idx}")
            objects.deregister(f"obj-{idx}")
        probe = Point(AREA / 2, AREA / 2)
        assert observe(columnar, probe) == observe(objects, probe)
        for j, idx in enumerate(reused):
            rec = SightingRecord(f"re-{idx}", 1.0, Point(xs[j % 8], ys[j % 8]), 10.0)
            columnar.register(rec, des_acc=25.0, min_acc=100.0, registrar="prop", now=1.0)
            objects.register(rec, des_acc=25.0, min_acc=100.0, registrar="prop", now=1.0)
            assert observe(columnar, probe) == observe(objects, probe)


REG = RegistrationInfo("prop", 25.0, 100.0)

deregister_many_op = st.tuples(st.just("deregister_many"), st.lists(oid_idx, max_size=6))
admit_op = st.tuples(
    st.just("admit"), st.lists(st.tuples(oid_idx, coord, coord), min_size=2, max_size=6)
)
batch_ops_lists = st.lists(
    st.one_of(register_op, update_op, deregister_many_op, admit_op, expire_op),
    min_size=1,
    max_size=40,
)


def apply_batch_op(store: LocalDataStore, step, now: float, per_item: bool) -> None:
    """One step of a batched interleaving: an envelope's departures
    (``deregister_many``, unknown ids included) or arrivals
    (``admit_handover_many``, known ids included), either as one call
    or as the equivalent sequence of per-item calls."""
    op = step[0]
    if op == "deregister_many":
        ids = [f"obj-{idx}" for idx in step[1]]
        if per_item:
            for oid in ids:
                store.deregister(oid)
        else:
            store.deregister_many(ids)
    elif op == "admit":
        arrivals = [
            (SightingRecord(f"obj-{idx}", now, Point(x, y), 10.0), REG) for idx, x, y in step[1]
        ]
        if per_item:
            for arrival in arrivals:
                store.admit_handover_many([arrival], now=now)
        else:
            store.admit_handover_many(arrivals, now=now)
    else:
        _, idx, x, y = step
        apply_op(store, op, f"obj-{idx}", x, y, now)


def slot_layout(store: LocalDataStore):
    index = store.sightings._index
    return list(index._free), dict(index._slot_of), index._next


class TestBatchEqualsPerItem:
    @settings(max_examples=60, deadline=None)
    @given(ops=batch_ops_lists, probe_x=coord, probe_y=coord)
    @example(  # two departures free two slots; an envelope's arrivals reuse them
        ops=[
            ("admit", [(0, 10.0, 10.0), (1, 20.0, 20.0), (2, 30.0, 30.0)]),
            ("deregister_many", [2, 0, 7]),
            ("admit", [(3, 40.0, 40.0), (1, 50.0, 50.0), (4, 60.0, 60.0)]),
        ],
        probe_x=0.0,
        probe_y=0.0,
    )
    def test_batched_departures_and_arrivals(self, ops, probe_x, probe_y):
        """Both backends answer identically under batched departures and
        arrivals, and the columnar store's free list and id → slot map
        match the per-item calls' (slot reuse feeds the payload goldens)."""
        batched = {backend: make_store(backend) for backend in BACKENDS}
        per_item = make_store("columnar")
        probe = Point(probe_x, probe_y)
        now = 0.0
        for step in ops:
            now += 1.0
            for store in batched.values():
                apply_batch_op(store, step, now, per_item=False)
            apply_batch_op(per_item, step, now, per_item=True)
            assert observe(batched["columnar"], probe) == observe(batched["objects"], probe)
            assert observe(per_item, probe) == observe(batched["objects"], probe)
            assert slot_layout(batched["columnar"]) == slot_layout(per_item)
            for store in (*batched.values(), per_item):
                assert sorted(store.visitors.object_ids()) == sorted(
                    batched["objects"].visitors.object_ids()
                )


@pytest.mark.parametrize("backend", BACKENDS)
def test_backends_constant_lists_every_lane(backend):
    store = make_store(backend)
    assert store.backend == backend


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        LocalDataStore(backend="arrow")

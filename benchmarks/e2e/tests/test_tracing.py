"""Span arithmetic, resume-to-suspend timing, and wrapper removal."""

import asyncio

import pytest

import tracing
from repro.core import client, server
from repro.core.client import LocationClient
from repro.net import transport, wire
from repro.runtime import validation
from repro.spatial.quadtree import PointQuadtree
from repro.storage import LocalDataStore


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        ["server.handler", 0.0, 10.0, None, "r1"],  # 10 s, children cover 4 + 1
        ["store.update_many", 1.0, 5.0, 0, "r1"],  # 4 s, child covers 3
        ["index.update_many", 1.5, 4.5, 1, "r1"],  # 3 s
        ["wire.encode_frame", 8.0, 9.0, 0, "r1"],  # 1 s
        # A task step *caused* by span 0 but run after it ended covers none of it.
        ["server.handler", 12.0, 13.0, 0, "r1"],
        # ... and one that straddles its cause's end covers only the overlap.
        ["sock.send_bytes", 9.5, 11.0, 0, "r1"],
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {
            "server.handler": (10.0 - 4.0 - 1.0 - 0.5) + 1.0,
            "store.update_many": 1.0,
            "index.update_many": 3.0,
            "wire.encode_frame": 1.0,
            "sock.send_bytes": 1.5,
        }
    )


def test_tracer_nests_spans_and_inherits_the_op():
    tracer = tracing.Tracer()
    outer = tracer.begin("server.deliver", op="leaf#7")
    inner = tracer.begin("validate.find_defect")
    tracer.end(inner)
    tracer.end(outer)
    spans, _counts = tracer.cut()
    assert [(s[0], s[3], s[4]) for s in spans] == [
        ("server.deliver", None, "leaf#7"),
        ("validate.find_defect", 0, "leaf#7"),
    ]
    assert tracer.cut()[0] == []  # a cut starts the next region empty


def test_async_code_is_timed_resume_to_suspend():
    tracer = tracing.Tracer()

    async def handler():
        await asyncio.sleep(0.05)
        await asyncio.sleep(0.05)
        return "done"

    async def scenario():
        return await asyncio.create_task(tracing._TimedCoroutine(handler(), tracer, "server.handler"))

    assert asyncio.run(scenario()) == "done"
    spans, _counts = tracer.cut()
    assert len(spans) == 3  # start -> first await -> second await -> return
    assert sum(tracing.self_times(spans).values()) < 0.02  # the 0.1 s asleep is not busy time


def _patched_names():
    return {
        "encode_frame in net.wire": wire.encode_frame,
        "encode_frame in net.transport": transport.encode_frame,
        "find_defect in runtime.validation": validation.find_defect,
        "find_defect in core.server": server.find_defect,
        "find_defect in core.client": client.find_defect,
        "FrameDecoder.feed": wire.FrameDecoder.feed,
        "SocketTransport.transmit": transport.SocketTransport.transmit,
        "LocationServer.deliver": server.LocationServer.deliver,
        "LocationClient.deliver": LocationClient.deliver,
        "LocalDataStore.update_many": LocalDataStore.update_many,
        "LocalDataStore.range_query": LocalDataStore.range_query,
        "PointQuadtree.query_rect": PointQuadtree.query_rect,
    }


def test_wrappers_are_gone_after_a_traced_pass():
    before = _patched_names()
    with tracing.installed(tracing.Tracer()):
        during = _patched_names()
        assert all(during[name] is not before[name] for name in before), "nothing was wrapped"
        assert all(hasattr(fn, "__wrapped__") for fn in during.values())
    after = _patched_names()
    assert all(after[name] is before[name] for name in before)
    # LocationClient inherits deliver; the wrapper shadowed it and must not linger.
    assert "deliver" not in vars(LocationClient)


def test_wrappers_are_removed_when_the_traced_pass_raises():
    before = _patched_names()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("pass failed")
    assert all(_patched_names()[name] is before[name] for name in before)


def test_lazy_index_scans_are_consumed_inside_their_span():
    tracer = tracing.Tracer()
    store = LocalDataStore()
    from repro.geo import Point, Rect
    from repro.model import RangeQuery, SightingRecord

    for n in range(50):
        store.register(SightingRecord(f"o{n}", 0.0, Point(10.0 + n, 10.0), 10.0), 25.0, 100.0, "t")
    query = RangeQuery(Rect(0.0, 0.0, 100.0, 100.0), req_acc=50.0, req_overlap=0.3)
    plain = store.range_query(query)
    with tracing.installed(tracer):
        traced = store.range_query(query)
    assert traced == plain
    spans, counts = tracer.cut()
    assert [s[0] for s in spans] == ["store.range_query", "index.query_rect"]
    assert counts["index.query_hits"] == 50 == counts["index.range_hits"]
    assert counts["store.range_entries"] == len(plain)

"""Wire codec: exact round-trips for the whole message catalog.

The property test does not enumerate message types by hand: it walks
``Message.__subclasses__`` (recursively, the way the codec's own
auto-registration does), synthesises instances from each dataclass's
resolved type hints, and requires ``decode(encode(x)) == x`` field for
field — so a message added to the catalog tomorrow is covered the day
it exists, or this test fails telling the author the codec cannot
carry it.
"""

import dataclasses
import random
import sys
import types
import typing
import zlib

import pytest

from repro.core import messages as m
from repro.errors import WireError
from repro.geo import Circle, Point, Polygon, Rect
from repro.geo.point import Vector
from repro.model import (
    LocationDescriptor,
    RegistrationInfo,
    SightingColumns,
    SightingRecord,
)
from repro.net import wire
from repro.net.wire import (
    FrameDecoder,
    decode_frame,
    decode_hierarchy,
    encode_frame,
    encode_hierarchy,
)
from repro.runtime.base import Message

from tests.net.frame_surgery import Record, f64s, frame, registered_types, strs, struct_of

# ---------------------------------------------------------------------------
# Instance synthesis from type hints
# ---------------------------------------------------------------------------

_POINT = Point(12.5, -3.25)
_SAMPLES = {
    str: lambda rng: f"s{rng.randrange(1000)}",
    int: lambda rng: rng.randrange(-5, 50),
    float: lambda rng: rng.choice([0.0, 1.5, -2.25, 1e9, float("inf")]),
    bool: lambda rng: rng.random() < 0.5,
    bytes: lambda rng: rng.randbytes(rng.randrange(40)),
    Point: lambda rng: Point(rng.uniform(-10, 10), rng.uniform(-10, 10)),
    Vector: lambda rng: Vector(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    Rect: lambda rng: Rect(0.0, 0.0, 10.0 + rng.random(), 20.0),
    Circle: lambda rng: Circle(_POINT, 5.0 + rng.random()),
    Polygon: lambda rng: Polygon(
        [Point(0, 0), Point(10 + rng.random(), 0), Point(5, 8)]
    ),
    # Validated records: synthesize values that satisfy their invariants
    # (acc >= 0, min_acc no tighter than des_acc).
    SightingRecord: lambda rng: SightingRecord(
        f"obj{rng.randrange(100)}", rng.uniform(0, 100), _POINT, rng.uniform(0, 20)
    ),
    RegistrationInfo: lambda rng: RegistrationInfo(
        f"reg{rng.randrange(100)}", 25.0, rng.choice([100.0, float("inf")])
    ),
    LocationDescriptor: lambda rng: LocationDescriptor(_POINT, rng.uniform(0, 50)),
}


def _register_validated_samples():
    from repro.core.events import AreaOccupancy, Proximity
    from repro.model import RangeQuery

    _SAMPLES[RangeQuery] = lambda rng: RangeQuery(
        Rect(0.0, 0.0, 100.0, 100.0), rng.choice([50.0, float("inf")]), 0.5
    )
    _SAMPLES[AreaOccupancy] = lambda rng: AreaOccupancy(
        Rect(0.0, 0.0, 40.0, 40.0), threshold=1 + rng.randrange(3), req_overlap=0.25
    )
    _SAMPLES[Proximity] = lambda rng: Proximity(
        "obj-a", f"obj-b{rng.randrange(10)}", rng.uniform(0, 30)
    )


_register_validated_samples()


def _synthesize(hint, rng, depth=0):
    """A value satisfying ``hint``, built recursively."""
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        # Exercise the None branch of optionals sometimes.
        if len(args) < len(typing.get_args(hint)) and rng.random() < 0.3:
            return None
        return _synthesize(rng.choice(args), rng, depth)
    if origin is tuple or hint is tuple:
        args = typing.get_args(hint)
        if not args:  # bare ``tuple`` (EventNotification.matched: object ids)
            return tuple(f"oid{i}" for i in range(rng.randrange(3)))
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(
                _synthesize(args[0], rng, depth + 1)
                for _ in range(rng.randrange(3) if depth else rng.randrange(1, 4))
            )
        return tuple(_synthesize(a, rng, depth + 1) for a in args)
    if hint in _SAMPLES:
        return _SAMPLES[hint](rng)
    if dataclasses.is_dataclass(hint):
        return _build(hint, rng, depth + 1)
    raise AssertionError(f"no synthesis rule for type hint {hint!r}")


def _build(cls, rng, depth=0):
    hints = typing.get_type_hints(cls)
    return cls(
        *[_synthesize(hints[f.name], rng, depth) for f in dataclasses.fields(cls)]
    )


def _assert_equal(a, b, context):
    if type(b) is SightingColumns:  # a seq of SightingRecord decodes into its view
        assert type(a) is tuple, (context, a, b)
        b = tuple(b)
    assert type(a) is type(b), (context, a, b)
    if isinstance(a, Polygon):
        assert a.points == b.points, context
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_equal(
                getattr(a, f.name), getattr(b, f.name), f"{context}.{f.name}"
            )
    elif isinstance(a, tuple):
        assert len(a) == len(b), context
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_equal(x, y, f"{context}[{i}]")
    else:
        assert a == b, (context, a, b)


def _live_message_types():
    """Every catalog Message subclass via ``__subclasses__`` — the
    satellite's auto-discovery contract — filtered to each module's
    live binding (``@dataclass(slots=True)`` leaves dead pre-slots
    classes behind) and to ``repro.*`` modules (a full-suite run also
    has other test files' throwaway message classes in memory)."""
    import repro.net.control  # noqa: F401  (the control plane and UDP fragments
    import repro.net.udp  # noqa: F401       are catalogue types too)

    def walk(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from walk(sub)

    seen = {}
    for sub in walk(Message):
        if not sub.__module__.startswith("repro."):
            continue
        module = sys.modules.get(sub.__module__)
        if module is not None and getattr(module, sub.__name__, None) is sub:
            seen[sub.__name__] = sub
    return sorted(seen.values(), key=lambda c: c.__name__)


class TestCatalogRoundTrip:
    def test_every_message_subclass_round_trips(self):
        rng = random.Random(7)
        catalog = _live_message_types()
        # The full protocol catalog plus the launcher control plane.
        assert len(catalog) > 50
        for cls in catalog:
            for _ in range(5):
                original = _build(cls, rng)
                src, dst, decoded = decode_frame(
                    encode_frame("a", "b", [original])
                )
                assert (src, dst) == ("a", "b")
                assert len(decoded) == 1
                _assert_equal(original, decoded[0], cls.__name__)

    def test_registry_covers_the_live_catalog(self):
        by_name = registered_types()
        for cls in _live_message_types():
            assert by_name.get(cls.__name__) is cls

    def test_nested_batch_round_trips_exactly(self):
        item = m.HandoverBatchItem(
            sighting=SightingRecord("t1", 4.0, _POINT, 10.0),
            reg_info=RegistrationInfo("client-7", 25.0, 100.0),
            previous_offered=50.0,
        )
        req = m.HandoverBatchReq(
            request_id="r1", reply_to="leaf-a", sender="leaf-b", items=(item, item)
        )
        _, _, (decoded,) = decode_frame(encode_frame("x", "y", [req]))
        assert decoded == req
        assert decoded.sender == "leaf-b"
        assert decoded.items[0].reg_info.registrar == "client-7"

    def test_infinite_accuracy_round_trips(self):
        req = m.PosQueryReq(
            request_id="r", reply_to="c", object_id="o", req_acc=float("inf")
        )
        _, _, (decoded,) = decode_frame(encode_frame("a", "b", [req]))
        assert decoded.req_acc == float("inf")

    def test_tuples_stay_tuples(self):
        res = m.UpdateBatchRes(
            request_id="r",
            outcomes=(m.UpdateOutcome("o1", True, agent="root.2"),),
        )
        _, _, (decoded,) = decode_frame(encode_frame("a", "b", [res]))
        assert isinstance(decoded.outcomes, tuple)
        assert isinstance(decoded.outcomes[0], m.UpdateOutcome)


class TestFraming:
    def test_multi_message_frame_preserves_order(self):
        pings = [
            m.PingReq(request_id=f"p{i}", reply_to="c") for i in range(20)
        ]
        _, _, decoded = decode_frame(encode_frame("a", "b", pings))
        assert decoded == pings

    def test_stream_reassembles_byte_by_byte(self):
        frame = encode_frame("a", "b", [m.PingReq(request_id="p", reply_to="c")])
        other = encode_frame("c", "d", [m.PingRes(request_id="q")])
        decoder = FrameDecoder()
        collected = []
        for chunk in (frame + other):
            collected.extend(decoder.feed(bytes([chunk])))
        assert len(collected) == 2
        assert collected[0][0:2] == ("a", "b")
        assert collected[1][0:2] == ("c", "d")
        assert decoder.pending_bytes == 0

    def test_bad_magic_resyncs_to_next_frame(self):
        good = encode_frame("a", "b", [m.PingReq(request_id="p", reply_to="c")])
        decoder = FrameDecoder()
        frames = decoder.feed(b"XXjunkjunk" + good)
        assert len(frames) == 1
        assert frames[0][:2] == ("a", "b")
        assert decoder.corrupted_frames >= 1
        assert decoder.pending_bytes == 0

    def test_bad_magic_raises_in_strict_decode(self):
        with pytest.raises(WireError):
            decode_frame(b"XX\x01\x00\x00\x00\x02{}")

    def test_newer_version_byte_still_decodes(self):
        # Forward compatibility: a peer one version ahead keeps the v3
        # layout; its frames must decode, not poison the stream.
        frame = bytearray(
            encode_frame("a", "b", [m.PingReq(request_id="p", reply_to="c")])
        )
        frame[2] = wire.WIRE_VERSION + 1
        decoder = FrameDecoder()
        frames = decoder.feed(bytes(frame))
        assert len(frames) == 1
        assert decoder.corrupted_frames == 0

    def test_zero_version_byte_is_corruption(self):
        good = encode_frame("a", "b", [m.PingReq(request_id="p", reply_to="c")])
        mangled = bytearray(good)
        mangled[2] = 0
        decoder = FrameDecoder()
        frames = decoder.feed(bytes(mangled) + good)
        assert len(frames) == 1
        assert decoder.corrupted_frames >= 1

    def test_checksum_mismatch_resyncs(self):
        good = encode_frame("a", "b", [m.PingReq(request_id="p", reply_to="c")])
        mangled = bytearray(good)
        mangled[-1] ^= 0xFF  # flip one payload bit: CRC must catch it
        decoder = FrameDecoder()
        frames = decoder.feed(bytes(mangled) + good)
        assert len(frames) == 1
        assert frames[0][:2] == ("a", "b")
        assert decoder.corrupted_frames >= 1

    def test_v1_frame_is_rejected_and_stream_resyncs(self):
        # A pre-checksum (version 1) frame is one more damage episode:
        # nothing un-CRC'd is ever delivered, and a valid v3 frame placed
        # right behind the v1 bytes still comes out.
        v3 = bytes(encode_frame("a", "b", [m.PingReq(request_id="p", reply_to="c")]))
        body = v3[wire.HEADER_SIZE :]
        v1 = wire.MAGIC + bytes([1]) + len(body).to_bytes(4, "big") + body
        decoder = FrameDecoder()
        assert decoder.feed(v1) == []
        assert decoder.corrupted_frames == 1
        frames = decoder.feed(v3)
        assert [frame[:2] for frame in frames] == [("a", "b")]
        assert frames[0][2] == [m.PingReq(request_id="p", reply_to="c")]
        assert decoder.pending_bytes == 0

    def test_v2_json_frame_is_rejected_and_stream_resyncs(self):
        # The retired version-2 layout (same header, a JSON text body) is
        # damage like version 1: counted, never parsed, and the v3 frame
        # right behind it still comes out.
        body = b'{"s":"a","d":"b","m":[{"t":"PingReq","f":["p","c"]}]}'
        v2 = (
            wire.MAGIC + bytes([2]) + len(body).to_bytes(4, "big")
            + zlib.crc32(body).to_bytes(4, "big") + body
        )
        v3 = encode_frame("a", "b", [m.PingReq(request_id="p", reply_to="c")])
        decoder = FrameDecoder()
        assert decoder.feed(v2) == []
        assert decoder.corrupted_frames == 1
        frames = decoder.feed(v3)
        assert frames == [("a", "b", [m.PingReq(request_id="p", reply_to="c")])]
        assert decoder.pending_bytes == 0 and decoder.skipped_messages == 0

    def test_unknown_message_type_skipped_not_fatal(self):
        # An unknown type from a newer peer drops that message only; the
        # rest of the frame is delivered and counted as skipped.
        ping = m.PingReq(request_id="p", reply_to="c")
        future = Record.of(m.PosQueryFwd("q", "o", "e"))
        future.name = "NoSuchFutureMessage"
        decoder = FrameDecoder()
        frames = decoder.feed(frame("a", "b", future, Record.of(ping)))
        assert frames == [("a", "b", [ping])]
        assert decoder.skipped_messages == 1
        assert decoder.corrupted_frames == 0

    def test_unknown_trailing_fields_ignored(self):
        # Schema evolution: a newer peer appending fields to a known
        # type must still round-trip into our (shorter) constructor —
        # at the top level and inside a nested value.
        ping = m.PingReq(request_id="p", reply_to="c")
        newer = Record.of(ping)
        newer.field_count += 1
        newer.columns += strs("future-field")
        assert wire.decode(frame("", "", newer)) == ping

        query = m.NeighborQueryReq("r", "c", Point(1.0, 2.0), 50.0, 0.0)
        newer = Record.of(query)
        point = struct_of(2, f64s(1.0), f64s(2.0))
        assert newer.columns.count(point) == 1
        newer.columns = newer.columns.replace(point, struct_of(3, f64s(1.0), f64s(2.0), f64s(9.0)))
        assert wire.decode(frame("", "", newer)) == query

    def test_missing_trailing_fields_take_defaults_or_are_refused(self):
        # The other direction: an older peer omits trailing fields.
        older = Record.of(m.PingRes(request_id="q", epoch=4))
        older.field_count, older.columns = 1, strs("q")
        assert wire.decode(frame("", "", older)) == m.PingRes(request_id="q")
        # ... but a field without a default cannot be made up.
        short = Record.of(m.PingReq(request_id="p", reply_to="c"))
        short.field_count, short.columns = 1, strs("p")
        decoder = FrameDecoder()
        assert decoder.feed(frame("a", "b", short)) == [("a", "b", [])]
        assert decoder.skipped_messages == 1

    def test_int_in_a_float_field_widens(self):
        # The wire is typed from the annotations: ``Rect(0, 0, 100, 100)``
        # arrives as floats (equal, not identical, to what was sent).
        req = m.RangeQueryReq("r", "c", Rect(0, 0, 100, 100), 50, 0.5)
        _, _, (decoded,) = decode_frame(encode_frame("a", "b", [req]))
        assert decoded == req
        assert type(decoded.area.max_x) is float and type(decoded.req_acc) is float

    def test_unencodable_field_value_raises_wire_error(self):
        bad = m.PingRes(request_id="q", epoch="three")
        with pytest.raises(WireError, match="cannot encode PingRes"):
            encode_frame("a", "b", [bad])

    def test_flush_rescues_frames_behind_corrupt_length(self):
        # A mutated length prefix can swallow a healthy trailing frame;
        # the datagram-boundary flush must dig it back out.
        good = encode_frame("a", "b", [m.PingReq(request_id="p", reply_to="c")])
        mangled = bytearray(good)
        mangled[4] = 0xFF  # length prefix now points far past the end
        decoder = FrameDecoder()
        frames = decoder.feed(bytes(mangled) + good)
        frames.extend(decoder.flush())
        assert len(frames) == 1
        assert frames[0][:2] == ("a", "b")
        assert decoder.corrupted_frames >= 1
        assert decoder.pending_bytes == 0

    def test_unknown_type_raises(self):
        # The strict single-value API does not skip: it raises.
        unknown = Record.of(m.PingReq(request_id="p", reply_to="c"))
        unknown.name = "NoSuchMessage"
        with pytest.raises(WireError, match="skipped"):
            wire.decode(frame("", "", unknown))

    def test_unregistered_class_raises_on_encode(self):
        @dataclasses.dataclass(frozen=True)
        class NeverRegistered:  # not a Message: the sweep never sees it
            x: int

        with pytest.raises(WireError, match="no wire encoding registered"):
            wire.encode(NeverRegistered(1))

    def test_register_name_collision_raises(self):
        class PingReq:  # same wire name as the real one, different class
            pass

        with pytest.raises(WireError, match="already registered"):
            wire.register_type(PingReq)

    def test_sweep_skips_colliding_out_of_tree_subclasses(self):
        # Two unrelated test modules may both define e.g. ``Pong``; the
        # opportunistic catalog sweep must not blow up the whole codec
        # over it — first one keeps the name, the latecomer is simply
        # not wire encodable.
        import dataclasses

        first = dataclasses.dataclass(frozen=True, slots=True)(
            type("SweepCollider", (Message,), {"__annotations__": {}})
        )
        second = dataclasses.dataclass(frozen=True, slots=True)(
            type("SweepCollider", (Message,), {"__annotations__": {}})
        )
        # Bind both as module attributes so the liveness filter keeps them.
        import sys

        mod = sys.modules[__name__]
        try:
            mod.SweepCollider = first
            registered_types()
            assert registered_types()["SweepCollider"] is first
            mod.SweepCollider = second
            registry = registered_types()  # no raise
            assert registry["SweepCollider"] is first
        finally:
            del mod.SweepCollider

    def test_unknown_names_cost_at_most_one_sweep(self, monkeypatch):
        # 200 records of names nobody defines, in one CRC-valid frame:
        # each miss used to re-walk every ``Message`` subclass.
        sweeps = []
        sweep = wire._refresh_message_types
        monkeypatch.setattr(wire, "_refresh_message_types", lambda: sweeps.append(sweep()))
        records = []
        for i in range(200):
            record = Record.of(m.PingRes(request_id="q"))
            record.name = f"Unknown{i}"
            records.append(record)
        decoder = FrameDecoder()
        assert decoder.feed(frame("a", "b", *records)) == [("a", "b", [])]
        assert decoder.skipped_messages == 200
        assert len(sweeps) <= 1

    def test_subclass_defined_after_a_sweep_is_found_on_its_first_miss(self):
        registered_types()
        late = dataclasses.dataclass(frozen=True, slots=True)(
            type("LateSweepMessage", (Message,), {"__annotations__": {"note": str}})
        )
        mod = sys.modules[__name__]
        mod.LateSweepMessage = late
        try:
            decoder = FrameDecoder()
            frames = decoder.feed(frame("a", "b", Record("LateSweepMessage", 1, strs("hi"))))
            assert frames == [("a", "b", [late("hi")])]
            assert decoder.skipped_messages == 0
        finally:
            del mod.LateSweepMessage


class TestHierarchyWire:
    def test_hierarchy_round_trips_with_epoch(self):
        from repro.core.hierarchy import build_quad_hierarchy

        h = build_quad_hierarchy(Rect(0, 0, 1000, 1000), depth=2)
        h.epoch = 5
        decoded = decode_hierarchy(encode_hierarchy(h))
        assert decoded.epoch == 5
        assert decoded.server_ids() == h.server_ids()
        for sid in h.server_ids():
            assert decoded.config(sid) == h.config(sid)

"""Decoded records are built by :func:`repro.runtime.schema.builder_of`.

Three contracts of the row builder the wire decoder (and the server's
write lane) builds records with instead of the dataclass ``__init__``:

* it is the constructor: same values, ``==``, ``hash``, frozenness and
  defaults for every wire type and every nested struct kind;
* it still runs every ``__post_init__`` record rule, so a bad item deep
  in a long column refuses its record over the wire;
* the string columns it is fed (one ASCII decode, then slices) carry
  any UTF-8 and refuse bad UTF-8, and the frames stay byte-identical.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.core import messages as m
from repro.core.events import AreaOccupancy, Proximity, SubscribeReq
from repro.geo import Point, Polygon, Rect
from repro.model import LocationDescriptor, RegistrationInfo, SightingRecord
from repro.model import queries
from repro.net.wire import FrameDecoder, decode_frame, encode_frame
from repro.runtime.schema import builder_of, schema_of

from tests.net.frame_surgery import Record, forged, frame
from tests.net.test_wire_codec import _assert_equal, _live_message_types, _synthesize

_P = Point(10.0, 20.0)


@dataclasses.dataclass(frozen=True, slots=True)
class _Tally:
    """A slotted record whose last field has a ``default_factory``."""

    examined: int = 0
    returned: int = 0
    servers: int = 1
    hops: int = 0
    extra: dict = dataclasses.field(default_factory=dict, compare=False)


def _struct_kinds(kind, found):
    """Every class a ``struct`` kind under ``kind`` names (recursively)."""
    if kind.tag == "struct":
        if kind.arg not in found:
            found.add(kind.arg)
            for field in schema_of(kind.arg):
                _struct_kinds(field.kind, found)
    elif kind.tag in ("opt", "seq"):
        _struct_kinds(kind.arg, found)
    elif kind.tag in ("tuple", "union"):
        for sub in kind.arg:
            _struct_kinds(sub, found)
    return found


def _wire_classes():
    """The live catalogue plus every nested struct kind it carries."""
    found = set()
    for cls in _live_message_types():
        found.add(cls)
        for field in schema_of(cls):
            _struct_kinds(field.kind, found)
    return sorted(found, key=lambda c: (c.__module__, c.__name__))


WIRE_CLASSES = _wire_classes()


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return type(exc)


class TestBuilderIsTheConstructor:
    @pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda c: c.__name__)
    def test_every_column_prefix_at_every_length(self, cls):
        rng = random.Random(cls.__name__)
        fields = schema_of(cls)
        objects = [_synthesize(cls, rng) for _ in range(100)]
        columns = [[field.get(obj) for obj in objects] for field in fields]
        row = builder_of(cls)
        required = sum(field.required for field in fields)
        for n in (0, 1, 2, 7, 100):
            for width in range(required, len(fields) + 1):
                prefix = [column[:n] for column in columns[:width]]
                if prefix:
                    built = list(map(row, *prefix))
                    expected = [cls(*values) for values in zip(*prefix)]
                else:
                    built = [row() for _ in range(n)]
                    expected = [cls() for _ in range(n)]
                assert len(built) == n
                for got, want in zip(built, expected):
                    assert type(got) is cls
                    _assert_equal(got, want, f"{cls.__name__}[:{width}]")
                    if cls is Polygon:  # identity-compared; its builder is Polygon
                        continue
                    assert got == want
                    assert _hash_or_error(got) == _hash_or_error(want)
                    if fields:
                        with pytest.raises(dataclasses.FrozenInstanceError):
                            setattr(got, fields[0].name, None)

    def test_default_factory_is_fresh_per_row(self):
        row = builder_of(_Tally)
        assert row is not _Tally
        first, second = row(), row(3, 4)
        assert first == _Tally() and second == _Tally(3, 4)
        assert first.extra == {} and first.extra is not second.extra
        passed = {"k": 1}
        assert row(0, 0, 1, 0, passed).extra is passed

    def test_classes_it_cannot_compile_get_their_constructor(self):
        assert builder_of(Polygon) is Polygon

        @dataclasses.dataclass(frozen=True)
        class Unslotted:
            x: float

        assert builder_of(Unslotted) is Unslotted

        @dataclasses.dataclass(frozen=True, slots=True)
        class KeywordOnly:
            x: float = dataclasses.field(kw_only=True)

        assert builder_of(KeywordOnly) is KeywordOnly


# -- one over-the-wire refusal per record rule -----------------------------------

BAD = 57  # position of the bad item in a 100-item column


def _sightings(bad=None):
    items = [SightingRecord(f"obj-{i:05d}", 1.0, _P, 2.0) for i in range(100)]
    if bad is not None:
        items[BAD] = bad
    return tuple(items)


def _update_batch(bad=None):
    return m.UpdateBatchReq("r", "c", _sightings(bad))


def _handover_batch(bad_reg=None):
    items = [
        m.HandoverBatchItem(s, RegistrationInfo("reg", 10.0, 50.0), 25.0)
        for s in _sightings()
    ]
    if bad_reg is not None:
        items[BAD] = m.HandoverBatchItem(items[BAD].sighting, bad_reg, 25.0)
    return m.HandoverBatchReq("r", "c", "leaf-a", tuple(items))


def _handover_res(bad_area=None):
    outcomes = [
        m.HandoverOutcome(f"obj-{i:05d}", "root.1", 10.0, Rect(0.0, 0.0, 750.0, 750.0))
        for i in range(100)
    ]
    if bad_area is not None:
        outcomes[BAD] = m.HandoverOutcome(f"obj-{BAD:05d}", "root.1", 10.0, bad_area)
    return m.HandoverBatchRes("r", tuple(outcomes))


def _range_res(bad=None):
    entries = [(f"obj-{i:05d}", LocationDescriptor(_P, 5.0)) for i in range(100)]
    if bad is not None:
        entries[BAD] = (entries[BAD][0], bad)
    return m.RangeQueryRes("r", tuple(entries))


def _subscribe(predicate):
    return SubscribeReq("r", "c", predicate)


#: (rule, class that owns it, the bad message, a good frame-mate).
#: ``SubscribeReq`` carries one predicate, so its rules ride as record
#: 57 of a 100-record frame instead of item 57 of a column.
RULES = [
    ("sighting-empty-id", SightingRecord,
     _update_batch(forged(SightingRecord, "", 1.0, _P, 2.0)), _update_batch()),
    ("sighting-negative-acc-sens", SightingRecord,
     _update_batch(forged(SightingRecord, "obj-x", 1.0, _P, -2.0)), _update_batch()),
    ("descriptor-negative-acc", LocationDescriptor,
     _range_res(forged(LocationDescriptor, _P, -5.0)), _range_res()),
    ("reg-info-min-tighter-than-des", RegistrationInfo,
     _handover_batch(forged(RegistrationInfo, "reg", 50.0, 10.0)), _handover_batch()),
    ("reg-info-negative-des", RegistrationInfo,
     _handover_batch(forged(RegistrationInfo, "reg", -1.0, 10.0)), _handover_batch()),
    ("rect-degenerate", Rect,
     _handover_res(forged(Rect, 750.0, 0.0, 0.0, 750.0)), _handover_res()),
    ("occupancy-threshold", AreaOccupancy,
     _subscribe(forged(AreaOccupancy, Rect(0.0, 0.0, 1.0, 1.0), 0, 5.0, 0.5)),
     _subscribe(AreaOccupancy(Rect(0.0, 0.0, 1.0, 1.0)))),
    ("proximity-negative-distance", Proximity,
     _subscribe(forged(Proximity, "a", "b", -1.0)), _subscribe(Proximity("a", "b", 1.0))),
    ("proximity-same-object", Proximity,
     _subscribe(forged(Proximity, "a", "a", 1.0)), _subscribe(Proximity("a", "b", 1.0))),
]


class TestRecordRulesRefuseOverTheWire:
    def test_every_wire_reachable_rule_has_a_case(self):
        with_rules = {cls for cls in WIRE_CLASSES if hasattr(cls, "__post_init__")}
        assert with_rules == {owner for _, owner, _, _ in RULES}
        # ``model/queries.py``'s rules guard query specs that no message
        # carries: they are checked where a caller builds the spec.
        query_specs = {
            cls for cls in vars(queries).values()
            if isinstance(cls, type) and cls.__module__ == queries.__name__
            and hasattr(cls, "__post_init__")
        }
        assert query_specs and not query_specs & set(WIRE_CLASSES)

    @pytest.mark.parametrize("bad, mate", [r[2:] for r in RULES], ids=[r[0] for r in RULES])
    def test_bad_item_refuses_its_record_only(self, bad, mate):
        decoder = FrameDecoder()
        if isinstance(bad, SubscribeReq):
            records = [Record.of(mate)] * 100
            records[BAD] = Record.of(bad)
            frames = decoder.feed(frame("a", "b", *records))
            assert frames == [("a", "b", [mate] * 99)]
        else:
            frames = decoder.feed(frame("a", "b", Record.of(mate), Record.of(bad), Record.of(mate)))
            assert frames == [("a", "b", [mate, mate])]
        assert decoder.skipped_messages == 1
        assert decoder.corrupted_frames == 0


# -- string columns and wire bytes --------------------------------------------------


def _golden_update_req():
    return m.UpdateBatchReq(
        request_id="golden-req",
        reply_to="client-0",
        sightings=tuple(
            SightingRecord(
                f"obj-{i:05d}", 1000.0 + i / 8, Point(i * 7.25, 1500.0 - i * 3.5), 2.5 + i % 5
            )
            for i in range(100)
        ),
        epoch=4,
        sub_timeout=0.25,
    )


def _golden_update_res():
    return m.UpdateBatchRes(
        request_id="golden-res",
        outcomes=tuple(
            m.UpdateOutcome(
                f"obj-{i:05d}",
                i % 11 != 3,
                agent=None if i % 11 == 3 else f"root.{i % 4}",
                offered_acc=None if i % 11 == 3 else 10.0 + i % 3,
                deregistered=i % 17 == 0,
                error="root.1 is not the agent of obj" if i % 11 == 3 else None,
            )
            for i in range(100)
        ),
    )


class TestStringColumns:
    @pytest.mark.parametrize(
        "ids",
        [
            ["objé-1", "obj-2"],
            ["obj-1", "物体-2", "obj-3", "objé-1", "🛰-5"] * 20,
            ["物体-1", "物体-2"],
        ],
        ids=["latin1-mix", "long-mix", "all-cjk"],
    )
    def test_non_ascii_ids_round_trip(self, ids):
        req = m.UpdateBatchReq("r", "c", tuple(SightingRecord(oid, 1.0, _P, 2.0) for oid in ids))
        res = m.UpdateBatchRes(
            "r", tuple(m.UpdateOutcome(oid, True, agent=oid or None) for oid in [*ids, ""])
        )
        for message in (req, res):
            assert decode_frame(encode_frame("a", "b", [message]))[2] == [message]

    @pytest.mark.parametrize(
        "good, bad",
        [
            (b"obj-00057", b"obj-0005\xff"),
            # A two-byte sequence split across items 56 and 57: valid
            # UTF-8 as one run, invalid per item.
            (b"obj-00056obj-00057", b"obj-0005\xc3\xa9bj-00057"),
        ],
        ids=["invalid-byte", "sequence-split-across-items"],
    )
    def test_invalid_utf8_item_refuses_its_record(self, good, bad):
        mate = _update_batch()
        record = Record.of(mate)
        assert record.columns.count(good) == 1
        record.columns = record.columns.replace(good, bad)
        decoder = FrameDecoder()
        frames = decoder.feed(frame("a", "b", Record.of(mate), record, Record.of(mate)))
        assert frames == [("a", "b", [mate, mate])]
        assert decoder.skipped_messages == 1

    @pytest.mark.parametrize(
        "make, digest",
        [
            (_golden_update_req,
             "76dbf9a26944b90744b3170a9e5b0212c1d510780934aad06e06045cf483cbe5"),
            (_golden_update_res,
             "8ba1c06eef9dc376653e7d668b76fbf88efbf9778fd331da37f66928238590a0"),
        ],
        ids=["UpdateBatchReq-100", "UpdateBatchRes-100"],
    )
    def test_frame_bytes_are_pinned(self, make, digest):
        message = make()
        data = encode_frame("root.2", "client-0", [message])
        assert hashlib.sha256(data).hexdigest() == digest
        assert decode_frame(data)[2] == [message]

"""An update envelope read as columns ends where its records end.

A frame's ``UpdateBatchReq`` decodes into a
:class:`~repro.model.SightingColumns` view; an in-process lane hands the
same envelope over as a tuple of records.  Delivered to a leaf of
``build_table2_hierarchy()`` — duplicate ids with older, equal and newer
timestamps, unknown ids, ids the leaf knows only by a forwarding
reference, items that left its area — both forms must give the same
answers, the same positions, the same update counts and listener calls,
on either store backend.  The view also has to carry the row path's
refusals: a record rule skips the message at decode, a NaN or an empty
id is quarantined by ``find_defect`` with the row path's defect string.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LocationService, build_table2_hierarchy
from repro.core import messages as m
from repro.core.service import Reporter
from repro.geo import Point
from repro.model import SightingColumns, SightingRecord
from repro.net import wire
from repro.net.wire import FrameDecoder, encode_frame
from repro.runtime.validation import find_defect
from repro.sim.scenario import populate
from repro.storage import BACKENDS

from tests.net.frame_surgery import Record, f64s, frame, strs, struct_of

LEAF = "root.0"  # the quadrant [0, 750] x [0, 750] of the 1.5 km Table-2 area
HELD = ("o0", "o1", "o2", "o3")  # agent LEAF, stored at t = 0
MOVED = "f0"  # agent root.1; LEAF holds only a forwarding reference to it
IDS = (*HELD, MOVED, "ghost")


def _deliver(backend: str, message: m.UpdateBatchReq):
    """``message`` to LEAF of a fresh service; everything a client sees."""
    svc = _service(backend)
    populate(svc, [(MOVED, Point(1000.0, 200.0))])
    svc.servers[LEAF].visitors.insert_forward(MOVED, "root.1")
    heard: list[list[str]] = []
    svc.set_update_listener(lambda ids: heard.append(list(ids)))
    reporter = Reporter()
    svc.network.join(reporter)
    res = svc.run(reporter.request(LEAF, message, timeout=30.0))
    svc.settle()
    where = {
        (leaf, oid): (store.position_query(oid), store.sightings.get(oid).timestamp)
        for leaf in svc.hierarchy.leaf_ids()
        for store in [svc.servers[leaf].store]
        for oid in IDS
        if oid in store.sightings
    }
    updates = sum(svc.servers[leaf].stats.updates for leaf in svc.hierarchy.leaf_ids())
    return res.outcomes, where, updates, heard


def _service(backend: str = "columnar") -> LocationService:
    svc = LocationService(build_table2_hierarchy(), backend=backend)
    populate(svc, [(oid, Point(100.0 + 50 * i, 200.0)) for i, oid in enumerate(HELD)])
    return svc


def _envelope(items) -> m.UpdateBatchReq:
    return m.UpdateBatchReq(
        request_id="env-1",
        reply_to="svc-batch-reporter",
        sightings=tuple(SightingRecord(oid, t, Point(x, y), acc) for oid, t, x, y, acc in items),
    )


def _decoded(message):
    (_src, _dst, (got,)), = FrameDecoder().feed(encode_frame("svc-batch-reporter", LEAF, [message]))
    return got


coordinate = st.sampled_from([10.0, 375.0, 750.0, 760.0, 1400.0])  # edge and beyond included
items = st.lists(
    st.tuples(
        st.sampled_from(IDS),
        st.sampled_from([-1.0, 0.0, 1.0]),  # older, equal, newer than the stored t = 0
        coordinate,
        coordinate,
        st.sampled_from([0.0, 5.0]),
    ),
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(items=items)
def test_a_decoded_envelope_ends_where_its_records_end(items):
    message = _envelope(items)
    got = _decoded(message)
    assert type(got.sightings) is (SightingColumns if items else tuple)
    assert got == message
    assert encode_frame("a", "b", [got]) == encode_frame("a", "b", [message])
    # The objects backend writes record by record: the reference.
    reference = _deliver("objects", message)
    for backend in sorted(BACKENDS):
        assert _deliver(backend, got) == _deliver(backend, message) == reference


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestColumnsEndWhereRowsEnd:

    def test_an_empty_envelope(self, backend):
        message = _envelope([])
        assert _decoded(message) == message
        outcomes, _where, updates, heard = _deliver(backend, _decoded(message))
        assert (outcomes, updates, heard) == ((), 0, [])

    def test_the_area_is_closed_as_contains_is(self, backend):
        corners = [(oid, 1.0, x, y, 5.0) for oid, (x, y) in zip(HELD, [(0, 0), (750, 750), (0, 750)])]
        outcomes, _where, updates, _heard = _deliver(backend, _decoded(_envelope(corners)))
        assert [o.agent for o in outcomes] == [LEAF] * 3 and updates == 3

    def test_a_duplicate_ends_at_its_newest_sighting(self, backend):
        message = _envelope(
            [("o1", 2.0, 20.0, 20.0, 5.0), ("o1", 2.0, 30.0, 30.0, 5.0), ("o1", 1.0, 40.0, 40.0, 5.0)]
        )
        for delivered in (message, _decoded(message)):
            _outcomes, where, updates, heard = _deliver(backend, delivered)
            descriptor, timestamp = where[(LEAF, "o1")]
            assert (descriptor.pos, timestamp) == (Point(30.0, 30.0), 2.0)
            assert (updates, heard) == (3, [["o1", "o1", "o1"]])


class TestTheViewOnTheWire:
    def test_a_newer_peers_trailing_sighting_field_is_skipped(self):
        message = _envelope([("o0", 1.0, 1.0, 2.0, 3.0), ("o1", 4.0, 5.0, 6.0, 7.0)])
        newer = Record.of(message)
        old = struct_of(
            4, strs("o0", "o1"), f64s(1.0, 4.0), struct_of(2, f64s(1.0, 5.0), f64s(2.0, 6.0)),
            f64s(3.0, 7.0),
        )  # fmt: skip
        assert newer.columns.count(old) == 1
        newer.columns = newer.columns.replace(old, struct_of(5, old[5:], f64s(8.0, 9.0)))
        got = wire.decode(frame("", "", newer))
        assert got == message
        assert type(got.sightings) is tuple  # the row reader took it

    def test_a_record_rule_skips_the_whole_message(self):
        message = _envelope([("o0", 1.0, 1.0, 2.0, 3.0), ("o1", 4.0, 5.0, 6.0, 7.0)])
        bad = Record.of(message)
        bad.columns = bad.columns.replace(f64s(3.0, 7.0), f64s(3.0, -7.0))
        decoder = FrameDecoder()
        assert decoder.feed(frame("a", "b", Record.of(message), bad)) == [("a", "b", [message])]
        assert decoder.skipped_messages == 1

    def test_the_view_is_a_sequence_of_its_records(self):
        message = _envelope([("o0", 1.0, 1.0, 2.0, 3.0), ("o1", 4.0, 5.0, 6.0, 7.0)])
        view = _decoded(message).sightings
        assert SightingColumns.of(view) is view
        assert len(view) == 2 and view[1] == message.sightings[1]
        assert list(view) == list(message.sightings)
        assert hash(view) == hash(message.sightings)
        assert all(type(v) is float for s in view for v in (s.timestamp, s.pos.x, s.acc_sens))
        assert list(view.take([1, 0])) == [message.sightings[1], message.sightings[0]]


def _spoil(view: SightingColumns, column: str) -> SightingColumns:
    """A copy of ``view`` with item 1's ``column`` a NaN (``ids``: empty)."""
    ids, *floats = view.columns
    floats = dict(zip(("t", "x", "y", "acc"), (c.copy() for c in floats)))
    spoilt = SightingColumns(list(ids), **floats)
    if column == "ids":
        spoilt.ids[1] = ""  # past the record rule, as a lying peer's bytes would be
    else:
        getattr(spoilt, column)[1] = np.nan
    return spoilt


def _spoil_rows(rows: tuple, column: str) -> tuple:
    bad = rows[1]
    if column == "ids":
        bad = dataclasses.replace(bad)
        object.__setattr__(bad, "object_id", "")  # past the record rule
    elif column in ("x", "y"):
        bad = dataclasses.replace(bad, pos=dataclasses.replace(bad.pos, **{column: np.nan}))
    else:
        bad = dataclasses.replace(bad, **{{"t": "timestamp", "acc": "acc_sens"}[column]: np.nan})
    return (rows[0], bad, *rows[2:])


@pytest.mark.parametrize("column", ["t", "x", "y", "acc", "ids"])
class TestQuarantineOnTheView:
    def test_the_view_and_the_rows_report_the_same_defect(self, column):
        message = _decoded(_envelope([(oid, 1.0, 10.0, 20.0, 5.0) for oid in HELD]))
        spoilt = dataclasses.replace(message, sightings=_spoil(message.sightings, column))
        rows = dataclasses.replace(message, sightings=_spoil_rows(tuple(message.sightings), column))
        assert find_defect(message) is None
        assert find_defect(spoilt) is not None
        assert find_defect(spoilt) == find_defect(rows)

    def test_the_leaf_quarantines_it_and_leaves_the_store(self, column):
        svc = _service()
        leaf = svc.servers[LEAF]
        before = {oid: leaf.store.sightings.get(oid) for oid in HELD}
        message = _decoded(_envelope([(oid, 1.0, 10.0, 20.0, 5.0) for oid in HELD]))
        leaf.deliver(dataclasses.replace(message, sightings=_spoil(message.sightings, column)))
        svc.settle()
        assert leaf.stats.messages_quarantined == 1
        assert leaf.stats.updates == 0
        assert {oid: leaf.store.sightings.get(oid) for oid in HELD} == before

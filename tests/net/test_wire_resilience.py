"""Property tests: FrameDecoder resynchronisation under random damage.

The byzantine lanes (PR 9) corrupt 2% of socket frames at arbitrary
byte offsets; the decoder's contract is that one damaged byte costs *at
most the frame it actually hit*, never the connection.  These tests
drive that contract with hypothesis-chosen corruption offsets into
multi-frame TCP streams and multi-frame UDP datagrams:

* every frame the corruption did not touch still decodes, in order;
* at most one frame is lost per flipped byte;
* the decoder ends clean (empty buffer after flush), so the stream
  stays usable for everything that follows.

``TestTypeConfusion`` covers what the checksum cannot: a CRC-valid frame
from a lying peer whose bytes do not fit the types the schema declares.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import messages as m
from repro.geo import Point
from repro.model import SightingRecord
from repro.net.udp import UdpTransport
from repro.net.wire import FrameDecoder, encode_frame
from repro.runtime.base import Endpoint

from tests.net.frame_surgery import Record, f64s, frame, strs, struct_of, u32s


def _frame(index: int) -> tuple[bytes, str]:
    """One encoded frame plus the object id that identifies it."""
    oid = f"obj-{index}"
    messages = [
        m.PosQueryReq(request_id=f"r-{index}", reply_to="driver", object_id=oid),
        m.PosQueryFwd(query_id=f"q-{index}", object_id=oid, entry_server="driver"),
    ]
    return encode_frame("driver", f"leaf.{index}", messages), oid


def _decoded_ids(frames: list[tuple[str, str, list]]) -> list[str]:
    return [batch[0].object_id for _, _, batch in frames]


def _chunked(data: bytes, rng_sizes: list[int]):
    """Split ``data`` at hypothesis-chosen points (stream chunking)."""
    out, start = [], 0
    for size in rng_sizes:
        if start >= len(data):
            break
        out.append(data[start : start + size])
        start += size
    if start < len(data):
        out.append(data[start:])
    return out


@st.composite
def corrupted_stream(draw):
    """A multi-frame stream, one byte flipped at a random offset."""
    count = draw(st.integers(min_value=2, max_value=6))
    frames = [_frame(i) for i in range(count)]
    blob = bytearray(b"".join(data for data, _ in frames))
    offset = draw(st.integers(min_value=0, max_value=len(blob) - 1))
    flip = draw(st.integers(min_value=1, max_value=255))
    blob[offset] ^= flip
    # Which frame does the damaged byte live in?
    start, hit = 0, None
    for index, (data, _) in enumerate(frames):
        if start <= offset < start + len(data):
            hit = index
            break
        start += len(data)
    sizes = draw(st.lists(st.integers(min_value=1, max_value=97), max_size=40))
    return bytes(blob), [oid for _, oid in frames], hit, sizes


class TestStreamResync:
    @settings(max_examples=200, deadline=None)
    @given(case=corrupted_stream())
    def test_one_flipped_byte_costs_at_most_one_frame(self, case):
        blob, oids, hit, sizes = case
        decoder = FrameDecoder()
        decoded: list[tuple[str, str, list]] = []
        for chunk in _chunked(blob, sizes):
            decoded.extend(decoder.feed(chunk))
        decoded.extend(decoder.flush())  # stream EOF rescues tail frames

        got = _decoded_ids(decoded)
        survivors = [oid for i, oid in enumerate(oids) if i != hit]
        # Every untouched frame decodes; the hit frame may survive too
        # (e.g. a version-byte bump still parses as the v3 layout).
        assert [oid for oid in got if oid != oids[hit]] == survivors
        assert len(got) >= len(oids) - 1
        # The decoder ends clean: nothing buffered, ready for more.
        assert decoder.pending_bytes == 0

    @settings(max_examples=60, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=5),
        cut=st.integers(min_value=0, max_value=10_000),
        sizes=st.lists(st.integers(min_value=1, max_value=97), max_size=40),
    )
    def test_truncated_stream_keeps_every_complete_frame(self, count, cut, sizes):
        frames = [_frame(i) for i in range(count)]
        blob = b"".join(data for data, _ in frames)
        cut = min(cut, len(blob))
        decoder = FrameDecoder()
        decoded: list[tuple[str, str, list]] = []
        for chunk in _chunked(blob[:cut], sizes):
            decoded.extend(decoder.feed(chunk))
        decoded.extend(decoder.flush())

        complete = []
        consumed = 0
        for data, oid in frames:
            consumed += len(data)
            if consumed <= cut:
                complete.append(oid)
        assert _decoded_ids(decoded) == complete
        assert decoder.pending_bytes == 0


@st.composite
def corrupted_datagrams(draw):
    """Several multi-frame datagrams; one byte flipped in one of them."""
    datagram_count = draw(st.integers(min_value=2, max_value=4))
    per_datagram = draw(st.integers(min_value=1, max_value=3))
    datagrams, oids = [], []
    index = 0
    for _ in range(datagram_count):
        parts = []
        for _ in range(per_datagram):
            data, oid = _frame(index)
            parts.append(data)
            oids.append(oid)
            index += 1
        datagrams.append(bytearray(b"".join(parts)))
    victim = draw(st.integers(min_value=0, max_value=datagram_count - 1))
    offset = draw(st.integers(min_value=0, max_value=len(datagrams[victim]) - 1))
    datagrams[victim][offset] ^= draw(st.integers(min_value=1, max_value=255))
    return [bytes(d) for d in datagrams], oids, victim, per_datagram


class TestDatagramResync:
    @settings(max_examples=150, deadline=None)
    @given(case=corrupted_datagrams())
    def test_damage_never_crosses_a_datagram_boundary(self, case):
        datagrams, oids, victim, per_datagram = case
        # One decoder per peer, flushed at each datagram boundary —
        # exactly the UDP receive path (_on_datagram feeds then flushes).
        decoder = FrameDecoder()
        got: list[str] = []
        lost_per_datagram: list[int] = []
        for number, datagram in enumerate(datagrams):
            frames = decoder.feed(datagram)
            frames.extend(decoder.flush())
            ids = _decoded_ids(frames)
            got.extend(ids)
            lost_per_datagram.append(per_datagram - len(ids))
            assert decoder.pending_bytes == 0
            if number != victim:
                # Clean datagrams are untouched by earlier damage.
                assert lost_per_datagram[-1] == 0

        # The flipped byte lives in one datagram; at most one of its
        # frames is lost, every other frame in the run decodes in order.
        assert sum(lost_per_datagram) <= 1
        expected = set(oids)
        assert set(got) <= expected
        assert len(expected - set(got)) <= 1
        assert got == [oid for oid in oids if oid in set(got)]


# ---------------------------------------------------------------------------
# CRC-valid frames whose bytes do not fit the declared field types
# ---------------------------------------------------------------------------


def _update_req(timestamp: bytes = f64s(4.0), x: bytes = f64s(1.0)) -> Record:
    """``UpdateReq("r", "dev", SightingRecord("o1", 4.0, Point(1, 2), 10.0))``
    column by column, with the timestamp / ``Point.x`` bytes replaceable."""
    point = struct_of(2, x, f64s(2.0))
    sighting = struct_of(4, strs("o1"), timestamp, point, f64s(10.0))
    return Record("UpdateReq", 3, strs("r") + strs("dev") + sighting)


_HOSTILE = {
    # 19 bytes of length-prefixed text where 8 bytes of f64 belong
    "string-for-float-timestamp": _update_req(timestamp=strs("not-a-timestamp")),
    # a nested list [[1.0]] (count, count, item) where ``Point.x`` belongs
    "nested-list-for-point-x": _update_req(x=u32s(1) + u32s(1) + f64s(1.0)),
    # ``sightings`` announces 2**31 items; 40 bytes follow
    "count-of-2**31-in-40-bytes": Record(
        "UpdateBatchReq", 3, strs("r") + strs("dev") + u32s(2**31) + bytes(40)
    ),
    # ``req_acc: float | None`` with a presence byte that is neither 0 nor 1
    "presence-byte-7": Record(
        "PosQueryReq", 4, strs("r") + strs("dev") + strs("o1") + b"\x07" + f64s(1.0)
    ),
}


class _Sink(Endpoint):
    def __init__(self) -> None:
        super().__init__("leaf")
        self.got: list = []

    def deliver(self, message) -> None:
        self.got.append(message)


class TestTypeConfusion:
    def test_the_hand_built_record_is_the_real_layout(self):
        # Guards the cases below: undamaged, the same bytes decode.
        frames = FrameDecoder().feed(frame("a", "leaf", _update_req()))
        sighting = SightingRecord("o1", 4.0, Point(1.0, 2.0), 10.0)
        assert frames == [("a", "leaf", [m.UpdateReq("r", "dev", sighting)])]

    @pytest.mark.parametrize("case", sorted(_HOSTILE))
    def test_ill_typed_record_is_skipped_and_the_next_frame_delivered(self, case):
        healthy = m.PingReq(request_id="p", reply_to="c")
        data = frame("a", "leaf", _HOSTILE[case]) + encode_frame("a", "leaf", [healthy])
        decoder = FrameDecoder()
        frames = decoder.feed(data) + decoder.flush()
        assert [msg for _, _, batch in frames for msg in batch] == [healthy]
        assert decoder.skipped_messages + decoder.corrupted_frames == 1
        assert decoder.pending_bytes == 0

        # The same bytes as one datagram: the endpoint sees only the ping.
        transport, sink = UdpTransport(), _Sink()
        transport.join(sink)
        transport._on_datagram(data)
        assert sink.got == [healthy]
        assert transport.stats.messages_quarantined + transport.stats.frames_corrupted == 1

    def test_ill_typed_record_spares_its_frame_mates(self):
        healthy = m.PingReq(request_id="p", reply_to="c")
        decoder = FrameDecoder()
        frames = decoder.feed(
            frame("a", "b", Record.of(healthy), _HOSTILE["presence-byte-7"], Record.of(healthy))
        )
        assert frames == [("a", "b", [healthy, healthy])]
        assert (decoder.skipped_messages, decoder.corrupted_frames) == (1, 0)

    @settings(max_examples=200, deadline=None)
    @given(junk=st.binary(max_size=120), name=st.sampled_from(["UpdateBatchReq", "RangeQueryRes"]))
    def test_arbitrary_record_bytes_never_raise(self, junk, name):
        # Any bytes at all behind a valid CRC: skipped or delivered,
        # never an exception, never a frame lost behind them.
        healthy = m.PingReq(request_id="p", reply_to="c")
        decoder = FrameDecoder()
        data = frame("a", "b", Record(name, 3, junk)) + encode_frame("a", "b", [healthy])
        frames = decoder.feed(data) + decoder.flush()
        assert frames[-1] == ("a", "b", [healthy])
        assert decoder.pending_bytes == 0

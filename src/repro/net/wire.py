"""Versioned, length-prefixed wire codec for the protocol messages.

Every :class:`~repro.runtime.base.Message` dataclass in
:mod:`repro.core.messages` (and any module that defines further
subclasses, e.g. the launcher's control plane) is encodable without
per-type code: types are **auto-registered by class name** from
``Message.__subclasses__`` the first time an unknown type is seen, and
their fields are walked in declaration order.  The geometry and
service-model value types the messages embed (``Point``, ``Rect``,
``SightingRecord``, ``RegistrationInfo``, …) are registered explicitly
below.  Round-trips are exact: tuples stay tuples (the protocol uses no
lists), floats round-trip by ``repr`` (including ``inf``), nested batch
items and epoch stamps come back field-for-field equal.

Wire format, one frame (version 2)::

    b"RW"  version:1  length:4 (big-endian)  crc32:4 (big-endian)  payload:length

The CRC32 covers the payload bytes; a mismatch marks the frame corrupt
and the decoder resynchronises on the next magic marker instead of
trusting a damaged length prefix.  A version byte *newer* than ours
parses with the v2 layout (see :class:`FrameDecoder`); an older one
(the pre-checksum v1 layout) is rejected as damage, so every accepted
frame is CRC-checked.

The payload is compact JSON: ``{"s": src, "d": dst, "m": [message...]}``
where every typed object is ``{"t": "<ClassName>", "f": [fields...]}``.
JSON rather than pickle is a deliberate choice — the frames are
inspectable on the wire, and a peer cannot make the decoder instantiate
arbitrary code paths: only registered types construct.

A frame carries *many* messages so the ``send_many`` coalescing the
envelope lane relies on survives serialization: one batch, one frame,
one datagram (or one stream write).  :class:`FrameDecoder` incrementally
splits a byte stream (TCP) or a multi-frame datagram (UDP) back into
frames.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from typing import Callable, Iterable

from repro.core.hierarchy import ChildRef, Hierarchy, ServerConfig
from repro.errors import WireError
from repro.geo import Circle, Point, Polygon, Rect
from repro.geo.point import Vector
from repro.model import (
    LocationDescriptor,
    NearestNeighborResult,
    RegistrationInfo,
    SightingRecord,
)
from repro.runtime.base import Message

__all__ = [
    "WIRE_VERSION",
    "MAGIC",
    "HEADER_SIZE",
    "MAX_FRAME_SIZE",
    "encode",
    "decode",
    "encode_frame",
    "decode_frame",
    "FrameDecoder",
    "register_type",
    "registered_types",
    "encode_hierarchy",
    "decode_hierarchy",
]

WIRE_VERSION = 2
MAGIC = b"RW"
#: v2 header: magic + version byte + length prefix + payload CRC32.
HEADER_SIZE = len(MAGIC) + 1 + 4 + 4
#: Hard per-frame ceiling — a length prefix beyond this is treated as
#: stream corruption, not an allocation request.
MAX_FRAME_SIZE = 64 * 1024 * 1024

_TYPE_KEY = "t"
_FIELDS_KEY = "f"


class _TypeEntry:
    __slots__ = ("cls", "to_fields", "from_fields")

    def __init__(
        self,
        cls: type,
        to_fields: Callable[[object], list],
        from_fields: Callable[[list], object],
    ) -> None:
        self.cls = cls
        self.to_fields = to_fields
        self.from_fields = from_fields


_BY_NAME: dict[str, _TypeEntry] = {}
_BY_CLS: dict[type, _TypeEntry] = {}


def register_type(
    cls: type,
    to_fields: Callable[[object], list] | None = None,
    from_fields: Callable[[list], object] | None = None,
) -> type:
    """Register ``cls`` under its class name.

    Without explicit converters the class must be a dataclass: its
    fields are encoded in declaration order and the constructor is
    called positionally on decode.  Registering the same class twice is
    a no-op; a *different* class under an already-taken name is an
    error (wire names must be unambiguous).
    """
    name = cls.__name__
    existing = _BY_NAME.get(name)
    if existing is not None:
        if existing.cls is cls:
            return cls
        raise WireError(
            f"wire name {name!r} already registered for {existing.cls!r}, "
            f"cannot also mean {cls!r}"
        )
    if to_fields is None or from_fields is None:
        if not dataclasses.is_dataclass(cls):
            raise WireError(f"{cls!r} is not a dataclass; pass explicit converters")
        field_names = tuple(f.name for f in dataclasses.fields(cls))

        def to_fields(obj, _names=field_names):  # type: ignore[misc]
            return [_encode_value(getattr(obj, n)) for n in _names]

        def from_fields(fields, _cls=cls, _arity=len(field_names)):  # type: ignore[misc]
            # Schema evolution: a newer peer may append fields we do not
            # know — trailing extras are ignored, trailing *absences*
            # fall back to the constructor's defaults (or fail into the
            # caller's per-message skip path if there are none).
            return _cls(*[_decode_value(v) for v in fields[:_arity]])

    entry = _TypeEntry(cls, to_fields, from_fields)
    _BY_NAME[name] = entry
    _BY_CLS[cls] = entry
    return cls


def registered_types() -> dict[str, type]:
    """Snapshot of the wire-name → class registry (after a refresh)."""
    _refresh_message_types()
    return {name: entry.cls for name, entry in _BY_NAME.items()}


def _walk_subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _walk_subclasses(sub)


def _refresh_message_types() -> None:
    """Auto-register every :class:`Message` subclass currently defined.

    Importing :mod:`repro.core.messages` first guarantees the full
    protocol catalog is visible even if the caller only imported this
    module; later-defined subclasses (control plane, tests) are picked
    up on the next unknown-type miss.
    """
    import sys

    import repro.core.messages  # noqa: F401  (side effect: defines the catalog)

    for sub in _walk_subclasses(Message):
        if sub in _BY_CLS or not dataclasses.is_dataclass(sub):
            continue
        # ``@dataclass(slots=True)`` replaces the class object, leaving
        # the pre-slots original behind in ``__subclasses__``; only the
        # class its module currently binds is the live wire type.
        module = sys.modules.get(sub.__module__)
        if module is None or getattr(module, sub.__name__, None) is not sub:
            continue
        existing = _BY_NAME.get(sub.__name__)
        if existing is not None:
            # The sweep is opportunistic, so it must not turn a name
            # collision between unrelated *out-of-tree* subclasses
            # (two test modules both defining ``Pong``) into a hard
            # failure: the ambiguous latecomer is simply not wire
            # encodable.  Catalog types (``repro.*``) always win the
            # name — and colliding *inside* the catalog stays an error.
            if not sub.__module__.startswith("repro."):
                continue
            if not existing.cls.__module__.startswith("repro."):
                del _BY_NAME[sub.__name__]
                del _BY_CLS[existing.cls]
        register_type(sub)


def _encode_value(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_encode_value(v) for v in value]
    entry = _BY_CLS.get(type(value))
    if entry is None:
        _refresh_message_types()
        entry = _BY_CLS.get(type(value))
    if entry is None:
        raise WireError(f"no wire encoding registered for {type(value)!r}")
    return {_TYPE_KEY: type(value).__name__, _FIELDS_KEY: entry.to_fields(value)}


def _decode_value(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return tuple(_decode_value(v) for v in value)
    if isinstance(value, dict):
        try:
            name = value[_TYPE_KEY]
            fields = value[_FIELDS_KEY]
        except KeyError:
            raise WireError(f"malformed wire object (keys {sorted(value)})") from None
        entry = _BY_NAME.get(name)
        if entry is None:
            _refresh_message_types()
            entry = _BY_NAME.get(name)
        if entry is None:
            raise WireError(f"unknown wire type {name!r}")
        try:
            return entry.from_fields(fields)
        except WireError:
            raise
        except Exception as exc:
            raise WireError(f"cannot decode {name}: {exc}") from exc
    raise WireError(f"unsupported wire value {value!r}")


def encode(value) -> object:
    """Encode one value (message, record, tuple, scalar) to JSON-ables."""
    return _encode_value(value)


def decode(payload) -> object:
    """Inverse of :func:`encode`."""
    return _decode_value(payload)


# -- value types the messages embed -----------------------------------------
#
# Everything here is a frozen dataclass except Polygon, which hides its
# vertex tuple behind a property and validates in ``__init__``.

register_type(Point)
register_type(Vector)
register_type(Rect)
register_type(Circle)
register_type(
    Polygon,
    to_fields=lambda poly: [[_encode_value(p) for p in poly.points]],
    from_fields=lambda fields: Polygon([_decode_value(p) for p in fields[0]]),
)
register_type(SightingRecord)
register_type(LocationDescriptor)
register_type(RegistrationInfo)
register_type(NearestNeighborResult)
register_type(ChildRef)
register_type(ServerConfig)

# The query/event value types riding inside RangeQueryReq/SubscribeReq.
from repro.core.events import AreaOccupancy, Proximity  # noqa: E402
from repro.model import RangeQuery  # noqa: E402

register_type(RangeQuery)
register_type(AreaOccupancy)
register_type(Proximity)


# -- hierarchy (not a dataclass: explicit converters) ------------------------


def encode_hierarchy(hierarchy: Hierarchy) -> dict:
    """The wire form of a :class:`Hierarchy` (configs + epoch)."""
    return {
        "epoch": hierarchy.epoch,
        "configs": [_encode_value(c) for c in hierarchy.configs.values()],
    }


def decode_hierarchy(payload: dict) -> Hierarchy:
    configs = [_decode_value(c) for c in payload["configs"]]
    return Hierarchy(
        {config.server_id: config for config in configs},
        epoch=int(payload["epoch"]),
    )


# -- framing -----------------------------------------------------------------


def encode_frame(src: str, dst: str, messages: "list[Message]") -> bytes:
    """One length-prefixed frame carrying a batch of messages."""
    body = json.dumps(
        {
            "s": src,
            "d": dst,
            "m": [_encode_value(message) for message in messages],
        },
        separators=(",", ":"),
        allow_nan=True,  # req_acc may legitimately be float('inf')
    ).encode("utf-8")
    if len(body) > MAX_FRAME_SIZE:
        raise WireError(f"frame of {len(body)} bytes exceeds MAX_FRAME_SIZE")
    return (
        MAGIC
        + bytes([WIRE_VERSION])
        + len(body).to_bytes(4, "big")
        + zlib.crc32(body).to_bytes(4, "big")
        + body
    )


def decode_frame(data: bytes) -> tuple[str, str, list]:
    """Decode exactly one *intact* frame (raises on anything less).

    Unlike :class:`FrameDecoder` — which self-heals past damage — this
    strict single-frame API raises :class:`WireError` on any corruption,
    skipped message or trailing bytes; callers holding one complete
    frame in hand (tests, the fragment reassembler) want loud failure,
    not silent repair.
    """
    decoder = FrameDecoder()
    frames = decoder.feed(data)
    if (
        len(frames) != 1
        or decoder.pending_bytes
        or decoder.corrupted_frames
        or decoder.skipped_messages
    ):
        raise WireError(
            f"expected exactly one intact frame, got {len(frames)} "
            f"({decoder.corrupted_frames} corrupt, "
            f"{decoder.skipped_messages} skipped messages, "
            f"{decoder.pending_bytes} bytes left over)"
        )
    return frames[0]


class FrameDecoder:
    """Incremental frame splitter for streams and multi-frame datagrams.

    Feed it arbitrarily chunked bytes; it returns every completed frame
    as ``(src, dst, [messages])`` and buffers the remainder.  The
    decoder is **self-healing**: corrupt bytes — bad magic, a zero
    or pre-checksum (v1) version byte, an absurd length prefix, a CRC
    mismatch — never raise.  Each damage episode
    bumps ``corrupted_frames`` and the decoder scans forward to the
    next magic marker, so one flipped bit costs at most the frame it
    actually hit, never the connection.

    Schema evolution: frames from *newer* peers stay useful.  A version
    byte ≥ 2 parses with the v2 (checksummed) layout, unknown trailing
    fields on a known type are dropped (see :func:`register_type`), and
    a message of an unknown type is skipped — counted in
    ``skipped_messages`` — while the rest of its frame is delivered.
    """

    __slots__ = ("_buffer", "corrupted_frames", "skipped_messages")

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: corruption episodes survived (resyncs + consumed rotten frames).
        self.corrupted_frames = 0
        #: individual messages dropped from otherwise-intact frames
        #: (unknown type from a newer peer, mangled nested object).
        self.skipped_messages = 0

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> list[tuple[str, str, list]]:
        self._buffer.extend(data)
        buf = self._buffer
        frames: list[tuple[str, str, list]] = []
        while True:
            if len(buf) < len(MAGIC) + 1:
                return frames
            if bytes(buf[: len(MAGIC)]) != MAGIC:
                self._resync()
                continue
            if buf[len(MAGIC)] < 2:
                self._resync()
                continue
            if len(buf) < HEADER_SIZE:
                return frames
            length = int.from_bytes(buf[len(MAGIC) + 1 : len(MAGIC) + 5], "big")
            if length > MAX_FRAME_SIZE:
                self._resync()
                continue
            if len(buf) < HEADER_SIZE + length:
                return frames
            body = bytes(buf[HEADER_SIZE : HEADER_SIZE + length])
            crc = int.from_bytes(buf[len(MAGIC) + 5 : HEADER_SIZE], "big")
            if zlib.crc32(body) != crc:
                self._resync()
                continue
            frame = self._parse_body(body)
            del buf[: HEADER_SIZE + length]
            if frame is None:
                # Checksummed boundary, rotten payload (a peer re-framed
                # damaged bytes verbatim): consume the frame whole.
                self.corrupted_frames += 1
                continue
            frames.append(frame)

    def flush(self) -> list[tuple[str, str, list]]:
        """Force out the pending buffer (datagram boundary, stream EOF).

        Bytes still buffered at a boundary belong to a frame that can
        never complete — a truncated datagram, a stream cut mid-frame,
        or a corrupt length prefix swallowing healthy trailing frames.
        Count the damage, rescan the remainder for intact frames and
        return any found; the decoder always ends empty.
        """
        frames: list[tuple[str, str, list]] = []
        while self._buffer:
            before = len(self._buffer)
            self._resync()
            frames.extend(self.feed(b""))
            if self._buffer and len(self._buffer) >= before:
                self._buffer.clear()  # no forward progress possible
        return frames

    def _parse_body(self, body: bytes) -> tuple[str, str, list] | None:
        """Decode one frame payload; ``None`` marks it unusable."""
        try:
            payload = json.loads(body.decode("utf-8"))
            src, dst = payload["s"], payload["d"]
            raw_messages = payload["m"]
        except (ValueError, KeyError, TypeError):
            return None
        if not (
            isinstance(src, str)
            and isinstance(dst, str)
            and isinstance(raw_messages, list)
        ):
            return None
        messages: list = []
        for raw in raw_messages:
            try:
                messages.append(_decode_value(raw))
            except WireError:
                self.skipped_messages += 1
        return src, dst, messages

    def _resync(self) -> None:
        """Count one damage episode and scan to the next magic marker."""
        self.corrupted_frames += 1
        buf = self._buffer
        idx = buf.find(MAGIC, 1)
        if idx >= 0:
            del buf[:idx]
        elif buf and buf[-1] == MAGIC[0]:
            del buf[:-1]  # keep a possible split-magic prefix
        else:
            buf.clear()

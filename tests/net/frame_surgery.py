"""Byte surgery on wire-v3 frames, for tests that play a newer, an older
or a hostile peer.

The codec only ever emits what the schema describes; these helpers build
the bytes it would *not* emit — a renamed record, a wrong field count, a
column of the wrong kind, a lying count — behind a valid header and
CRC32, so the damage is only visible to the typed decoder.  Layouts are
the ones the :mod:`repro.net.wire` docstring specifies.
"""

import dataclasses
import struct
import zlib

from repro.net import wire


def registered_types() -> dict[str, type]:
    """The codec's wire-name → class registry, after a subclass sweep."""
    wire._refresh_message_types()
    return dict(wire._BY_NAME)


def strs(*values: str) -> bytes:
    """A ``str`` column: the u32 byte lengths, then the bytes."""
    blobs = [v.encode() for v in values]
    return struct.pack(f"<{len(blobs)}I", *map(len, blobs)) + b"".join(blobs)


def f64s(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def u32s(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}I", *values)


def struct_of(field_count: int, *columns: bytes) -> bytes:
    """A ``struct`` column: field count, byte length, the field columns."""
    payload = b"".join(columns)
    return struct.pack("<BI", field_count, len(payload)) + payload


def forged(cls: type, *values):
    """An instance of the frozen dataclass ``cls`` that never ran
    ``__post_init__``: the encoder carries it, so its bytes are what a
    peer that ignores the record rules would send."""
    obj = object.__new__(cls)
    for field, value in zip(dataclasses.fields(cls), values, strict=True):
        object.__setattr__(obj, field.name, value)
    return obj


class Record:
    """One message record taken apart: edit ``name``, ``field_count`` or
    ``columns`` and put it back into a frame with :func:`frame`."""

    def __init__(self, name: str, field_count: int, columns: bytes) -> None:
        self.name = name
        self.field_count = field_count
        self.columns = columns

    @classmethod
    def of(cls, message) -> "Record":
        data = wire.encode(message)  # one frame, two empty addresses, one record
        pos = wire.HEADER_SIZE + len(strs("") + strs("") + u32s(1))
        start = pos + 1 + data[pos]
        field_count, size = struct.unpack_from("<BI", data, start)
        assert start + 5 + size == len(data)
        return cls(data[pos + 1 : start].decode(), field_count, data[start + 5 :])

    def encode(self) -> bytes:
        name = self.name.encode()
        return bytes([len(name)]) + name + struct_of(self.field_count, self.columns)


def frame(src: str, dst: str, *records: Record) -> bytes:
    """A CRC-valid frame around ``records``, whatever they hold."""
    body = strs(src) + strs(dst) + u32s(len(records)) + b"".join(r.encode() for r in records)
    header = wire.MAGIC + bytes([wire.WIRE_VERSION]) + len(body).to_bytes(4, "big")
    return header + zlib.crc32(body).to_bytes(4, "big") + body

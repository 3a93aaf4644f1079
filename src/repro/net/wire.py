"""Wire format version 3: schema-compiled, typed binary frames.

Every :class:`~repro.runtime.base.Message` dataclass (protocol catalogue,
launcher control plane, UDP fragments) is encodable without per-type
code: types are auto-registered by class name from
``Message.__subclasses__``, and each class's encoder and decoder are
closures compiled once from its :mod:`repro.runtime.schema` entry; a
decoder builds records with the class's
:func:`~repro.runtime.schema.builder_of` row function.

Frame (integers big-endian, as in every version since 1)::

    b"RW"  version:1 (=3)  length:4  crc32:4  body:length

The CRC32 covers the body.  A mismatch, a bad magic, a version below 3
(the retired text bodies) or a length above :data:`MAX_FRAME_SIZE` is one
damage episode: ``corrupted_frames += 1`` and the decoder resynchronises
on the next magic instead of trusting the length.  A version *above* 3
parses with this layout.  Body (little-endian from here on)::

    column(str, n=1) src  column(str, n=1) dst  count:u32  record*count
    record = name_len:u8  name  column(struct, n=1)

Every value travels as a **column** of ``n`` values of one kind; a single
message is the case ``n = 1``, a batch's item list the case ``n = len``:

``float`` ``int``  ``n`` packed ``f64`` / ``i64`` (an int in a float field widens).
``bool``           ``n`` bytes, 0 or 1 (any other value reads as true).
``str`` ``bytes``  ``n`` ``u32`` byte lengths, then the bytes back to back (UTF-8).
``opt``            ``n`` presence bytes (0 / 1), then a column of the present values
                   (nothing when none is present).
``seq``            ``n`` ``u32`` item counts, then ONE column of all the items: the
                   100 sightings of an update envelope are five packed columns,
                   decoded into their ``COLUMN_VIEWS`` column view, no record built
                   (a struct whose field count is not its schema's: rows).
``tuple``          one column per position.
``union``          ``n`` tag bytes (index into the annotation), then per variant a
                   column of the values carrying that tag.
``struct``         nothing when ``n = 0``; else ``field_count:u8  byte_length:u32``
                   once, then one column per field in declaration order.

Evolution: ``byte_length`` lets a receiver jump over a type it does not
know (``skipped_messages += 1``, the rest of the frame is delivered) and
over trailing fields a newer peer appended, at any depth; a peer sending
*fewer* fields gets the dataclass defaults for the missing trailing ones
and is refused if one of them has no default.

Refused before anything is allocated: a column whose ``n`` values cannot
fit in the bytes left in the enclosing struct (a count of 2**31 dies on a
comparison), a struct running past its parent or leaving bytes no field
accounts for, a presence byte other than 0 / 1, an unknown union tag, bad
UTF-8.  Field types come from the schema, never from the bytes, so "a
string where a float belongs" and "nesting too deep" cannot be expressed.
A record that trips one of these, or whose ``__post_init__`` record rule
raises (a negative accuracy, a degenerate rect; a column view runs them
as column checks), is skipped like an unknown type; a frame whose *record
headers* do not add up is counted corrupt and nothing of it is delivered.
:func:`~repro.runtime.validation.find_defect` owns the semantic rules
(NaN, negative epoch, empty id).
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import zlib
from itertools import accumulate, chain, islice
from struct import Struct, pack, unpack_from
from struct import error as StructError
from typing import Iterable

import numpy as np

from repro.core.hierarchy import decode_hierarchy, encode_hierarchy  # noqa: F401 (re-export)
from repro.errors import LocationServiceError, WireError
from repro.runtime.base import Message
from repro.runtime.schema import COLUMN_VIEWS, Kind, builder_of, schema_of

__all__ = [
    "WIRE_VERSION", "MAGIC", "HEADER_SIZE", "MAX_FRAME_SIZE", "encode", "decode",
    "encode_frame", "decode_frame", "FrameDecoder", "register_type",
    "encode_hierarchy", "decode_hierarchy",
]  # fmt: skip

WIRE_VERSION = 3
MAGIC = b"RW"
_HEADER = Struct(">2sBII")  # magic, version, body length, body CRC32
HEADER_SIZE = _HEADER.size
#: Hard per-frame ceiling — a length prefix beyond this is treated as
#: stream corruption, not an allocation request.
MAX_FRAME_SIZE = 64 * 1024 * 1024

#: what a value that does not fit its annotation raises in a writer.
_UNENCODABLE = (StructError, AttributeError, TypeError, ValueError, LookupError)
#: what hostile bytes (or a constructor refusing them) raise in a reader.
_UNDECODABLE = (LocationServiceError, StructError, ValueError, TypeError, IndexError)

# -- the column codec, compiled from the schema --------------------------------
#
# A codec is a pair ``write(out: bytearray, values: list)`` and
# ``read(buf: bytes, pos, end, n) -> (values, new pos)``; ``end`` is where
# the enclosing struct stops.  The leaf codecs special-case ``n == 1`` (same
# bytes, no format string to build): most messages are columns of one.

_U32 = Struct("<I")
_F64 = np.dtype("<f8")
_STRUCT_HEAD = Struct("<BI")  # field count, byte length of the field columns


def _fixed(code: str) -> tuple:
    one = Struct("<" + code)

    def write(out, values):
        if len(values) == 1:
            out += one.pack(values[0])
        else:
            out += pack(f"<{len(values)}{code}", *values)

    def read(buf, pos, end, n):
        stop = pos + n * one.size
        if stop > end:
            raise WireError(f"{n} x '{code}' overruns its struct")
        if n == 1:
            return list(one.unpack_from(buf, pos)), stop
        return list(unpack_from(f"<{n}{code}", buf, pos)), stop

    return write, read


_WRITE_U32, _READ_U32 = _fixed("I")


def _blob(text: bool) -> tuple:
    """``str`` or ``bytes``; ASCII text columns are joined / decoded once
    and sliced, other text goes item by item (bad UTF-8 is refused)."""
    to_bytes, to_value = (str.encode, bytes.decode) if text else (bytes, bytes)

    def write(out, values):
        if len(values) == 1:
            blob = to_bytes(values[0])
            out += _U32.pack(len(blob))
            out += blob
        elif text and (joined := "".join(values)).isascii():
            _WRITE_U32(out, list(map(len, values)))
            out += joined.encode()
        else:
            blobs = [to_bytes(v) for v in values]
            _WRITE_U32(out, [len(b) for b in blobs])
            out += b"".join(blobs)

    def read(buf, pos, end, n):
        if n == 1 and pos + 4 <= end:
            stop = pos + 4 + _U32.unpack_from(buf, pos)[0]
            if stop > end:
                raise WireError("string bytes overrun their struct")
            return [to_value(buf[pos + 4 : stop])], stop
        lengths, pos = _READ_U32(buf, pos, end, n)
        stop = pos + sum(lengths)
        if stop > end:
            raise WireError("string bytes overrun their struct")
        raw = buf[pos:stop]
        whole = str(raw, "ascii") if text and raw.isascii() else raw
        offsets = list(accumulate(lengths, initial=0))
        values = [whole[a:b] for a, b in zip(offsets, offsets[1:])]
        if whole is raw:  # bytes, or text that is not all ASCII: item by item
            values = list(map(to_value, values))
        return values, stop

    return write, read


def _read_tags(buf, pos, end, n, known=b"\0\1"):
    """``n`` one-byte tags drawn from ``known`` (presence flags: 0 / 1)."""
    stop = pos + n
    tags = buf[pos:stop]
    if stop > end or tags.translate(None, known):
        raise WireError("tag column overruns its struct or holds an unknown tag")
    return tags, stop


_SCALARS = {
    "float": _fixed("d"),
    "int": _fixed("q"),
    "bool": _fixed("?"),
    "str": _blob(text=True),
    "bytes": _blob(text=False),
}
_WRITE_STR, _READ_STR = _SCALARS["str"]


def _opt(kind: Kind) -> tuple:
    write_inner, read_inner = _column(kind.arg)

    def write(out, values):
        present = [v for v in values if v is not None]
        if len(present) == len(values):
            out += b"\1" * len(values)
        else:
            out += bytes([v is not None for v in values])
        if present:
            write_inner(out, present)

    def read(buf, pos, end, n):
        flags, pos = _read_tags(buf, pos, end, n)
        count = sum(flags)
        if not count:
            return [None] * n, pos
        present, pos = read_inner(buf, pos, end, count)
        if count == n:
            return present, pos
        it = iter(present)
        return [next(it) if flag else None for flag in flags], pos

    return write, read


def _seq(kind: Kind) -> tuple:
    write_inner, read_inner = _column(kind.arg)
    view = COLUMN_VIEWS.get(kind.arg.arg) if kind.arg.tag == "struct" else None

    def write(out, values):
        _WRITE_U32(out, [len(v) for v in values])
        write_inner(out, list(chain.from_iterable(values)))

    def read(buf, pos, end, n):
        counts, pos = _READ_U32(buf, pos, end, n)
        if view and n == 1 and counts[0]:  # one seq of a struct that has a column view
            stop = _flat(kind.arg.arg)(buf, pos, end, counts[0], columns := [])
            if stop is not None:
                return [view(*columns)], stop
        items, pos = read_inner(buf, pos, end, sum(counts))
        it = iter(items)
        return [tuple(islice(it, count)) for count in counts], pos

    return write, read


@functools.cache
def _flat(cls: type):
    """``read(buf, pos, end, n, out)``: append the columns of ``n`` ``cls``
    structs to ``out`` — a nested struct's inline, floats as aligned
    float64 arrays — and return the position after them; ``None`` when a
    struct's field count is not its schema's (the row reader takes that
    peer)."""
    steps = [
        (_flat(k.arg) if k.tag == "struct" else None, k.tag == "float", _column(k)[1])
        for k in (field.kind for field in schema_of(cls))
    ]

    def read(buf, pos, end, n, out):
        count, size = _STRUCT_HEAD.unpack_from(buf, pos)
        stop, pos = pos + 5 + size, pos + 5
        if count != len(steps):
            return None
        if stop > end or n > max(size, 1):
            raise WireError(f"{cls.__name__}: {n} item(s) in {size} byte(s) do not fit")
        for nested, floats, read_column in steps:
            if nested is not None:
                if (pos := nested(buf, pos, stop, n, out)) is None:
                    return None
            elif floats and pos + 8 * n <= stop:
                out.append(np.frombuffer(buf[pos : pos + 8 * n], _F64))  # aligned: cheaper to use
                pos += 8 * n
            else:  # another scalar, or an overrun the codec's own reader refuses
                column, pos = read_column(buf, pos, stop, n)
                out.append(column)
        if pos != stop:
            raise WireError(f"{cls.__name__}: {stop - pos} byte(s) no field accounts for")
        return stop

    return read


def _tuple(kind: Kind) -> tuple:
    codecs = [_column(k) for k in kind.arg]

    def write(out, values):
        for index, (write_item, _) in enumerate(codecs):
            write_item(out, [v[index] for v in values])

    def read(buf, pos, end, n):
        columns = []
        for _, read_item in codecs:
            column, pos = read_item(buf, pos, end, n)
            columns.append(column)
        return list(zip(*columns)), pos

    return write, read


def _union(kind: Kind) -> tuple:
    codecs = [_column(variant) for variant in kind.arg]
    tag_of = {variant.arg: tag for tag, variant in enumerate(kind.arg)}
    known = bytes(range(len(codecs)))

    def write(out, values):
        tags = bytes([tag_of[type(v)] for v in values])
        out += tags
        for tag, (write_variant, _) in enumerate(codecs):
            write_variant(out, [v for v, t in zip(values, tags) if t == tag])

    def read(buf, pos, end, n):
        tags, pos = _read_tags(buf, pos, end, n, known)
        variants = []
        for tag, (_, read_variant) in enumerate(codecs):
            column, pos = read_variant(buf, pos, end, tags.count(tag))
            variants.append(iter(column))
        return [next(variants[tag]) for tag in tags], pos

    return write, read


_STRUCTS: dict[type, tuple] = {}


def _struct(cls: type) -> tuple:
    """The column codec of one dataclass (compiled once, then cached)."""
    if cls in _STRUCTS:
        return _STRUCTS[cls]
    fields = schema_of(cls)
    codecs = [_column(field.kind) for field in fields]
    writers = [(field.get, w) for field, (w, _) in zip(fields, codecs)]
    readers = [r for _, r in codecs]
    required = sum(field.required for field in fields)
    row = builder_of(cls)

    def write(out, values):
        if not values:
            return
        mark = len(out)
        out += b"\0\0\0\0\0"
        for getter, write_field in writers:
            write_field(out, list(map(getter, values)))
        _STRUCT_HEAD.pack_into(out, mark, len(writers), len(out) - mark - 5)

    def read(buf, pos, end, n):
        if not n:
            return [], pos
        count, size = _STRUCT_HEAD.unpack_from(buf, pos)
        stop = pos + 5 + size
        # Every item costs a byte, so ``n`` is bounded by ``size`` (one
        # item may be empty: a record of a class without fields).
        if stop > end or n > max(size, 1) or count < required:
            raise WireError(
                f"{cls.__name__}: {n} item(s) of {count} field(s) in {size} "
                f"byte(s) do not fit ({end - pos} left, {required} required)"
            )
        pos += 5
        columns = []
        for read_field in readers if count >= len(readers) else readers[:count]:
            column, pos = read_field(buf, pos, stop, n)
            columns.append(column)
        if pos != stop and count <= len(readers):
            raise WireError(f"{cls.__name__}: {stop - pos} byte(s) no field accounts for")
        return (list(map(row, *columns)) if columns else [row() for _ in range(n)]), stop

    _STRUCTS[cls] = write, read
    return write, read


def _column(kind: Kind) -> tuple:
    if kind.tag in _SCALARS:
        return _SCALARS[kind.tag]
    if kind.tag == "struct":
        return _struct(kind.arg)
    return {"opt": _opt, "seq": _seq, "tuple": _tuple, "union": _union}[kind.tag](kind)


# -- wire names and records -------------------------------------------------------

_BY_NAME: dict[str, type] = {}
#: class → its record prefix (``name_len`` + name), ready to append.
_PREFIX: dict[type, bytes] = {}


def register_type(cls: type) -> type:
    """Register ``cls`` (a dataclass) under its class name.

    Registering the same class twice is a no-op; a *different* class
    under an already-taken name is an error (wire names must be
    unambiguous).  The codec itself is compiled on first use.
    """
    name = cls.__name__
    existing = _BY_NAME.get(name)
    if existing is cls:
        return cls
    if existing is not None:
        raise WireError(
            f"wire name {name!r} already registered for {existing!r}, "
            f"cannot also mean {cls!r}"
        )
    if not dataclasses.is_dataclass(cls):
        raise WireError(f"{cls!r} is not a dataclass; it cannot ride the wire")
    raw = name.encode("utf-8")
    _BY_NAME[name] = cls
    _PREFIX[cls] = bytes([len(raw)]) + raw
    return cls


def _walk_subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _walk_subclasses(sub)


_swept_generation = -1  # ``Message.generation`` at the last sweep


def _refresh_message_types() -> None:
    """Auto-register every :class:`Message` subclass currently defined.

    Importing :mod:`repro.core.messages` first guarantees the full
    protocol catalog is visible even if the caller only imported this
    module; later-defined subclasses (control plane, tests) are picked
    up on the next unknown-type miss.
    """
    global _swept_generation
    import repro.core.messages  # noqa: F401  (side effect: defines the catalog)

    _swept_generation = Message.generation
    for sub in _walk_subclasses(Message):
        if sub in _PREFIX or not dataclasses.is_dataclass(sub):
            continue
        # ``@dataclass(slots=True)`` replaces the class object, leaving
        # the pre-slots original behind in ``__subclasses__``; only the
        # class its module currently binds is the live wire type.
        module = sys.modules.get(sub.__module__)
        if module is None or getattr(module, sub.__name__, None) is not sub:
            continue
        existing = _BY_NAME.get(sub.__name__)
        if existing is not None:
            # The sweep is opportunistic: a name collision between
            # unrelated *out-of-tree* subclasses (two test modules both
            # defining ``Pong``) must not be a hard failure — the
            # latecomer is simply not wire encodable.  Catalog types
            # (``repro.*``) always win the name, and colliding *inside*
            # the catalog stays an error.
            if not sub.__module__.startswith("repro."):
                continue
            if not existing.__module__.startswith("repro."):
                del _BY_NAME[sub.__name__], _PREFIX[existing]
        register_type(sub)


def _lookup(table: dict, key):
    # A miss sweeps only if a subclass was defined since the last sweep.
    if key not in table and _swept_generation != Message.generation:
        _refresh_message_types()
    return table.get(key)


def _write_record(out: bytearray, value) -> None:
    cls = type(value)
    prefix = _lookup(_PREFIX, cls)
    if prefix is None:
        raise WireError(f"no wire encoding registered for {cls!r}")
    out += prefix
    try:
        _struct(cls)[0](out, [value])
    except _UNENCODABLE as exc:
        raise WireError(f"cannot encode {cls.__name__}: {exc!r}") from exc


def encode(value) -> bytes:
    """One message as a self-contained frame (no addresses)."""
    return encode_frame("", "", [value])


def decode(data: bytes):
    """Inverse of :func:`encode`; raises :class:`WireError` on anything less."""
    return decode_frame(data)[2][0]


# -- framing -----------------------------------------------------------------


def encode_frame(src: str, dst: str, messages: "list[Message]") -> bytes:
    """One length-prefixed frame carrying a batch of messages."""
    out = bytearray(HEADER_SIZE)
    _WRITE_STR(out, [src])
    _WRITE_STR(out, [dst])
    _WRITE_U32(out, [len(messages)])
    for message in messages:
        _write_record(out, message)
    length = len(out) - HEADER_SIZE
    if length > MAX_FRAME_SIZE:
        raise WireError(f"frame of {length} bytes exceeds MAX_FRAME_SIZE")
    crc = zlib.crc32(memoryview(out)[HEADER_SIZE:])
    _HEADER.pack_into(out, 0, MAGIC, WIRE_VERSION, length, crc)
    return bytes(out)


def decode_frame(data: bytes) -> tuple[str, str, list]:
    """Decode exactly one *intact* frame (raises on anything less).

    Unlike :class:`FrameDecoder` — which self-heals past damage — this
    strict API raises :class:`WireError` on any corruption, skipped
    message or trailing bytes; callers holding one complete frame want
    loud failure, not silent repair.
    """
    decoder = FrameDecoder()
    frames = decoder.feed(data)
    damage = (decoder.pending_bytes, decoder.corrupted_frames, decoder.skipped_messages)
    if len(frames) != 1 or any(damage):
        raise WireError(
            f"expected exactly one intact frame, got {len(frames)} "
            f"(bytes left over, corrupt frames, skipped messages: {damage})"
        )
    return frames[0]


class FrameDecoder:
    """Incremental frame splitter for streams and multi-frame datagrams.

    Feed it arbitrarily chunked bytes; it returns every completed frame
    as ``(src, dst, [messages])`` and buffers the remainder.  The
    decoder is **self-healing**: corrupt bytes — bad magic, a retired
    (< 3) version byte, an absurd length prefix, a CRC mismatch — never
    raise.  Each damage episode bumps ``corrupted_frames`` and the
    decoder scans forward to the next magic marker, so one flipped bit
    costs at most the frame it actually hit, never the connection.
    Frames from *newer* peers stay useful (see the module docstring).
    """

    __slots__ = ("_buffer", "corrupted_frames", "skipped_messages")

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: corruption episodes survived (resyncs + consumed rotten frames).
        self.corrupted_frames = 0
        #: individual messages dropped from otherwise-intact frames
        #: (unknown type from a newer peer, bytes that do not decode
        #: into the named type, a constructor that refuses them).
        self.skipped_messages = 0

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> list[tuple[str, str, list]]:
        self._buffer.extend(data)
        buf = self._buffer
        frames: list[tuple[str, str, list]] = []
        while len(buf) > len(MAGIC):
            if buf[: len(MAGIC)] != MAGIC or buf[len(MAGIC)] < WIRE_VERSION:
                self._resync()
                continue
            if len(buf) < HEADER_SIZE:
                break
            _magic, _version, length, crc = _HEADER.unpack_from(buf)
            if length > MAX_FRAME_SIZE:
                self._resync()
                continue
            if len(buf) < HEADER_SIZE + length:
                break
            body = bytes(buf[HEADER_SIZE : HEADER_SIZE + length])
            if zlib.crc32(body) != crc:
                self._resync()
                continue
            del buf[: HEADER_SIZE + length]
            frame = self._parse_body(body)
            if frame is None:
                # Checksummed boundary, rotten payload (a peer re-framed
                # damaged bytes verbatim): consume the frame whole.
                self.corrupted_frames += 1
            else:
                frames.append(frame)
        return frames

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
        """Decode one frame body; ``None`` marks it unusable."""
        end = len(body)
        messages: list = []
        try:
            (src,), pos = _READ_STR(body, 0, end, 1)
            (dst,), pos = _READ_STR(body, pos, end, 1)
            (count,), pos = _READ_U32(body, pos, end, 1)
            for _ in range(count):
                start = pos + 1 + body[pos]
                cls = _lookup(_BY_NAME, str(body[pos + 1 : start], "utf-8"))
                _fields, size = _STRUCT_HEAD.unpack_from(body, start)
                pos = start + 5 + size
                if pos > end:
                    return None
                try:
                    if cls is None:
                        raise WireError("unknown wire type")
                    messages.append(_struct(cls)[1](body, start, pos, 1)[0][0])
                except _UNDECODABLE:
                    self.skipped_messages += 1
        except _UNDECODABLE:
            return None
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

"""Spans around the layers' public entry points, installed from here.

A traced pass rebinds names — module globals such as ``encode_frame`` and
``find_defect``, methods on the transport, server, store and index classes
— to timing wrappers for the duration of ``installed(tracer)`` and puts the
originals back afterwards.  Nothing under ``src/`` is edited, and an
untraced pass runs the originals with nothing in between.

A span is ``[name, start, end, parent, op]``.  ``parent`` is the span that
caused this one: the enclosing call when there is one, else the span that
spawned the task this step belongs to.  ``op`` is the request/query id of
the message in hand where there is one, inherited downwards.  Async code is
timed resume-to-suspend, one span per step, so time spent awaiting a reply
is nobody's busy time.  Everything runs on one thread, so the open spans
form a stack and a layer's **self time** is its spans' duration minus the
part of it their child spans cover.
"""

from __future__ import annotations

import collections.abc
import contextlib
import sys
import time
import types
from collections import Counter, defaultdict

from repro.core.client import LocationClient
from repro.core.server import LocationServer
from repro.net import udp, wire
from repro.net.tcp import TcpTransport
from repro.net.transport import SocketContext, SocketTransport
from repro.net.udp import UdpTransport
from repro.runtime import validation
from repro.runtime.asyncio_rt import AsyncioContext, AsyncioNetwork
from repro.spatial.base import SpatialIndex
from repro.storage import LocalDataStore

import driver


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._cut = 0

    def begin(self, name: str, op=None, cause: int | None = None) -> int:
        stack = self._stack
        if stack:
            cause = stack[-1]
        if op is None and cause is not None:
            op = self.spans[cause][4]
        index = len(self.spans)
        stack.append(index)
        span = [name, 0.0, None, cause, op]
        self.spans.append(span)
        span[1] = time.perf_counter()  # last, so bookkeeping lands in the parent
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def current_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def cut(self) -> tuple[list[list], Counter]:
        """Closed spans and counts since the previous cut, parents re-based
        (a parent from before the cut becomes ``None``).  Call between
        groups, when no span is open."""
        assert not self._stack, "cut() with a span still open"
        base = self._cut
        spans = [
            [name, start, end, parent - base if parent is not None and parent >= base else None, op]
            for name, start, end, parent, op in self.spans[base:]
            if end is not None
        ]
        self._cut = len(self.spans)
        counts, self.counts = self.counts, Counter()
        return spans, counts


def self_times(spans: list[list]) -> dict[str, float]:
    """Self seconds per span name: duration minus what child spans cover of
    it.  A child outside its parent's interval (a task step caused by an
    earlier span) covers nothing."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent is not None:
            _pname, pstart, pend, _pp, _pop = spans[parent]
            overlap = min(end, pend) - max(start, pstart)
            if overlap > 0.0:
                covered[parent] += overlap
    totals: dict[str, float] = defaultdict(float)
    for (name, start, end, _parent, _op), inside in zip(spans, covered):
        totals[name] += (end - start) - inside
    return dict(totals)


class _TimedCoroutine(collections.abc.Coroutine):
    """Drives ``coro`` and records one span per resume-to-suspend step."""

    __slots__ = ("_coro", "_tracer", "_name", "_op", "_cause")

    def __init__(self, coro, tracer: Tracer, name: str) -> None:
        self._coro = coro
        self._tracer = tracer
        self._name = name
        self._cause = tracer.current()
        self._op = tracer.spans[self._cause][4] if self._cause is not None else None

    def send(self, value):
        tracer = self._tracer
        span = tracer.begin(self._name, self._op, self._cause)
        try:
            return self._coro.send(value)
        finally:
            tracer.end(span)

    def throw(self, *exc_info):
        tracer = self._tracer
        span = tracer.begin(self._name, self._op, self._cause)
        try:
            return self._coro.throw(*exc_info)
        finally:
            tracer.end(span)

    def close(self) -> None:
        self._coro.close()

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)


def _message_op(message):
    return getattr(message, "request_id", None) or getattr(message, "query_id", None)


def _timed(tracer: Tracer, fn, name: str, message_arg: int | None = None, after=None):
    """``fn`` inside a span.  ``message_arg`` is the position of a protocol
    message among the arguments (its id becomes the span's op);
    ``after(counts, args, result)`` records counts once the span is closed."""
    begin, end = tracer.begin, tracer.end

    def wrapper(*args, **kwargs):
        span = begin(name, _message_op(args[message_arg]) if message_arg is not None else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            end(span)
        if after is not None:
            after(tracer.counts, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_async(tracer: Tracer, fn, name: str):
    def wrapper(*args, **kwargs):
        return _TimedCoroutine(fn(*args, **kwargs), tracer, name)

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_scan(tracer: Tracer, fn, name: str, count_hits):
    """Like ``_timed`` for index scans, which return lazy iterators: the scan
    is consumed inside the span, or the span would time nothing.
    ``count_hits(result)`` says how many candidates it produced."""
    begin, end = tracer.begin, tracer.end

    def wrapper(*args, **kwargs):
        span = begin(name)
        try:
            result = fn(*args, **kwargs)
            if not isinstance(result, list):
                result = list(result)
        finally:
            end(span)
        hits = count_hits(result)
        tracer.counts["index.query_hits"] += hits
        if (tracer.current_name() or "").startswith("store.range_query"):
            tracer.counts["index.range_hits"] += hits
        return result

    wrapper.__wrapped__ = fn
    return wrapper


# -- counts taken at the same boundaries --------------------------------------


def _after_encode(counts, args, frame) -> None:
    counts["wire.encode_msgs"] += len(args[2])
    counts["wire.encode_bytes"] += len(frame)


def _timed_send_bytes(tracer: Tracer, fn):
    """``_send_bytes`` hands one frame to the socket — or, over UDP, an
    oversized frame as several fragment frames it encodes itself."""
    timed = _timed(tracer, fn, "sock.send_bytes")

    def wrapper(self, data, location):
        counts = tracer.counts
        encoded_before = counts["wire.encode_bytes"]
        timed(self, data, location)
        fragment_bytes = counts["wire.encode_bytes"] - encoded_before
        counts["sock.frames_sent"] += 1
        counts["sock.bytes_sent"] += fragment_bytes or len(data)
        if fragment_bytes:
            counts["sock.fragments_sent"] += -(-len(data) // udp.FRAGMENT_CHUNK)

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_feed(tracer: Tracer, fn):
    timed = _timed(tracer, fn, "wire.decoder_feed")

    def wrapper(self, data):
        skipped_before = self.skipped_messages
        frames = timed(self, data)
        counts = tracer.counts
        counts["wire.decode_calls"] += 1
        counts["wire.decode_bytes"] += len(data)
        counts["wire.msgs_skipped"] += self.skipped_messages - skipped_before
        return frames

    wrapper.__wrapped__ = fn
    return wrapper


def _after_update_many(counts, args, _result) -> None:
    counts["store.update_items"] += len(args[1])


def _after_range(counts, _args, entries) -> None:
    counts["store.range_entries"] += len(entries)


def _after_range_many(counts, _args, answers) -> None:
    counts["store.range_entries"] += sum(len(entries) for entries in answers)


def _timed_index_update(tracer: Tracer, fn):
    begin, end = tracer.begin, tracer.end

    def wrapper(self, moves):
        span = begin("index.update_many")
        try:
            moves = list(moves)  # callers pass a generator; its items are the count
            result = fn(self, moves)
        finally:
            end(span)
        tracer.counts["index.update_items"] += len(moves)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_spawn(tracer: Tracer, fn):
    """``Context.spawn``: every server handler and sub-task starts here."""

    def wrapper(self, coro, name="task"):
        return fn(self, _TimedCoroutine(coro, tracer, "server.handler"), name)

    wrapper.__wrapped__ = fn
    return wrapper


# -- installing and removing --------------------------------------------------

_STORE_SPANS = {
    "update_many": ("store.update_many", _after_update_many),
    "admit_handover_many": ("store.admit_handover_many", None),
    "deregister": ("store.deregister", None),
    "position_query": ("store.position_query", None),
    "range_query": ("store.range_query", _after_range),
    "range_query_many": ("store.range_query_many", _after_range_many),
    "nearest_neighbor_query": ("store.nearest_neighbor_query", None),
    "nn_candidates": ("store.nn_candidates", None),
    "nn_candidates_many": ("store.nn_candidates_many", None),
}


def _all_subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


class _Patches:
    def __init__(self) -> None:
        self._undo: list = []

    def attr(self, owner, name: str, make) -> None:
        """``owner.name = make(current)``; an inherited attribute is shadowed
        on ``owner`` and un-shadowed on removal."""
        own = vars(owner).get(name, self)
        setattr(owner, name, make(getattr(owner, name)))
        self._undo.append(
            (lambda: delattr(owner, name)) if own is self else (lambda: setattr(owner, name, own))
        )

    def function(self, original, replacement) -> None:
        """Rebind every ``repro.*`` module global that is ``original``
        (``from x import f`` copies the name into the importer)."""
        for module_name, module in list(sys.modules.items()):
            if not isinstance(module, types.ModuleType) or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self.attr(module, name, lambda _current: replacement)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def _install(tracer: Tracer) -> _Patches:
    patches = _Patches()
    timed = lambda name, **kw: (lambda fn: _timed(tracer, fn, name, **kw))  # noqa: E731
    timed_async = lambda name: (lambda fn: _timed_async(tracer, fn, name))  # noqa: E731

    # net.wire
    patches.function(
        wire.encode_frame, _timed(tracer, wire.encode_frame, "wire.encode_frame", after=_after_encode)
    )
    patches.attr(wire.FrameDecoder, "feed", lambda fn: _timed_feed(tracer, fn))
    patches.attr(wire.FrameDecoder, "flush", timed("wire.decoder_flush"))

    # net.transport / net.udp / net.tcp
    patches.attr(SocketTransport, "transmit", timed("sock.transmit", message_arg=3))
    patches.attr(SocketTransport, "transmit_many", timed("sock.transmit_many"))
    patches.attr(SocketTransport, "_on_frames", timed("sock.on_frames"))
    patches.attr(UdpTransport, "_on_datagram", timed("sock.on_datagram"))
    for transport_cls in (UdpTransport, TcpTransport):
        patches.attr(transport_cls, "_send_bytes", lambda fn: _timed_send_bytes(tracer, fn))
    patches.attr(TcpTransport, "_sender", timed_async("sock.tcp_sender"))
    patches.attr(TcpTransport, "_on_connection", timed_async("sock.tcp_reader"))

    # runtime.asyncio_rt
    patches.attr(AsyncioNetwork, "transmit", timed("rt.transmit", message_arg=3))
    patches.attr(AsyncioNetwork, "transmit_many", timed("rt.transmit_many"))

    # runtime.validation
    patches.function(
        validation.find_defect,
        _timed(tracer, validation.find_defect, "validate.find_defect", message_arg=0),
    )

    # core.server (and the driver's own endpoints, so their receive path
    # — validate the answer, resolve the parked future — is accounted)
    patches.attr(LocationServer, "deliver", timed("server.deliver", message_arg=1))
    for context_cls in (SocketContext, AsyncioContext):
        patches.attr(context_cls, "spawn", lambda fn: _timed_spawn(tracer, fn))
    for endpoint_cls in (LocationClient, driver._Reporter):
        patches.attr(endpoint_cls, "deliver", timed("driver.deliver", message_arg=1))

    # storage
    for method, (name, after) in _STORE_SPANS.items():
        patches.attr(LocalDataStore, method, timed(name, after=after))

    # spatial: every concrete index overrides these, so wrap where defined
    for index_cls in (SpatialIndex, *_all_subclasses(SpatialIndex)):
        defined = vars(index_cls)
        if "update_many" in defined:
            patches.attr(index_cls, "update_many", lambda fn: _timed_index_update(tracer, fn))
        if "query_rect" in defined and not getattr(defined["query_rect"], "__isabstractmethod__", False):
            patches.attr(
                index_cls, "query_rect", lambda fn: _timed_scan(tracer, fn, "index.query_rect", len)
            )
        if "query_rect_many" in defined:
            patches.attr(
                index_cls,
                "query_rect_many",
                lambda fn: _timed_scan(
                    tracer, fn, "index.query_rect_many", lambda found: sum(map(len, found))
                ),
            )
        if "nearest" in defined and not getattr(defined["nearest"], "__isabstractmethod__", False):
            patches.attr(index_cls, "nearest", timed("index.nearest"))

    # the driver itself
    patches.attr(driver.Driver, "build_envelope", timed("driver.envelope_build"))
    patches.attr(driver.Driver, "_drain", timed_async("driver.client"))
    return patches


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Timing wrappers in place for the ``with`` block, originals after it."""
    patches = _install(tracer)
    try:
        yield tracer
    finally:
        patches.remove()

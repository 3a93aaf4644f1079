"""UDP transport: the paper's deployment story, datagrams and all.

One frame per datagram on the common path; a message whose frame
exceeds :data:`MAX_DATAGRAM_PAYLOAD` (a large envelope) is split into
:class:`Fragment` messages (each safely under the datagram ceiling) and
reassembled at the receiver before normal dispatch — so a large message
never silently truncates at 64 KiB.

Loss semantics are UDP's: a dropped datagram is simply gone, and the
protocol lane's timeouts and fresh-id re-sends
(:meth:`~repro.runtime.base.Endpoint.ask`, unchanged from the simulated
runtime) are what recover it.  The transport's own ``drop_rate`` knob
exists so loss can be *provoked* deterministically on loopback, where
real drops are rare.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass

from repro.net.transport import SocketTransport
from repro.net.wire import FrameDecoder, encode_frame
from repro.runtime.base import Message

__all__ = ["UdpTransport", "Fragment", "MAX_DATAGRAM_PAYLOAD"]

#: Keep frames comfortably below the 65,507-byte UDP payload limit —
#: headroom for the fragment envelope's own framing overhead.
MAX_DATAGRAM_PAYLOAD = 60_000

#: Raw bytes per fragment.  The chunk rides as a ``bytes`` field in its
#: own frame: header, addresses, record and ``frag_id`` take ~100 bytes
#: (more for a long host name), so 1 000 bytes of headroom keep the
#: encoded fragment datagram under :data:`MAX_DATAGRAM_PAYLOAD`.
FRAGMENT_CHUNK = MAX_DATAGRAM_PAYLOAD - 1_000

#: Bytes asked of the kernel per datagram: the UDP payload ceiling, rounded.
RECV_BUFFER = 65_536

#: Wire address fragments travel under (never a real endpoint).
FRAGMENT_DST = "__fragment__"


@dataclass(frozen=True, slots=True)
class Fragment(Message):
    """One slice of an oversized frame."""

    frag_id: str
    index: int
    count: int
    data: bytes


class _UdpProtocol(asyncio.DatagramProtocol):
    def __init__(self, transport: "UdpTransport") -> None:
        self._transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self._transport._on_datagram(data)

    def error_received(self, exc) -> None:  # pragma: no cover - platform noise
        pass


class UdpTransport(SocketTransport):
    """Datagram transport implementing the :class:`Context` contract."""

    kind = "udp"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._sock = None
        self._protocol = None
        self._frag_counter = itertools.count()
        #: frag_id → (count, {index: bytes}, born), count ``None`` for the
        #: tombstone of a killed reassembly; reassembly is bounded
        #: two ways: a partial older than :data:`PARTIAL_TTL` seconds is
        #: expired (its missing fragment is never coming), and any
        #: partial beyond ``_MAX_PARTIAL`` others is evicted.  Either
        #: way the discarded reassembly counts as a corrupted frame.
        self._partials: dict[str, tuple[int | None, dict[int, bytes], float]] = {}

    _MAX_PARTIAL = 256
    #: seconds a partial reassembly may wait for its missing fragments.
    PARTIAL_TTL = 5.0

    async def _open(self) -> tuple[str, int]:
        loop = asyncio.get_event_loop()
        self._sock, self._protocol = await loop.create_datagram_endpoint(
            lambda: _UdpProtocol(self), local_addr=(self.host, self.port)
        )
        # asyncio reads every datagram into a fresh 256 KiB buffer; no UDP
        # payload exceeds 64 KiB.  A buffer that large is beyond what malloc
        # keeps on hand: whenever the heap holds no free chunk of that size
        # (which unrelated allocations decide), each datagram costs an mmap
        # or brk round trip and two page faults, +40 % on a position query.
        self._sock.max_size = RECV_BUFFER
        host, port = self._sock.get_extra_info("sockname")[:2]
        return host, port

    async def _close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    # -- send --------------------------------------------------------------

    def _send_bytes(self, data: bytes, location: tuple[str, int]) -> None:
        if self._sock is None:
            return
        if len(data) <= MAX_DATAGRAM_PAYLOAD:
            self._sock.sendto(data, location)
            return
        frag_id = f"{self.host}:{self.port}#{next(self._frag_counter)}"
        chunks = [
            data[i : i + FRAGMENT_CHUNK]
            for i in range(0, len(data), FRAGMENT_CHUNK)
        ]
        for index, chunk in enumerate(chunks):
            fragment = Fragment(
                frag_id=frag_id,
                index=index,
                count=len(chunks),
                data=chunk,
            )
            self._sock.sendto(
                encode_frame("", FRAGMENT_DST, [fragment]), location
            )

    # -- receive -----------------------------------------------------------

    def _on_datagram(self, data: bytes) -> None:
        self._expire_partials()
        decoder = FrameDecoder()
        frames = decoder.feed(data)
        # Datagram boundary: frames never span datagrams, so leftover
        # bytes are damage — flush rescues any intact trailing frames.
        frames.extend(decoder.flush())
        self._note_decoder_damage(decoder)
        plain = []
        for frame in frames:
            if frame[1] == FRAGMENT_DST:
                self._on_fragment(frame[2])
            else:
                plain.append(frame)
        if plain:
            self._on_frames(plain)

    def _on_fragment(self, messages: list) -> None:
        for fragment in messages:
            if not isinstance(fragment, Fragment):
                continue
            count, chunks, born = self._partials.setdefault(
                fragment.frag_id,
                (fragment.count, {}, asyncio.get_event_loop().time()),
            )
            if count is None:
                continue  # a sibling of a reassembly killed (and counted) below
            if fragment.count != count or not 0 <= fragment.index < count:
                # A header that cannot address a slot of *this* reassembly
                # (or disagrees about its size) is lying: the frame is
                # unrecoverable.  Count it once and leave a tombstone, so
                # siblings still in flight neither complete a frame with
                # holes nor open a partial that expires as a second count.
                self._partials[fragment.frag_id] = (None, {}, born)
                self.stats.frames_corrupted += 1
                continue
            chunks[fragment.index] = fragment.data
            if len(chunks) < count:
                continue
            del self._partials[fragment.frag_id]
            whole = b"".join(chunks[i] for i in range(count))
            decoder = FrameDecoder()
            frames = decoder.feed(whole)
            frames.extend(decoder.flush())
            self._note_decoder_damage(decoder)
            self._on_frames(frames)
        # Bound partial-state growth: UDP loss can strand reassemblies.
        while len(self._partials) > self._MAX_PARTIAL:
            self._discard_partial(next(iter(self._partials)))

    def _discard_partial(self, frag_id: str) -> None:
        """Give up on a reassembly: one corrupt frame, unless it is the
        tombstone of one that was counted when it was killed."""
        count, _chunks, _born = self._partials.pop(frag_id)
        self.stats.frames_corrupted += count is not None

    def _expire_partials(self) -> None:
        """Discard partial reassemblies whose fragments stopped arriving.

        A lost fragment would otherwise pin its siblings' bytes forever;
        after :data:`PARTIAL_TTL` seconds the frame is declared dead and
        counted as corrupt (the sender's retry policy re-sends the
        messages it carried).
        """
        if not self._partials:
            return
        now = asyncio.get_event_loop().time()
        expired = [
            frag_id
            for frag_id, (_count, _chunks, born) in self._partials.items()
            if now - born > self.PARTIAL_TTL
        ]
        for frag_id in expired:
            self._discard_partial(frag_id)

"""UDP and TCP socket transports: the ``Context`` contract over real
loopback sockets, with ``AsyncioNetwork``-parity bookkeeping and the
chaos layer's ``FaultInjector`` installed unchanged."""

import asyncio
from dataclasses import dataclass

import pytest

from repro.chaos import FaultInjector, LinkFaults
from repro.errors import TransportError
from repro.net.address import AddressBook
from repro.net.tcp import TcpTransport
from repro.net.udp import FRAGMENT_CHUNK, MAX_DATAGRAM_PAYLOAD, Fragment, UdpTransport
from repro.net.wire import encode_frame
from repro.runtime.base import Endpoint, Message, Response

TRANSPORTS = [UdpTransport, TcpTransport]


@dataclass(frozen=True, slots=True)
class XportEchoReq(Message):
    request_id: str
    reply_to: str
    payload: str


@dataclass(frozen=True, slots=True)
class XportEchoRes(Response):
    request_id: str
    payload: str


class Echo(Endpoint):
    def __init__(self, address: str = "echo") -> None:
        super().__init__(address)
        self.received: list[Message] = []
        self.on(XportEchoReq, self._on_echo)

    async def _on_echo(self, req: XportEchoReq) -> None:
        self.received.append(req)
        self.send(req.reply_to, XportEchoRes(req.request_id, req.payload))


class Collector(Endpoint):
    def __init__(self, address: str = "sink") -> None:
        super().__init__(address)
        self.received: list[Message] = []
        self.on(XportEchoReq, self._collect)

    async def _collect(self, msg: Message) -> None:
        self.received.append(msg)


async def start_pair(cls, **kwargs):
    """Two transports (caller-side and server-side) sharing one book."""
    book = AddressBook()
    left = cls(book=book, **kwargs)
    right = cls(book=book)
    await left.start()
    host, port = await right.start()
    book.bind("echo", host, port)
    book.bind("sink", host, port)
    book.bind("caller", *(left.host, left.port))
    return left, right


async def stop_all(*transports):
    for transport in transports:
        await transport.stop()


async def settle(seconds: float = 0.15):
    await asyncio.sleep(seconds)


@pytest.mark.parametrize("cls", TRANSPORTS, ids=lambda c: c.kind)
class TestLoopback:
    def test_request_response_over_socket(self, cls):
        async def scenario():
            left, right = await start_pair(cls)
            try:
                right.join(Echo())
                caller = left.join(Endpoint("caller"))
                res = await caller.request(
                    "echo",
                    XportEchoReq(caller.next_request_id(), "caller", "hi"),
                    timeout=5.0,
                )
                assert isinstance(res, XportEchoRes)
                assert res.payload == "hi"
                assert left.stats.messages_sent == 1
                assert right.stats.messages_delivered == 1
            finally:
                await stop_all(left, right)

        asyncio.run(scenario())

    def test_unresolvable_destination_is_a_dead_letter(self, cls):
        async def scenario():
            left, right = await start_pair(cls)
            try:
                caller = left.join(Endpoint("caller"))
                caller.send("nowhere", XportEchoReq("r", "caller", "x"))
                assert left.stats.dead_letters == 1
                assert left.stats.messages_sent == 1
            finally:
                await stop_all(left, right)

        asyncio.run(scenario())

    def test_down_destination_drops_locally(self, cls):
        async def scenario():
            left, right = await start_pair(cls)
            try:
                sink = right.join(Collector())
                caller = left.join(Endpoint("caller"))
                right.crash("sink")
                caller.send("sink", XportEchoReq("r", "caller", "x"))
                await settle()
                assert sink.received == []
                assert right.stats.messages_dropped == 1
                right.restore("sink")
                caller.send("sink", XportEchoReq("r2", "caller", "y"))
                await settle()
                assert [r.request_id for r in sink.received] == ["r2"]
            finally:
                await stop_all(left, right)

        asyncio.run(scenario())

    @pytest.mark.slow
    def test_timeout_and_retry_recover_from_drops(self, cls):
        """The re-send story end-to-end: a lossy sender-side link still
        converges because unanswered requests are re-sent."""

        async def scenario():
            left, right = await start_pair(cls, drop_rate=0.5, seed=3)
            try:
                right.join(Echo())
                caller = left.join(Endpoint("caller"))
                answered = 0
                for i in range(10):
                    for _attempt in range(8):
                        try:
                            res = await caller.request(
                                "echo",
                                XportEchoReq(
                                    caller.next_request_id(), "caller", f"p{i}"
                                ),
                                timeout=0.3,
                            )
                            assert res.payload == f"p{i}"
                            answered += 1
                            break
                        except TransportError:
                            continue
                    else:
                        raise AssertionError(f"request {i} never answered")
                assert answered == 10
                assert left.stats.messages_dropped > 0
            finally:
                await stop_all(left, right)

        asyncio.run(scenario())


@pytest.mark.parametrize("cls", TRANSPORTS, ids=lambda c: c.kind)
class TestFaultInjectorOnSockets:
    """The PR-6 chaos hook runs unchanged on the socket transports."""

    def test_severed_link_drops_and_counts(self, cls):
        async def scenario():
            left, right = await start_pair(cls)
            injector = FaultInjector(left, seed=0)
            try:
                sink = right.join(Collector())
                caller = left.join(Endpoint("caller"))
                injector.sever("caller", "sink")
                caller.send("sink", XportEchoReq("r", "caller", "x"))
                await settle()
                assert sink.received == []
                assert left.stats.faults_injected == 1
                assert left.stats.messages_dropped == 1
                injector.clear()
                caller.send("sink", XportEchoReq("r2", "caller", "y"))
                await settle()
                assert [r.request_id for r in sink.received] == ["r2"]
            finally:
                await stop_all(left, right)

        asyncio.run(scenario())

    def test_duplicates_are_manufactured_not_sent(self, cls):
        async def scenario():
            left, right = await start_pair(cls)
            injector = FaultInjector(left, seed=0)
            try:
                sink = right.join(Collector())
                caller = left.join(Endpoint("caller"))
                injector.set_link("caller", "sink", LinkFaults(duplicate_rate=1.0))
                caller.send("sink", XportEchoReq("r", "caller", "x"))
                await settle()
                assert len(sink.received) == 2
                assert left.stats.messages_sent == 1
                assert left.stats.messages_duplicated == 1
            finally:
                await stop_all(left, right)

        asyncio.run(scenario())

    @pytest.mark.slow
    def test_injected_loss_recovered_by_retries(self, cls):
        """FaultInjector loss + protocol-style retries: zero lost."""

        async def scenario():
            left, right = await start_pair(cls)
            injector = FaultInjector(left, seed=11)
            try:
                right.join(Echo())
                caller = left.join(Endpoint("caller"))
                injector.set_link("caller", "echo", LinkFaults(drop_rate=0.5))
                for i in range(6):
                    for _attempt in range(10):
                        try:
                            await caller.request(
                                "echo",
                                XportEchoReq(
                                    caller.next_request_id(), "caller", f"p{i}"
                                ),
                                timeout=0.3,
                            )
                            break
                        except TransportError:
                            continue
                    else:
                        raise AssertionError(f"request {i} never answered")
                assert left.stats.faults_injected > 0
            finally:
                await stop_all(left, right)

        asyncio.run(scenario())


class TestUdpFragmentation:
    def test_oversized_message_survives_fragmentation(self):
        async def scenario():
            left, right = await start_pair(UdpTransport)
            try:
                sink = right.join(Collector())
                caller = left.join(Endpoint("caller"))
                big = "x" * 125_000
                caller.send("sink", XportEchoReq("r", "caller", big))  # ~125 KB frame
                await settle(0.4)
                assert len(sink.received) == 1
                assert sink.received[0].payload == big
            finally:
                await stop_all(left, right)

        asyncio.run(scenario())

    def test_receive_buffer_is_sized_for_a_datagram(self):
        # asyncio's default asks for 256 KiB per datagram, which malloc
        # serves with a system call and two page faults per receive
        # whenever the heap has no free chunk that large.
        async def scenario():
            left, right = await start_pair(UdpTransport)
            try:
                for transport in (left, right):
                    assert MAX_DATAGRAM_PAYLOAD < transport._sock.max_size <= 65_536
            finally:
                await stop_all(left, right)

        asyncio.run(scenario())

    def test_single_datagram_stays_unfragmented(self):
        async def scenario():
            left, right = await start_pair(UdpTransport)
            sent = []
            real_sendto = None

            try:
                sink = right.join(Collector())
                caller = left.join(Endpoint("caller"))
                real_sendto = left._sock.sendto
                left._sock.sendto = lambda data, addr: (
                    sent.append(len(data)),
                    real_sendto(data, addr),
                )
                caller.send("sink", XportEchoReq("r", "caller", "small"))
                await settle()
                assert len(sent) == 1
                assert sent[0] <= MAX_DATAGRAM_PAYLOAD
                assert len(sink.received) == 1
            finally:
                await stop_all(left, right)

        asyncio.run(scenario())

    def test_fragments_carry_raw_bytes_under_the_datagram_ceiling(self):
        async def scenario():
            left, right = await start_pair(UdpTransport)
            sent = []
            try:
                sink = right.join(Collector())
                caller = left.join(Endpoint("caller"))
                real_sendto = left._sock.sendto
                left._sock.sendto = lambda data, addr: (
                    sent.append(len(data)),
                    real_sendto(data, addr),
                )
                message = XportEchoReq("r", "caller", "x" * 125_000)
                whole = len(encode_frame("caller", "sink", [message]))
                caller.send("sink", message)
                await settle(0.4)
                assert len(sink.received) == 1
                # No text inflation: the chunks add up to the frame, each
                # datagram pays only the fragment header on top.
                assert len(sent) == -(-whole // FRAGMENT_CHUNK)
                assert max(sent) <= MAX_DATAGRAM_PAYLOAD
                assert sum(sent) < whole + 200 * len(sent)
            finally:
                await stop_all(left, right)

        asyncio.run(scenario())

    def test_lying_fragment_kills_its_reassembly_exactly_once(self):
        async def scenario():
            transport = UdpTransport()
            sink = transport.join(Collector())
            frame = encode_frame("caller", "sink", [XportEchoReq("r", "caller", "p" * 90)])
            third = -(-len(frame) // 3)
            chunks = [frame[i : i + third] for i in range(0, len(frame), third)]

            def fragment(index, count=3, frag_id="f"):
                return Fragment(frag_id, index, count, chunks[index])

            # A fragment that disagrees about ``count`` (slot 4 of 5 in a
            # reassembly opened for 3) kills the partial, counted once ...
            transport._on_fragment([fragment(0), Fragment("f", 4, 5, b"junk")])
            assert transport.stats.frames_corrupted == 1
            # ... so its late siblings neither complete a frame with a
            # hole where slot 2 belongs, nor open a partial that expires
            # into a second count ...
            transport._on_fragment([fragment(1)])
            assert transport.stats.frames_corrupted == 1 and sink.received == []
            transport._on_fragment([fragment(2)])
            loop = asyncio.get_event_loop()
            real_time = loop.time
            loop.time = lambda: real_time() + UdpTransport.PARTIAL_TTL + 1
            try:
                transport._expire_partials()
            finally:
                loop.time = real_time
            assert transport.stats.frames_corrupted == 1
            assert not transport._partials and sink.received == []
            # ... and an honest reassembly right after still goes through.
            transport._on_fragment([fragment(i, frag_id="g") for i in range(3)])
            await settle(0.05)
            assert [msg.request_id for msg in sink.received] == ["r"]
            assert transport.stats.frames_corrupted == 1

        asyncio.run(scenario())

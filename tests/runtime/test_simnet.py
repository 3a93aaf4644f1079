"""Tests for the simulated network runtime."""

import pytest

from repro.chaos import FaultInjector, LinkFaults
from repro.errors import TransportError
from repro.runtime.base import Endpoint, Message, Response
from repro.runtime.latency import CostModel, LatencyModel
from repro.runtime.simnet import SimNetwork

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Ping(Message):
    request_id: str
    reply_to: str
    payload: str = "ping"


@dataclass(frozen=True, slots=True)
class Pong(Response):
    request_id: str
    payload: str = "pong"


class Echo(Endpoint):
    """Replies Pong to every Ping."""

    def __init__(self, address: str) -> None:
        super().__init__(address)
        self.received: list[Ping] = []
        self.on(Ping, self._on_ping)

    async def _on_ping(self, msg: Ping) -> None:
        self.received.append(msg)
        self.send(msg.reply_to, Pong(request_id=msg.request_id))


class Caller(Endpoint):
    pass


class TestDelivery:
    def test_round_trip(self):
        net = SimNetwork()
        echo = net.join(Echo("echo"))
        caller = net.join(Caller("caller"))

        async def call():
            rid = caller.next_request_id()
            res = await caller.request("echo", Ping(request_id=rid, reply_to="caller"))
            return res

        res = net.run_coro(call())
        assert isinstance(res, Pong)
        assert len(echo.received) == 1
        assert net.stats.messages_delivered == 2

    def test_latency_advances_virtual_time(self):
        net = SimNetwork(latency=LatencyModel(base=0.001, per_entry=0.0))
        net.join(Echo("echo"))
        caller = net.join(Caller("caller"))

        async def call():
            rid = caller.next_request_id()
            await caller.request("echo", Ping(request_id=rid, reply_to="caller"))
            return net.loop.now

        elapsed = net.run_coro(call())
        assert elapsed == pytest.approx(0.002)  # one hop each way

    def test_self_send_has_zero_latency(self):
        net = SimNetwork(latency=LatencyModel(base=0.5))
        echo = net.join(Echo("echo"))
        echo.send("echo", Ping(request_id="x", reply_to="echo"))
        net.run()
        assert net.loop.now == 0.0

    def test_duplicate_address_rejected(self):
        net = SimNetwork()
        net.join(Echo("echo"))
        with pytest.raises(TransportError):
            net.join(Echo("echo"))

    @pytest.mark.parametrize("base", [0.0, 0.001])
    def test_sends_to_one_destination_arrive_in_send_order(self, base):
        net = SimNetwork(latency=LatencyModel(base=base, per_entry=0.0))
        echo = net.join(Echo("echo"))
        caller = net.join(Caller("caller"))
        for i in range(5):
            caller.send("echo", Ping(request_id=f"r{i}", reply_to="caller"))
        net.run()
        assert [p.request_id for p in echo.received] == [f"r{i}" for i in range(5)]
        assert net.stats.messages_sent == 10  # five pings, five pongs

    def test_dead_letter_counted(self):
        net = SimNetwork()
        caller = net.join(Caller("caller"))
        caller.send("nobody", Ping(request_id="x", reply_to="caller"))
        net.run()
        assert net.stats.dead_letters == 1

    def test_unhandled_message_recorded(self):
        net = SimNetwork()
        caller = net.join(Caller("caller"))
        other = net.join(Caller("other"))
        caller.send("other", Ping(request_id="x", reply_to="caller"))
        net.run()
        assert len(other.unhandled) == 1


class TestAsk:
    """``Endpoint.ask``, the one re-send loop: a fresh request id per
    attempt, the first answer wins, and ``retries + 1`` unanswered sends
    raise.  Every ``caller → echo`` send is dropped by an injected rule
    until it is lifted."""

    def _setup(self):
        net = SimNetwork()
        echo = net.join(Echo("echo"))
        caller = net.join(Caller("caller"))
        injector = FaultInjector(net, seed=0)
        injector.set_link("caller", "echo", LinkFaults(drop_rate=1.0))
        return net, echo, caller, injector

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_answer_on_attempt_k_returns_after_exactly_k_sends(self, k):
        net, echo, caller, injector = self._setup()
        ids = []

        def make(request_id):
            ids.append(request_id)
            if len(ids) == k:
                injector.clear()
            return Ping(request_id=request_id, reply_to="caller")

        res = net.run_coro(caller.ask("echo", make, timeout=1.0, retries=5))
        assert len(ids) == len(set(ids)) == k
        assert net.stats.by_type["Ping"] == k
        assert net.stats.messages_dropped == k - 1
        assert isinstance(res, Pong) and res.request_id == ids[-1]
        assert [ping.request_id for ping in echo.received] == [ids[-1]]

    def test_retries_plus_one_unanswered_sends_raise(self):
        net, echo, caller, _ = self._setup()
        ids = []

        def make(request_id):
            ids.append(request_id)
            return Ping(request_id=request_id, reply_to="caller")

        with pytest.raises(TransportError, match="unanswered after 4 attempts"):
            net.run_coro(caller.ask("echo", make, timeout=1.0, retries=3))
        assert len(ids) == len(set(ids)) == 4
        assert net.stats.by_type["Ping"] == net.stats.messages_dropped == 4
        assert echo.received == []
        assert caller.pending_count == 0


class TestCpuCostModel:
    def test_service_time_serialises_processing(self):
        # Two pings arriving together at a server with 1 ms service time
        # must be processed back to back.
        net = SimNetwork(
            latency=LatencyModel(base=0.0, per_entry=0.0),
            costs=CostModel(service={"Ping": 0.001}, default=0.0),
        )
        echo = net.join(Echo("echo"))
        caller = net.join(Caller("caller"))
        for i in range(2):
            caller.send("echo", Ping(request_id=f"r{i}", reply_to="caller"))
        net.run()
        assert net.loop.now == pytest.approx(0.002)
        assert len(echo.received) == 2

    def test_zero_cost_default(self):
        net = SimNetwork(latency=LatencyModel(base=0.0))
        net.join(Echo("echo"))
        caller = net.join(Caller("caller"))
        caller.send("echo", Ping(request_id="r", reply_to="caller"))
        net.run()
        assert net.loop.now == 0.0


class TestFailureInjection:
    def test_crashed_endpoint_drops_messages(self):
        net = SimNetwork()
        net.join(Echo("echo"))
        caller = net.join(Caller("caller"))
        net.crash("echo")
        caller.send("echo", Ping(request_id="x", reply_to="caller"))
        net.run()
        assert net.stats.messages_dropped == 1
        assert net.stats.messages_delivered == 0

    def test_restore_resumes_delivery(self):
        net = SimNetwork()
        echo = net.join(Echo("echo"))
        caller = net.join(Caller("caller"))
        net.crash("echo")
        caller.send("echo", Ping(request_id="a", reply_to="caller"))
        net.run()
        net.restore("echo")
        caller.send("echo", Ping(request_id="b", reply_to="caller"))
        net.run()
        assert [p.request_id for p in echo.received] == ["b"]

    def test_is_down_follows_crash_and_restore(self):
        net = SimNetwork()
        net.join(Echo("echo"))
        assert not net.is_down("echo")
        net.crash("echo")
        assert net.is_down("echo")
        net.restore("echo")
        assert not net.is_down("echo")
        net.crash("echo")
        net.leave("echo")  # a departed address is gone, not down
        assert not net.is_down("echo")

    def test_crash_drops_messages_already_in_flight(self):
        net = SimNetwork(latency=LatencyModel(base=0.001, per_entry=0.0))
        echo = net.join(Echo("echo"))
        caller = net.join(Caller("caller"))
        for i in range(3):  # on the wire, 1 ms from arriving
            caller.send("echo", Ping(request_id=f"r{i}", reply_to="caller"))
        net.crash("echo")
        net.run()
        assert echo.received == []
        assert net.stats.messages_dropped == 3
        assert net.stats.dead_letters == 0

    def test_request_timeout_on_drop(self):
        net = SimNetwork()
        FaultInjector(net).set_link("*", "*", LinkFaults(drop_rate=1.0))
        net.join(Echo("echo"))
        caller = net.join(Caller("caller"))

        async def call():
            rid = caller.next_request_id()
            with pytest.raises(TransportError):
                await caller.request(
                    "echo", Ping(request_id=rid, reply_to="caller"), timeout=1.0
                )
            return net.loop.now

        assert net.run_coro(call()) == pytest.approx(1.0)

    def test_deterministic_drops_with_seed(self):
        outcomes = []
        for _ in range(2):
            net = SimNetwork()
            FaultInjector(net, seed=42).set_link("*", "*", LinkFaults(drop_rate=0.5))
            net.join(Echo("echo"))
            caller = net.join(Caller("caller"))
            for i in range(20):
                caller.send("echo", Ping(request_id=f"r{i}", reply_to="caller"))
            net.run()
            outcomes.append(net.stats.messages_dropped)
        assert outcomes[0] == outcomes[1] > 0


class TestLeave:
    """``SimNetwork.leave`` is how the service garbage-collects retired
    aliases: in-flight and later messages to a departed address become
    dead letters instead of crashing the simulation."""

    def wired(self):
        net = SimNetwork(latency=LatencyModel(base=0.001, per_entry=0.0))
        echo = net.join(Echo("echo"))
        caller = net.join(Caller("caller"))
        return net, echo, caller

    def test_messages_to_left_endpoint_are_dead_letters(self):
        net, echo, caller = self.wired()
        net.leave("echo")
        for i in range(3):
            caller.send("echo", Ping(request_id=f"r{i}", reply_to="caller"))
        net.run()
        assert echo.received == []
        assert net.stats.dead_letters == 3
        assert net.stats.messages_dropped == 0

    def test_leave_while_message_in_flight(self):
        net, echo, caller = self.wired()
        for i in range(2):  # on the wire, 1 ms from arriving
            caller.send("echo", Ping(request_id=f"r{i}", reply_to="caller"))
        net.leave("echo")
        net.run()
        assert echo.received == []
        assert net.stats.dead_letters == 2

    def test_leave_is_idempotent_and_unknown_safe(self):
        net, echo, caller = self.wired()
        net.leave("echo")
        net.leave("echo")
        net.leave("never-joined")
        assert "echo" not in net.addresses()

    def test_restore_after_leave_is_a_noop(self):
        net, echo, caller = self.wired()
        net.crash("echo")
        net.leave("echo")
        net.restore("echo")  # departed endpoint: nothing to restore
        assert "echo" not in net.addresses()
        caller.send("echo", Ping(request_id="r", reply_to="caller"))
        net.run()
        assert net.stats.dead_letters == 1


class TestLatencyModel:
    def test_per_entry_cost(self):
        model = LatencyModel(base=0.001, per_entry=0.0001)

        @dataclass(frozen=True)
        class Bulk(Message):
            entries: tuple = ((1, 2), (3, 4), (5, 6))

        assert model.delay("a", "b", Bulk()) == pytest.approx(0.0013)

    def test_jitter_bounded_and_seeded(self):
        model = LatencyModel(base=0.001, jitter=0.0005, seed=7)
        msg = Ping(request_id="x", reply_to="y")
        delays = [model.delay("a", "b", msg) for _ in range(100)]
        assert all(0.001 <= d <= 0.0015 for d in delays)
        model2 = LatencyModel(base=0.001, jitter=0.0005, seed=7)
        assert delays == [model2.delay("a", "b", msg) for _ in range(100)]

"""Tests for the chaos layer's link-level fault injector.

Covers the runtime hook contract on both networks: injected drops land
in ``messages_dropped``, manufactured duplicates in
``messages_duplicated`` (never in sent traffic), every rule firing in
``faults_injected`` — and the :class:`MessageLedger` delta accessors
that scenarios read those counters through.
"""

import asyncio
from dataclasses import dataclass, fields

import pytest

from repro.chaos import FaultInjector, LinkFaults
from repro.runtime.asyncio_rt import AsyncioNetwork
from repro.runtime.base import Endpoint, Message, NetworkStats, Response
from repro.runtime.latency import LatencyModel
from repro.runtime.simnet import SimNetwork
from repro.sim.metrics import MessageLedger


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
    """Replies Pong to every Ping, remembering arrival order."""

    def __init__(self, address: str) -> None:
        super().__init__(address)
        self.received: list[Ping] = []
        self.on(Ping, self._on_ping)

    async def _on_ping(self, msg: Ping) -> None:
        self.received.append(msg)
        self.send(msg.reply_to, Pong(request_id=msg.request_id))


class Caller(Endpoint):
    pass


def _net():
    net = SimNetwork(latency=LatencyModel(base=0.0, per_entry=0.0))
    echo = net.join(Echo("echo"))
    caller = net.join(Caller("caller"))
    return net, echo, caller


def _ping(caller, rid="r0"):
    caller.send("echo", Ping(request_id=rid, reply_to="caller"))


class TestLinkFaultsValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            LinkFaults(drop_rate=1.5)
        with pytest.raises(ValueError):
            LinkFaults(duplicate_rate=-0.1)

    def test_delays_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            LinkFaults(delay=-1.0)
        with pytest.raises(ValueError):
            LinkFaults(jitter=-0.5)


class TestInjectedDrops:
    def test_severed_link_drops_and_counts(self):
        net, echo, caller = _net()
        injector = FaultInjector(net)
        injector.sever("caller", "echo")
        _ping(caller)
        net.run()
        assert echo.received == []
        assert net.stats.messages_dropped == 1
        assert net.stats.faults_injected == 1
        # The sender still paid for the send.
        assert net.stats.messages_sent == 1

    def test_drop_rate_one_drops_everything(self):
        net, echo, caller = _net()
        injector = FaultInjector(net)
        injector.set_link("caller", "echo", LinkFaults(drop_rate=1.0))
        for i in range(3):
            _ping(caller, f"r{i}")
        net.run()
        assert echo.received == []
        assert net.stats.messages_dropped == 3
        assert net.stats.faults_injected == 3

    def test_drop_rate_zero_is_transparent(self):
        net, echo, caller = _net()
        FaultInjector(net)  # installed but no rules
        _ping(caller)
        net.run()
        assert len(echo.received) == 1
        assert net.stats.messages_dropped == 0
        assert net.stats.faults_injected == 0

    def test_reverse_direction_unaffected_by_directed_rule(self):
        net, echo, caller = _net()
        injector = FaultInjector(net)
        # Only the reply direction is cut: the ping lands, the pong dies.
        injector.set_link("echo", "caller", LinkFaults(severed=True))
        _ping(caller)
        net.run()
        assert len(echo.received) == 1
        assert net.stats.messages_dropped == 1


class TestInjectedDuplicates:
    def test_duplicate_rate_one_delivers_twice(self):
        net, echo, caller = _net()
        injector = FaultInjector(net)
        injector.set_link("caller", "echo", LinkFaults(duplicate_rate=1.0))
        _ping(caller)
        net.run()
        assert len(echo.received) == 2
        assert net.stats.messages_duplicated == 1
        # The duplicate is manufactured by the network, not the sender:
        # sent traffic still counts one Ping (plus the two Pong replies).
        assert net.stats.by_type["Ping"] == 1


class TestInjectedDelay:
    def test_extra_delay_holds_delivery(self):
        net, echo, caller = _net()
        injector = FaultInjector(net)
        injector.set_link("caller", "echo", LinkFaults(delay=0.5))

        async def when_received():
            _ping(caller)
            while not echo.received:
                await net.loop.sleep(0.05)
            return net.loop.now

        arrived = net.run_coro(when_received())
        assert arrived >= 0.5
        assert net.stats.faults_injected == 1

    def test_delayed_link_reorders_against_clean_link(self):
        net, echo, caller = _net()
        other = net.join(Caller("other"))
        injector = FaultInjector(net)
        injector.set_link("caller", "echo", LinkFaults(delay=1.0))
        _ping(caller, "slow")  # sent first, delayed 1 s
        other.send("echo", Ping(request_id="fast", reply_to="other"))
        net.run()
        assert [p.request_id for p in echo.received] == ["fast", "slow"]


class TestRulePrecedence:
    def test_exact_pair_beats_wildcards(self):
        net, echo, caller = _net()
        injector = FaultInjector(net)
        injector.set_link("*", "echo", LinkFaults(severed=True))
        injector.set_link("caller", "echo", LinkFaults())  # exact: clean
        _ping(caller)
        net.run()
        assert len(echo.received) == 1

    def test_src_wildcard_beats_dst_wildcard(self):
        net, echo, caller = _net()
        injector = FaultInjector(net)
        injector.set_link("*", "echo", LinkFaults(severed=True))
        injector.set_link("caller", "*", LinkFaults())  # (src, *) wins
        _ping(caller)
        net.run()
        assert len(echo.received) == 1

    def test_global_wildcard_applies_to_everything(self):
        net, echo, caller = _net()
        injector = FaultInjector(net)
        injector.set_link("*", "*", LinkFaults(severed=True))
        _ping(caller)
        net.run()
        assert echo.received == []


class TestPartition:
    def test_partition_severs_cross_links_only(self):
        net = SimNetwork(latency=LatencyModel(base=0.0, per_entry=0.0))
        a, b = net.join(Echo("a")), net.join(Echo("b"))
        c = net.join(Echo("c"))
        outsider = net.join(Caller("outsider"))
        injector = FaultInjector(net)
        assert injector.partition(["a"], ["b", "c"]) == 4

        a.send("b", Ping(request_id="x", reply_to="a"))  # cross: dropped
        b.send("a", Ping(request_id="y", reply_to="b"))  # cross: dropped
        b.send("c", Ping(request_id="z", reply_to="b"))  # within group: ok
        outsider.send("a", Ping(request_id="w", reply_to="outsider"))  # ok
        net.run()
        assert b.received == []
        assert [p.request_id for p in c.received] == ["z"]
        assert [p.request_id for p in a.received] == ["w"]
        assert net.stats.messages_dropped == 2

    def test_heal_partition_restores_exactly_the_severed_set(self):
        net = SimNetwork(latency=LatencyModel(base=0.0, per_entry=0.0))
        a, b = net.join(Echo("a")), net.join(Echo("b"))
        injector = FaultInjector(net)
        # An unrelated rule installed before the partition must survive it.
        injector.set_link("b", "a", LinkFaults(severed=True))
        injector.partition(["a"], ["b"])
        assert injector.heal_partition() == 2
        a.send("b", Ping(request_id="x", reply_to="a"))
        b.send("a", Ping(request_id="y", reply_to="b"))
        net.run()
        assert [p.request_id for p in b.received] == ["x"]
        # heal_partition removed the (b, a) sever it owned — the earlier
        # manual rule was overwritten by partition(); a fresh heal is a
        # no-op and traffic flows.
        assert injector.heal_partition() == 0

    def test_sever_heal_round_trip(self):
        net, echo, caller = _net()
        injector = FaultInjector(net)
        injector.sever("caller", "echo")
        _ping(caller, "dropped")
        net.run()
        injector.clear()
        _ping(caller, "lands")
        net.run()
        assert [p.request_id for p in echo.received] == ["lands"]


class TestHousekeeping:
    def test_clear_removes_all_rules(self):
        net, echo, caller = _net()
        injector = FaultInjector(net)
        injector.sever("caller", "echo")
        injector.partition(["caller"], ["echo"])
        injector.clear()
        _ping(caller)
        net.run()
        assert len(echo.received) == 1

    def test_seeded_rng_replays_identically(self):
        def run_once():
            net, echo, caller = _net()
            injector = FaultInjector(net, seed=42)
            injector.set_link("caller", "echo", LinkFaults(drop_rate=0.5))
            for i in range(20):
                _ping(caller, f"r{i}")
            net.run()
            return [p.request_id for p in echo.received]

        assert run_once() == run_once()


class TestLedgerAccessors:
    def test_dropped_duplicated_and_faults_deltas(self):
        net, echo, caller = _net()
        injector = FaultInjector(net)
        ledger = MessageLedger(net.stats)
        injector.set_link("caller", "echo", LinkFaults(drop_rate=1.0))
        _ping(caller, "r0")
        net.run()
        injector.set_link("caller", "echo", LinkFaults(duplicate_rate=1.0))
        _ping(caller, "r1")
        net.run()
        assert ledger.dropped_deliveries() == 1
        assert ledger.duplicated_deliveries() == 1
        assert ledger.faults_injected() == 2

        ledger.rebase()
        assert ledger.dropped_deliveries() == 0
        assert ledger.duplicated_deliveries() == 0
        assert ledger.faults_injected() == 0

    def test_every_counter_reads_since_the_snapshot_and_resets(self):
        stats = NetworkStats()
        for counter in fields(stats):
            if counter.name != "by_type":
                setattr(stats, counter.name, 5)
        stats.note_send(Ping(request_id="r0", reply_to="caller"))
        ledger = MessageLedger(stats)
        accessors = {
            "messages_dropped": ledger.dropped_deliveries,
            "messages_duplicated": ledger.duplicated_deliveries,
            "faults_injected": ledger.faults_injected,
            "frames_corrupted": ledger.frames_corrupted,
            "messages_quarantined": ledger.messages_quarantined,
            "stale_epoch_rejected": ledger.stale_epoch_rejected,
        }
        for n, name in enumerate(accessors, start=1):
            setattr(stats, name, getattr(stats, name) + n)
        stats.note_send(Ping(request_id="r1", reply_to="caller"))
        assert [read() for read in accessors.values()] == [1, 2, 3, 4, 5, 6]
        assert ledger.delta() == {"Ping": 1}

        stats.reset()
        assert stats == NetworkStats()


class TestAsyncioNetworkHook:
    """The identical injector drives the asyncio runtime's hook."""

    def test_sever_and_duplicate_on_asyncio(self):
        async def scenario():
            net = AsyncioNetwork(latency=LatencyModel(base=1e-5, per_entry=0.0))
            echo = net.join(Echo("echo"))
            caller = net.join(Caller("caller"))
            injector = FaultInjector(net)

            injector.sever("caller", "echo")
            caller.send("echo", Ping(request_id="dropped", reply_to="caller"))
            await net.quiesce()
            assert echo.received == []
            assert net.stats.messages_dropped == 1

            injector.clear()
            injector.set_link("caller", "echo", LinkFaults(duplicate_rate=1.0))
            caller.send("echo", Ping(request_id="doubled", reply_to="caller"))
            # quiesce() waits for handler tasks, not latency timers — let
            # the 10 µs delivery timers fire before asserting.
            await asyncio.sleep(0.05)
            await net.quiesce()
            assert len(echo.received) == 2
            assert net.stats.messages_duplicated == 1
            assert net.stats.faults_injected >= 2

        asyncio.run(scenario())

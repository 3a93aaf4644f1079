"""The one admission step every runtime's ``transmit`` asks.

:func:`~repro.runtime.base.admit_send` counts a send, refuses a dead
letter, drops it for a crashed end or the uniform drop rate, and then
applies the fault injector's verdict.  These tests drive it directly
over a stub network, so each refusal, each payload list and the RNG
draw order are pinned without a runtime's scheduling in between.
"""

import random
from dataclasses import dataclass

import pytest

from repro.chaos import FaultInjector, LinkFaults
from repro.runtime.base import Message, NetworkStats, admit_send


@dataclass(frozen=True, slots=True)
class Note(Message):
    seq: int
    epoch: int = 5


class StubNetwork:
    """The attributes ``admit_send`` reads, and nothing else."""

    def __init__(self, drop_rate: float = 0.0, seed: int = 0) -> None:
        self.stats = NetworkStats()
        self.fault_injector = None
        self._down: set[str] = set()
        self.drop_rate = drop_rate
        self._rng = random.Random(seed)


def with_link(net: StubNetwork, **faults) -> FaultInjector:
    injector = FaultInjector(net, seed=3)
    injector.set_link("a", "b", LinkFaults(**faults))
    return injector


def rng_state(rng: random.Random):
    return rng.getstate()


class TestRefusals:
    def test_clean_send_is_admitted_unchanged(self):
        net = StubNetwork()
        note = Note(1)
        assert admit_send(net, "a", "b", note, True) == ([note], 0.0)
        assert net.stats.messages_sent == 1
        assert net.stats.by_type == {"Note": 1}
        assert net.stats.messages_dropped == 0

    def test_dead_letter_is_refused_and_counted(self):
        net = StubNetwork(drop_rate=0.5)
        before = rng_state(net._rng)
        assert admit_send(net, "a", "nowhere", Note(1), False) is None
        assert net.stats.messages_sent == 1
        assert net.stats.dead_letters == 1
        assert net.stats.messages_dropped == 0
        # Refused before the drop-rate draw.
        assert rng_state(net._rng) == before

    def test_dead_letter_wins_over_a_crashed_end(self):
        net = StubNetwork()
        net._down.add("nowhere")
        assert admit_send(net, "a", "nowhere", Note(1), False) is None
        assert net.stats.dead_letters == 1
        assert net.stats.messages_dropped == 0

    @pytest.mark.parametrize("crashed", ["a", "b"])
    def test_crashed_end_drops_without_drawing(self, crashed):
        net = StubNetwork(drop_rate=0.5)
        net._down.add(crashed)
        before = rng_state(net._rng)
        assert admit_send(net, "a", "b", Note(1), True) is None
        assert net.stats.messages_sent == 1
        assert net.stats.messages_dropped == 1
        assert net.stats.dead_letters == 0
        # The drop-rate draw happens only when both ends are up.
        assert rng_state(net._rng) == before

    def test_drop_rate_drops_and_counts(self):
        net = StubNetwork(drop_rate=1.0)
        assert admit_send(net, "a", "b", Note(1), True) is None
        assert net.stats.messages_dropped == 1
        assert net.stats.faults_injected == 0

    def test_drop_rate_draws_once_per_live_send(self):
        net = StubNetwork(drop_rate=0.5, seed=11)
        reference = random.Random(11)
        verdicts = [admit_send(net, "a", "b", Note(i), True) for i in range(200)]
        expected = [reference.random() < 0.5 for _ in range(200)]
        assert [v is None for v in verdicts] == expected
        assert net.stats.messages_dropped == sum(expected)


class TestInjectorVerdict:
    def test_drop_rate_draw_precedes_the_verdict(self):
        # A uniform drop takes the send before the injector sees it: the
        # injector's own stream stays where it was.
        net = StubNetwork(drop_rate=1.0)
        injector = with_link(net, duplicate_rate=0.5)
        before = rng_state(injector._rng)
        assert admit_send(net, "a", "b", Note(1), True) is None
        assert rng_state(injector._rng) == before
        assert net.stats.faults_injected == 0

    def test_severed_link_drops_and_counts_a_fault(self):
        net = StubNetwork()
        injector = FaultInjector(net, seed=3)
        injector.sever("a", "b")
        assert admit_send(net, "a", "b", Note(1), True) is None
        assert net.stats.messages_dropped == 1
        assert net.stats.faults_injected == 1

    def test_injected_loss_drops_and_counts_a_fault(self):
        net = StubNetwork()
        with_link(net, drop_rate=1.0)
        assert admit_send(net, "a", "b", Note(1), True) is None
        assert net.stats.messages_dropped == 1
        assert net.stats.faults_injected == 1

    def test_rule_on_another_link_is_not_applied(self):
        net = StubNetwork()
        with_link(net, drop_rate=1.0)
        note = Note(1)
        assert admit_send(net, "b", "a", note, True) == ([note], 0.0)
        assert net.stats.faults_injected == 0

    def test_duplicate_is_one_more_payload_and_one_duplicate(self):
        net = StubNetwork()
        with_link(net, duplicate_rate=1.0)
        note = Note(1)
        assert admit_send(net, "a", "b", note, True) == ([note, note], 0.0)
        assert net.stats.messages_sent == 1
        assert net.stats.messages_duplicated == 1
        assert net.stats.faults_injected == 1

    def test_stale_epoch_replay_follows_the_message(self):
        net = StubNetwork()
        injector = with_link(net, stale_epoch_rate=1.0)
        note = Note(1, epoch=injector.stale_epoch_skew + 7)
        payloads, extra = admit_send(net, "a", "b", note, True)
        assert payloads == [note, Note(1, epoch=7)]
        assert extra == 0.0
        assert net.stats.messages_duplicated == 1
        assert net.stats.faults_injected == 1

    def test_copy_and_replay_both_count_as_duplicates(self):
        net = StubNetwork()
        with_link(net, duplicate_rate=1.0, stale_epoch_rate=1.0)
        note = Note(1)
        payloads, _ = admit_send(net, "a", "b", note, True)
        assert payloads == [note, note, Note(1, epoch=0)]
        assert net.stats.messages_duplicated == 2
        # One send, one fault event, however many payloads it made.
        assert net.stats.faults_injected == 1

    def test_injected_delay_is_returned(self):
        net = StubNetwork()
        with_link(net, delay=0.25)
        note = Note(1)
        assert admit_send(net, "a", "b", note, True) == ([note], 0.25)
        assert net.stats.faults_injected == 1

    def test_corrupt_rule_mutates_only_when_asked(self):
        note = Note(1, epoch=5)

        net = StubNetwork()
        with_link(net, corrupt_rate=1.0)
        (mutated,), _ = admit_send(net, "a", "b", note, True)
        assert mutated != note
        assert mutated.epoch < 0  # the validator's epoch rule refuses it

        # Socket transports corrupt frames, not messages: mutate=False
        # delivers the message as sent.
        net = StubNetwork()
        with_link(net, corrupt_rate=1.0)
        assert admit_send(net, "a", "b", note, True, mutate=False) == ([note], 0.0)
        assert net.stats.faults_injected == 0

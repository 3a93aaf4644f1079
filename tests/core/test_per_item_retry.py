"""Per-item envelope retry bookkeeping and protocol-lane NACKs.

A partially-crashed subtree used to fail (and re-send) whole envelopes:
with ``sub_timeout`` set, servers bound their sub-envelope fan-outs and
answer stuck items as *unacknowledged*, so the service resends only
those.  Deregistration and path teardown now answer negative
acknowledgements that distinguish *already gone* from *never existed*.
"""

import asyncio

import pytest

from repro.core import LocationService, build_fig6_hierarchy, messages as m
from repro.core.hierarchy import build_table2_hierarchy
from repro.core.service import drive_item_rounds, protocol_sender
from repro.errors import TransportError
from repro.geo import Point
from repro.net.scenario import drive_workload
from repro.runtime.asyncio_rt import AsyncioNetwork
from repro.runtime.base import Endpoint
from repro.runtime.latency import LatencyModel
from repro.sim.elastic import commuter_rush_workload


@pytest.fixture
def svc():
    """The Fig.-6 three-level hierarchy: s1 root; s2(w): s4, s5; s3(e):
    s6, s7 — deep enough that a crashed *leaf* is a partially-crashed
    subtree behind a live interior server."""
    service = LocationService(
        build_fig6_hierarchy(1000.0), latency=LatencyModel(base=1e-4)
    )
    yield service


class TestPerItemUpdateRetry:
    def test_crashed_subtree_fails_only_its_items(self, svc):
        # a stays in the west (s4); b crosses into the crashed south-east
        # leaf s6's area — its handover sub-envelope times out at s3.
        a = svc.register("a", Point(100.0, 100.0))
        b = svc.register("b", Point(120.0, 100.0))
        svc.network.crash("s6")
        stats = svc.update_many(
            [(a, Point(140.0, 130.0)), (b, Point(800.0, 100.0))],
            envelope_timeout=10.0,
            envelope_retries=1,
            envelope_sub_timeout=1.0,
        )
        assert stats == {"fast": 1, "protocol": 1}
        # a's fast-path report applied; b's item is unacknowledged, its
        # agent unchanged — the envelope as a whole did NOT fail.
        assert a.policy.estimate(svc.loop.now) == Point(140.0, 130.0)
        assert b.agent == "s4"
        assert svc.pos_query("a").pos == Point(140.0, 130.0)
        # After the leaf recovers, only b's item needs a new tick.
        svc.network.restore("s6")
        svc.update_many(
            [(b, Point(800.0, 100.0))],
            envelope_sub_timeout=1.0,
        )
        assert b.agent == "s6"
        svc.check_consistency()

    def test_unacknowledged_items_resent_within_one_call(self, svc):
        """The per-item rounds live inside one update_many call: restore
        the crashed leaf on the virtual clock before the retry round
        fires and the call itself completes every item."""
        b = svc.register("b", Point(120.0, 100.0))
        svc.network.crash("s6")
        svc.loop.call_later(1.5, lambda: svc.network.restore("s6"))
        svc.update_many(
            [(b, Point(800.0, 100.0))],
            envelope_timeout=20.0,
            envelope_retries=2,
            envelope_sub_timeout=1.0,
        )
        assert b.agent == "s6"
        assert svc.pos_query("b").pos == Point(800.0, 100.0)
        svc.check_consistency()

    def test_no_forward_pointer_installed_for_unacknowledged_item(self, svc):
        b = svc.register("b", Point(120.0, 100.0))
        svc.network.crash("s6")
        svc.update_many(
            [(b, Point(800.0, 100.0))],
            envelope_sub_timeout=1.0,
        )
        # s3 must not point at s6 for b: the handover never landed.
        assert svc.servers["s3"].visitors.forward_ref("b") is None
        assert svc.servers["s1"].visitors.forward_ref("b") == "s2"
        svc.check_consistency()


def _scripted_resend(reporter, destination):
    """A stand-in for ``reporter.resend`` against a scripted destination:
    ``destination(message)`` is the answer to one attempt, ``None`` a
    lost one, and every attempt is made at once under a fresh id."""

    def resend(dest, make_message, timeout, retries, answer, expired):
        for left in range(retries, -1, -1):
            reply = destination(make_message(reporter.next_request_id()))
            if reply is not None:
                answer(reply)
                return
            expired(left)

    return resend


class TestItemRounds:
    """``drive_item_rounds``, the one round loop behind the update and
    deregistration envelopes, against a scripted destination: each
    answer is the set of ids it leaves unacknowledged, ``None`` a lost
    envelope."""

    def _drive(self, svc, answers, retries, sub_timeout=1.0):
        reporter = svc._reporter()
        sent = []

        def envelope(message):
            sent.append(message)
            return answers.pop(0)

        reporter.resend = _scripted_resend(reporter, envelope)
        svc.run(
            drive_item_rounds(
                protocol_sender(
                    reporter, svc, "s4", lambda _rid, remaining: remaining, 5.0, "test"
                ),
                set, retries, sub_timeout,
            )
        )
        return sent

    def test_later_rounds_resend_only_unacknowledged_items(self, svc):
        sent = self._drive(svc, [{"b", "c"}, {"c"}, set()], retries=3)
        assert sent == [None, {"b", "c"}, {"c"}]

    def test_at_most_retries_resends(self, svc):
        sent = self._drive(svc, [{"b"}, {"b"}, {"b"}, {"b"}], retries=2)
        assert sent == [None, {"b"}, {"b"}]

    def test_no_rounds_without_sub_timeout(self, svc):
        assert self._drive(svc, [{"b"}], retries=3, sub_timeout=None) == [None]

    def test_only_the_first_round_gets_the_envelope_retry_budget(self, svc):
        answers = [None, None, {"b"}, None, {"b"}]
        with pytest.raises(TransportError):
            self._drive(svc, answers, retries=2)
        assert answers == [{"b"}]  # round two made one attempt, not three


class TestDriveWorkloadRounds:
    """The socket driver re-sends unacknowledged items through the same
    round loop, against a scripted destination: every object registers
    at leaf ``s``, and each update answer leaves the next scripted set of
    ids unacknowledged (then none); ``None`` is a lost envelope."""

    def _drive(self, stuck, retries, sub_timeout=0.4):
        # Two commuters: both report on the one tick.
        workload = commuter_rush_workload(objects=2, ticks=1, seed=0)
        updates = []

        def join(reporter):
            def destination(message):
                if isinstance(message, m.RegisterReq):
                    return m.RegisterRes(request_id=message.request_id, ok=True, agent="s")
                if isinstance(message, m.PosQueryReq):
                    return m.PosQueryRes(request_id=message.request_id, found=True)
                updates.append(message)
                unacked = stuck.pop(0) if stuck else set()
                if unacked is None:
                    return None  # the envelope is lost
                return m.UpdateBatchRes(
                    request_id=message.request_id,
                    outcomes=tuple(
                        m.UpdateOutcome(s.object_id, ok=False, error=m.NACK_UNACKNOWLEDGED)
                        if s.object_id in unacked
                        else m.UpdateOutcome(s.object_id, ok=True, agent="s")
                        for s in message.sightings
                    ),
                )

            reporter.resend = _scripted_resend(reporter, destination)
            return AsyncioNetwork().join(reporter)  # a context, nothing more

        payload = asyncio.run(
            drive_workload(
                workload,
                build_table2_hierarchy(1500.0),
                join,
                timeout=1.0,
                retries=retries,
                sub_timeout=sub_timeout,
            )
        )
        assert payload["lost_sightings"] == 0
        return [tuple(s.object_id for s in update.sightings) for update in updates], [
            update.request_id for update in updates
        ]

    def test_unacknowledged_id_is_resent_alone_with_a_fresh_request_id(self):
        sent, request_ids = self._drive([{"cr-1"}], retries=3)
        assert sent == [("cr-0", "cr-1"), ("cr-1",)]
        assert len(set(request_ids)) == 2

    def test_at_most_retries_rounds(self):
        sent, _ = self._drive([{"cr-1"}] * 5, retries=2)
        assert sent == [("cr-0", "cr-1"), ("cr-1",), ("cr-1",)]

    def test_a_lost_resend_is_retried(self):
        # Over a lossy fabric a re-send gets the whole retry budget too.
        sent, _ = self._drive([{"cr-1"}, None], retries=3)
        assert sent == [("cr-0", "cr-1"), ("cr-1",), ("cr-1",)]

    def test_nothing_resent_without_sub_timeout(self):
        sent, _ = self._drive([{"cr-1"}], retries=3, sub_timeout=None)
        assert sent == [("cr-0", "cr-1")]


class TestDeregisterNacks:
    def test_detailed_statuses(self, svc):
        a = svc.register("a", Point(100.0, 100.0))
        statuses = svc.deregister_many([a], detailed=True)
        assert statuses == {"a": "ok"}
        assert a.deregistered
        # Repeat deregistration: the agent leaf tombstoned the id.
        ghost = type(a)("a", "s4")
        ghost.agent = "s4"
        statuses = svc.deregister_many([ghost], detailed=True)
        assert statuses == {"a": m.NACK_ALREADY_GONE}

    def test_never_existed_vs_not_registered(self, svc):
        a = svc.register("a", Point(100.0, 100.0))
        phantom = type(a)("phantom", "s4")
        phantom.agent = "s4"
        unregistered = type(a)("late", "s4")  # agent is None
        statuses = svc.deregister_many([phantom, unregistered], detailed=True)
        assert statuses == {
            "phantom": m.NACK_NEVER_EXISTED,
            "late": "not-registered",
        }
        # The boolean contract is unchanged.
        results = svc.deregister_many([phantom], detailed=False)
        assert results == {"phantom": False}

    def test_crashed_subtree_deregister_is_unacknowledged_then_retried(self, svc):
        b = svc.register("b", Point(800.0, 100.0))
        assert b.agent == "s6"
        b_stale = type(b)("b", "s1")
        b_stale.agent = "s1"  # routes down the root's forwarding path to s6
        svc.network.crash("s6")
        statuses = svc.deregister_many(
            [b_stale], envelope_sub_timeout=1.0, envelope_retries=1, detailed=True
        )
        assert statuses == {"b": m.NACK_UNACKNOWLEDGED}
        svc.network.restore("s6")
        statuses = svc.deregister_many(
            [b_stale], envelope_sub_timeout=1.0, detailed=True
        )
        assert statuses == {"b": "ok"}
        assert svc.total_tracked() == 0


class _Sender(Endpoint):
    _counter = 0

    def __init__(self):
        type(self)._counter += 1
        super().__init__(f"nack-sender-{type(self)._counter}")


class TestPathTeardownNacks:
    def test_mismatched_sender_gets_redirected_nack(self, svc):
        svc.register("a", Point(100.0, 100.0))  # path s4 → s2 → s1
        sender = svc.servers["s5"]  # s2's ref points at s4, not s5
        before = sender.stats.teardown_nacks
        sender.send(
            "s2",
            m.PathTeardownBatch(object_ids=("a",), sender="s5"),
        )
        svc.settle()
        assert sender.stats.teardown_nacks == before + 1
        # The live path survived the bogus teardown.
        assert svc.servers["s2"].visitors.forward_ref("a") == "s4"
        assert svc.pos_query("a") is not None

    def test_unknown_and_gone_ids_get_reasoned_nacks(self, svc):
        obj = svc.register("a", Point(100.0, 100.0))
        svc.deregister(obj)  # tears the path down; s2 tombstones "a"
        courier = _Sender()
        svc.network.join(courier)
        # NACKs are addressed to the teardown's ``sender`` field.
        courier.send(
            "s2",
            m.PathTeardownBatch(object_ids=("a", "ghost"), sender=courier.address),
        )
        svc.settle()
        nacks = [msg for msg in courier.unhandled if isinstance(msg, m.PathTeardownNack)]
        assert len(nacks) == 1
        reasons = dict(nacks[0].object_ids)
        assert reasons == {
            "a": m.NACK_ALREADY_GONE,
            "ghost": m.NACK_NEVER_EXISTED,
        }


class TestTombstones:
    def test_visitor_db_remembers_recent_removals(self):
        from repro.storage.visitor_db import TOMBSTONE_CAPACITY, VisitorDB

        db = VisitorDB()
        db.insert_forward("x", "child")
        assert not db.was_removed("x")
        db.remove("x")
        assert db.was_removed("x")
        assert not db.was_removed("never")
        # Capacity bound: oldest tombstones are evicted first.
        for i in range(TOMBSTONE_CAPACITY + 1):
            db.insert_forward(f"t{i}", "child")
            db.remove(f"t{i}")
        assert not db.was_removed("x")
        assert db.was_removed(f"t{TOMBSTONE_CAPACITY}")

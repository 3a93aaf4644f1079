"""Receive-path hardening against byzantine traffic (PR 9).

Three layers under test, each in isolation (the composed defense is
proven end to end by ``repro.sim.byzantine``):

* the :class:`~repro.chaos.FaultInjector` byzantine rules — every
  mutation it manufactures is one :func:`~repro.runtime.validation.
  find_defect` detects, and every stale replay is rewound past the
  legitimate in-flight window;
* the server quarantine — damaged messages are rejected before any
  store or collector is touched, beyond-horizon epochs are rejected
  while in-horizon lag still heals;
* the acked at-least-once path-repair lane — per-hop ``PathAck``,
  bounded retries, idempotent re-application, and schema-evolution
  defaults for frames from pre-PR-9 peers.
"""

import math

from repro.chaos import FaultInjector, LinkFaults
from repro.core import messages as m
from repro.geo import Point
from repro.model import SightingRecord
from repro.net import wire
from repro.runtime.base import NetworkStats, admit_send
from repro.runtime.validation import find_defect
from repro.sim.scenario import table2_service

from tests.cluster.test_migration import Reporter
from tests.net.frame_surgery import Record, frame, strs


class _StubNetwork:
    """Just enough network for a FaultInjector and ``admit_send``: a
    stats sink with nobody down and no uniform loss."""

    drop_rate = 0.0

    def __init__(self):
        self.stats = NetworkStats()
        self.fault_injector = None
        self._down = set()


def _injector(**faults) -> FaultInjector:
    injector = FaultInjector(_StubNetwork(), seed=7)
    injector.set_link("*", "*", LinkFaults(**faults))
    return injector


def _sighting(oid: str, pos: Point) -> SightingRecord:
    return SightingRecord(oid, 0.0, pos, 10.0)


class TestInjectorByzantineRules:
    def test_every_mutation_is_validator_detectable(self):
        injector = _injector(corrupt_rate=1.0)
        samples = [
            m.UpdateReq(
                request_id="r1",
                reply_to="dev",
                sighting=_sighting("o1", Point(10.0, 10.0)),
            ),
            m.RegisterReq(
                request_id="r2",
                reply_to="dev",
                sighting=_sighting("o2", Point(5.0, 5.0)),
                des_acc=25.0,
                min_acc=100.0,
                registrar="dev",
            ),
            m.PosQueryReq(request_id="r3", reply_to="dev", object_id="o3"),
        ]
        for message in samples:
            assert find_defect(message) is None
            for _ in range(10):  # every draw, not one lucky field
                mutated = injector.mutate_message(message)
                assert mutated is not None
                assert find_defect(mutated) is not None

    def test_verdict_mutates_only_when_asked(self):
        message = m.PosQueryReq(request_id="r", reply_to="dev", object_id="o")
        injector = _injector(corrupt_rate=1.0)
        deliver, _, _, mutated, _ = injector.verdict("a", "b", message)
        assert deliver and find_defect(mutated) is not None
        # Socket transports corrupt at the frame layer instead.
        deliver, _, _, untouched, _ = injector.verdict(
            "a", "b", message, mutate=False
        )
        assert deliver and untouched is message

    def test_stale_replay_is_rewound_past_the_horizon_and_floored(self):
        injector = _injector(stale_epoch_rate=1.0)
        fresh = m.UpdateBatchReq(
            request_id="r", reply_to="dev", sightings=(), epoch=3
        )
        payloads, _ = admit_send(injector._network, "a", "b", fresh, known=True)
        original, replay = payloads
        assert original is fresh
        assert replay.epoch == 0  # floored, not negative
        # The replay is a manufactured delivery, accounted like a duplicate.
        assert injector._network.stats.messages_duplicated == 1
        assert injector._network.stats.faults_injected == 1

    def test_make_stale_skips_epochless_messages(self):
        injector = _injector(stale_epoch_rate=1.0)
        message = m.PosQueryReq(request_id="r", reply_to="dev", object_id="o")
        assert injector.make_stale(message) is None
        _, _, _, _, replay = injector.verdict("a", "b", message)
        assert replay is None

    def test_corrupt_bytes_always_damages_the_frame(self):
        injector = _injector(corrupt_rate=1.0)
        frame = wire.encode_frame(
            "a", "b", [m.PosQueryReq(request_id="r", reply_to="a", object_id="o")]
        )
        for _ in range(20):
            assert injector.corrupt_bytes(frame) != frame


class TestServerQuarantine:
    def test_damaged_update_rejected_before_the_store(self):
        svc, homes = table2_service(object_count=20, seed=3)
        oid, leaf_id = next(iter(homes.items()))
        leaf = svc.servers[leaf_id]
        reporter = Reporter()
        svc.network.join(reporter)

        poisoned = m.UpdateReq(
            request_id="bad",
            reply_to=reporter.address,
            sighting=_sighting(oid, Point(float("nan"), float("nan"))),
        )
        reporter.send(leaf_id, poisoned)
        svc.settle()
        assert leaf.stats.messages_quarantined == 1
        assert svc.network.stats.messages_quarantined == 1
        stored = leaf.store.sightings.get(oid)
        assert stored is not None and not math.isnan(stored.pos.x)

        # The quarantine degrades to the retry path: a clean re-send of
        # the same report (fresh request id) lands normally.
        res = svc.run(
            reporter.send_update(leaf_id, oid, Point(100.0, 100.0))
        )
        assert res.ok
        svc.check_consistency()

    def test_beyond_horizon_epoch_rejected_in_horizon_heals(self):
        svc, homes = table2_service(object_count=20, seed=3)
        oid, leaf_id = next(iter(homes.items()))
        leaf = svc.servers[leaf_id]
        leaf.topology_epoch = 5
        reporter = Reporter()
        svc.network.join(reporter)
        pos = svc.servers[leaf_id].config.area.center

        def envelope(request_id: str, epoch: int) -> m.UpdateBatchReq:
            return m.UpdateBatchReq(
                request_id=request_id,
                reply_to=reporter.address,
                sightings=(_sighting(oid, pos),),
                epoch=epoch,
            )

        # Three epochs behind: a replayed snapshot, rejected unanswered.
        reporter.send(leaf_id, envelope("ancient", epoch=2))
        svc.settle()
        assert leaf.stats.stale_epoch_rejected == 1

        # Two behind is legitimate in-flight lag: healed, answered.
        future = reporter.park("laggy")
        reporter.send(leaf_id, envelope("laggy", epoch=3))
        res = svc.run(reporter.wait("laggy", future))
        assert isinstance(res, m.UpdateBatchRes)
        assert all(outcome.ok for outcome in res.outcomes)
        assert leaf.stats.stale_epoch_rejected == 1  # unchanged


class TestPathRepairLane:
    def test_path_update_acked_per_hop(self):
        svc, homes = table2_service(object_count=20, seed=3)
        oid, leaf_id = next(iter(homes.items()))
        root = svc.hierarchy.root_id
        reporter = Reporter()
        svc.network.join(reporter)

        # The root's forwarding pointer for ``oid`` already names this
        # leaf, so the delivery is a pure (idempotent) retry — but it
        # must still be acked, or the sender would burn its retries.
        reporter.send(
            root,
            m.PathUpdate(
                object_id=oid,
                sender=leaf_id,
                request_id="repair-1",
                reply_to=reporter.address,
            ),
        )
        svc.settle()
        acks = [msg for msg in reporter.unhandled if isinstance(msg, m.PathAck)]
        assert [ack.request_id for ack in acks] == ["repair-1"]
        svc.check_consistency()

    def test_legacy_frame_decodes_with_defaults_and_is_not_acked(self):
        # A pre-PR-9 peer's PathUpdate has no request_id/reply_to on the
        # wire; the codec's trailing-default evolution fills them in.
        legacy = Record.of(m.PathUpdate(object_id="o", sender="s"))
        legacy.field_count, legacy.columns = 2, strs("o") + strs("s")  # no PR-9 fields
        decoded = wire.decode(frame("", "", legacy))
        assert decoded == m.PathUpdate(object_id="o", sender="s")
        assert decoded.request_id == "legacy" and decoded.reply_to == ""

        svc, homes = table2_service(object_count=20, seed=3)
        oid, leaf_id = next(iter(homes.items()))
        reporter = Reporter()
        svc.network.join(reporter)
        reporter.send(
            svc.hierarchy.root_id, m.PathUpdate(object_id=oid, sender=leaf_id)
        )
        svc.settle()
        assert not reporter.unhandled  # applied, but nothing to ack

    def test_repair_retries_then_abandons_when_acks_never_return(self):
        svc, homes = table2_service(object_count=20, seed=3)
        leaf_id = next(iter(homes.values()))
        leaf = svc.servers[leaf_id]
        root = svc.hierarchy.root_id
        injector = FaultInjector(svc.network, seed=1)
        # Sever only the ack direction: every delivery lands and is
        # (idempotently) applied, every ack is lost.
        injector.set_link(root, leaf_id, LinkFaults(severed=True))

        leaf._spawn_repair(
            root, m.PathUpdate(object_id="ghost", sender=leaf.address)
        )
        svc.settle()
        assert leaf.stats.path_repair_resends == 3
        assert leaf.stats.path_repairs_abandoned == 1
        # Idempotent application: four deliveries, one forwarding entry.
        assert svc.servers[root].visitors.forward_ref("ghost") == leaf.address

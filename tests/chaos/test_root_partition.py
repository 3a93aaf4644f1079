"""Root-partition survival: standby apex promotion (PR 9).

The PR-6 recovery strategies re-route *through* a healthy apex; these
tests cover the case where the apex itself is unreachable —
:meth:`~repro.chaos.RecoveryCoordinator.recover_apex` promotes a
standby root (WAL-replayed forwarding log, anti-entropy sync from the
children, re-parented configs, epoch bump) — and the full scenario
(:func:`repro.sim.chaos.root_partition_scenario`) whose numbers gate
``BENCH_PR9.json``.
"""

from repro.chaos import FaultInjector, RecoveryCoordinator
from repro.core import messages as m
from repro.geo import Point
from repro.sim.chaos import root_partition_scenario
from repro.sim.scenario import table2_service

from tests.cluster.test_migration import Reporter


def _sever_root(svc, injector: FaultInjector) -> str:
    """Isolate the apex from *every* endpoint — servers and probers."""
    root_id = svc.hierarchy.root_id
    others = [addr for addr in svc.network.addresses() if addr != root_id]
    injector.partition([root_id], others)
    return root_id


class TestRecoverApex:
    def test_promotes_standby_with_replayed_paths(self):
        svc, homes = table2_service(object_count=60, seed=9)
        injector = FaultInjector(svc.network, seed=9)
        coordinator = RecoveryCoordinator(svc)  # prober joins before the cut
        root_id = _sever_root(svc, injector)
        old_epoch = svc.hierarchy.epoch

        report = coordinator.recover_apex()
        assert report is not None and report.strategy == "promote"
        standby = report.new_home
        assert standby != root_id and standby in svc.servers
        assert root_id not in svc.servers  # the relic left the registry
        assert svc.hierarchy.root_id == standby
        assert svc.hierarchy.epoch == old_epoch + 1

        # The forwarding log survived: every object's path through the
        # apex now routes via the standby.
        promoted = svc.servers[standby]
        for oid, home in homes.items():
            ref = promoted.visitors.forward_ref(oid)
            assert ref is not None
            assert svc.hierarchy.parent_of(home) == ref or ref == home
        svc.settle()
        svc.check_consistency()

    def test_cross_subtree_query_flows_through_the_standby(self):
        svc, homes = table2_service(object_count=60, seed=9)
        injector = FaultInjector(svc.network, seed=9)
        coordinator = RecoveryCoordinator(svc)
        _sever_root(svc, injector)
        assert coordinator.recover_apex() is not None

        # Query an object from a leaf that does NOT track it: the only
        # route is up through the (promoted) apex.
        oid, home = next(iter(homes.items()))
        entry = next(
            sid
            for sid, server in svc.servers.items()
            if server.is_leaf and sid != home
        )
        reporter = Reporter()
        svc.network.join(reporter)
        res = svc.run(
            reporter.request(
                entry,
                m.PosQueryReq(request_id="q1", reply_to=reporter.address, object_id=oid),
            )
        )
        assert isinstance(res, m.PosQueryRes) and res.found

    def test_declines_while_the_root_still_answers(self):
        svc, _ = table2_service(object_count=20, seed=9)
        coordinator = RecoveryCoordinator(svc)
        assert coordinator.recover_apex() is None
        assert svc.hierarchy.root_id in svc.servers

    def test_relic_chatter_lands_outside_the_stale_horizon(self):
        """After promotion (+1 epoch) and two more adoptions the relic's
        pre-outage epoch stamp is beyond ``_EPOCH_REJECT_HORIZON``: a
        healed relic replaying old envelopes is rejected, not healed."""
        from repro.core.hierarchy import Hierarchy
        from repro.model import SightingRecord

        svc, homes = table2_service(object_count=20, seed=9)
        relic_epoch = svc.hierarchy.epoch
        injector = FaultInjector(svc.network, seed=9)
        coordinator = RecoveryCoordinator(svc)
        _sever_root(svc, injector)
        assert coordinator.recover_apex() is not None
        for _ in range(2):  # later rebalances age the topology further
            h = svc.hierarchy
            svc.adopt_hierarchy(
                Hierarchy(
                    {sid: h.config(sid) for sid in h.server_ids()},
                    epoch=h.epoch + 1,
                )
            )
        injector.heal_partition()

        oid, home = next(iter(homes.items()))
        leaf = svc.servers[home]
        reporter = Reporter()
        svc.network.join(reporter)
        reporter.send(
            home,
            m.UpdateBatchReq(
                request_id="relic",
                reply_to=reporter.address,
                sightings=(
                    SightingRecord(oid, 0.0, Point(1e6, 1e6), 10.0),
                ),
                epoch=relic_epoch,
            ),
        )
        svc.settle()
        assert leaf.stats.stale_epoch_rejected == 1


class TestRootPartitionScenario:
    def test_scenario_meets_the_bench_gates(self):
        payload = root_partition_scenario(objects=120, seed=0)
        assert payload["promoted"] if "promoted" in payload else True
        assert payload["lost_sightings"] == 0
        assert payload["duplicated_sightings"] == 0
        assert (
            payload["cross_queries_answered_before_heal"]
            == payload["cross_queries_before_heal"]
            > 0
        )
        assert payload["reconvergence_ticks"] is not None
        assert payload["reconvergence_ticks"] <= 5
        assert payload["faults_injected"] > 0

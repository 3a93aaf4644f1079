"""Phased (copy → dual-write → cutover) migration under live traffic.

The zero-stall pipeline's correctness hinges on three mechanisms tested
here: the buffered dual-write mirror keeping staged stores exactly in
sync with every mutation the source serves during the window, the
topology epoch letting stale traffic and racing fan-out collectors heal
without a drained loop, and the §6.5 invalidation broadcast retargeting
cached dispatches at cutover.
"""

import pytest

from repro.cluster import (
    MergePlan,
    MigrationExecutor,
    PlannerConfig,
    RebalancePlanner,
    SplitPlan,
)
from repro.core import messages as m
from repro.core.caching import CacheConfig
from repro.errors import LocationServiceError
from repro.geo import Point, Rect
from repro.model import NearestNeighborQuery, RangeQuery, SightingRecord
from repro.sim.scenario import table2_service

from tests.cluster.test_migration import Reporter


def plan_split(svc, leaf_id="root.0"):
    planner = RebalancePlanner(PlannerConfig(split_load=1.0))
    plans = planner.plan(svc, {leaf_id: 100.0})
    assert len(plans) == 1 and isinstance(plans[0], SplitPlan)
    return plans[0]


class TestDualWriteWindow:
    def test_split_mirror_tracks_moves_crossings_and_departures(self):
        svc, homes = table2_service(object_count=400, seed=41)
        executor = MigrationExecutor(svc)
        plan = plan_split(svc)
        migration = executor.begin(plan)
        assert not migration.copy_done
        executor.step(migration)  # drain the snapshot copy
        assert migration.copy_done

        parent = svc.servers["root.0"]
        area = parent.config.area
        reporter = Reporter()
        svc.network.join(reporter)
        moved = [oid for oid, home in homes.items() if home == "root.0"][:6]
        # In-area moves during the window (one crosses the cut line:
        # jitter across the whole parent area guarantees both children
        # see traffic), one departure to another quadrant, one arrival.
        for i, oid in enumerate(moved[:4]):
            pos = Point(
                area.min_x + (i + 1) * area.width / 6.0,
                area.min_y + (i + 1) * area.height / 6.0,
            )
            res = svc.run(reporter.send_update("root.0", oid, pos))
            assert res.ok
        departer = moved[4]
        res = svc.run(reporter.send_update("root.0", departer, Point(1200.0, 1200.0)))
        assert res.ok and res.agent == "root.3"
        arriver = next(oid for oid, home in homes.items() if home == "root.3")
        res = svc.run(reporter.send_update("root.3", arriver, area.center))
        assert res.ok and res.agent == "root.0"

        report = executor.cutover(migration)
        assert report.dual_writes > 0
        assert departer not in report.new_homes
        assert arriver in report.new_homes
        svc.settle()
        svc.check_consistency()
        assert svc.total_tracked() == 400
        # Every moved object is served by the child covering its position.
        for oid in moved[:4]:
            assert svc.pos_query(oid) is not None

    def test_merge_mirror_handles_sibling_handover_race(self):
        svc, homes = table2_service(object_count=300, seed=42)
        executor = MigrationExecutor(svc)
        executor.execute(plan_split(svc))
        children = svc.hierarchy.config("root.0").children
        a, b = children[0].server_id, children[1].server_id
        migration = executor.begin(
            MergePlan(
                parent_id="root.0",
                children=tuple(ref.server_id for ref in children),
            )
        )
        executor.step(migration)
        # An object hands over from child a to child b mid-window: the
        # departure from a must not erase b's staged arrival.
        oid = next(iter(svc.servers[a].store.sightings.object_ids()))
        target = svc.servers[b].config.area.center
        reporter = Reporter()
        svc.network.join(reporter)
        res = svc.run(reporter.send_update(a, oid, target))
        assert res.ok and res.agent == b
        report = executor.cutover(migration)
        assert report.new_homes[oid] == "root.0"
        svc.settle()
        svc.check_consistency()
        assert svc.total_tracked() == 300

    def test_accuracy_change_supersedes_buffered_one(self):
        """acc change → update → acc change during the window: the flush
        must land the *latest* accuracy, not resurrect the first one
        buffered before the pending upsert existed."""
        svc, homes = table2_service(object_count=160, seed=52)
        executor = MigrationExecutor(svc)
        migration = executor.begin(plan_split(svc))
        executor.step(migration)
        oid = next(oid for oid, home in homes.items() if home == "root.0")
        source = svc.servers["root.0"]
        source.store.change_accuracy(oid, 50.0, 100.0)  # buffered in _acc
        reporter = Reporter()
        svc.network.join(reporter)
        res = svc.run(
            reporter.send_update("root.0", oid, source.config.area.center)
        )
        assert res.ok  # pending upsert now carries the 50.0 record
        source.store.change_accuracy(oid, 70.0, 100.0)  # must win at flush
        expected = source.store.offered_acc(oid)
        report = executor.cutover(migration)
        child = report.new_homes[oid]
        assert svc.servers[child].store.offered_acc(oid) == expected

    def test_chunked_copy_racing_mutations(self):
        svc, homes = table2_service(object_count=500, seed=43)
        executor = MigrationExecutor(svc)
        migration = executor.begin(plan_split(svc))
        reporter = Reporter()
        svc.network.join(reporter)
        area = svc.servers["root.0"].config.area
        in_parent = [oid for oid, home in homes.items() if home == "root.0"]
        # Interleave small copy chunks with mutations of objects whose
        # snapshot entries may or may not be staged yet.
        step = 0
        while not migration.copy_done:
            staged_before = migration.copied
            assert executor.step(migration, 40) == migration.copied - staged_before
            oid = in_parent[step % len(in_parent)]
            pos = Point(
                area.min_x + ((step * 37) % 100) / 100.0 * area.width,
                area.min_y + ((step * 53) % 100) / 100.0 * area.height,
            )
            res = svc.run(reporter.send_update("root.0", oid, pos))
            assert res.ok
            step += 1
        report = executor.cutover(migration)
        assert report.moved == len(in_parent)
        svc.settle()
        svc.check_consistency()
        assert svc.total_tracked() == 500
        # The staged position must be the *latest* one, not the snapshot.
        last_oid = in_parent[(step - 1) % len(in_parent)]
        child = report.new_homes[last_oid]
        assert svc.servers[child].store.sightings.get(last_oid) is not None


class TestEpochRaces:
    def test_stale_epoch_envelope_arriving_mid_cutover(self):
        """An UpdateBatchReq stamped with the pre-split epoch and
        delivered *after* the cutover routes down the fresh forwarding
        path and is counted as stale-epoch traffic."""
        svc, homes = table2_service(object_count=200, seed=44)
        executor = MigrationExecutor(svc)
        migration = executor.begin(plan_split(svc))
        oids = [oid for oid, home in homes.items() if home == "root.0"][:5]
        area = svc.servers["root.0"].config.area
        courier = Reporter()
        svc.network.join(courier)
        old_epoch = svc.hierarchy.epoch
        # Queue the envelope (it sits on the virtual wire), then cut
        # over before delivery.
        answers = []
        courier.park("stale-env", None, answers.append, lambda: None)
        courier.send(
            "root.0",
            m.UpdateBatchReq(
                request_id="stale-env",
                reply_to=courier.address,
                sightings=tuple(
                    SightingRecord(oid, 0.0, area.center, 10.0) for oid in oids
                ),
                epoch=old_epoch,
            ),
        )
        executor.cutover(migration)
        assert svc.hierarchy.epoch == old_epoch + 1
        svc.settle()
        (res,) = answers
        assert isinstance(res, m.UpdateBatchRes)
        assert all(outcome.ok for outcome in res.outcomes)
        # The agents answered are the new children, re-pointing senders.
        new_agents = {outcome.agent for outcome in res.outcomes}
        assert new_agents <= set(
            ref.server_id for ref in svc.hierarchy.config("root.0").children
        )
        assert svc.servers["root.0"].stats.stale_epoch_messages >= 1
        svc.check_consistency()

    def test_range_collector_racing_cutover_reissues(self):
        """A merge cutover scheduled *inside the loop* while a range
        query is mid-collection: the absorbing parent's coverage
        overlaps the already-counted retired child, which used to
        resolve the collector early with missing entries — the epoch
        bump now forces a re-issue and the answer stays complete."""
        svc, homes = table2_service(object_count=240, seed=45)
        executor = MigrationExecutor(svc)
        split_report = executor.execute(plan_split(svc))
        migration = executor.begin(
            MergePlan(parent_id="root.0", children=split_report.spawned)
        )
        executor.step(migration)
        entry = svc.servers["root.3"]
        # Cut over at a virtual instant chosen to land between the
        # fan-out dispatch and the last sub-result (per-hop latency is
        # 350 µs): the loop is live, nothing is drained.
        svc.loop.call_later(450e-6, lambda: executor.cutover(migration))
        answer = svc.range_query(
            svc.hierarchy.root_area(),
            req_acc=100.0,
            req_overlap=0.5,
            entry_server="root.3",
        )
        assert len(answer.entries) == 240
        assert svc.hierarchy.epoch == 2  # split, then the racing merge
        assert entry.stats.epoch_retries >= 1
        svc.settle()
        svc.check_consistency()

    def race_merge_into_fanout(self, ask, cutover_after):
        """Split root.0, stage merging it back, and cut over while
        ``ask(svc, entry)``'s fan-out from root.3 is in flight: after
        root.1 and root.2 answered under the old epoch, before the
        forward reaches root.0's children (one hop deeper) — so only
        the merged root.0 answers under the new epoch.  Returns the
        fan-out forwards root.3 sent and root.0's service area."""
        svc, homes = table2_service(object_count=240, seed=45)
        executor = MigrationExecutor(svc)
        split_report = executor.execute(plan_split(svc))
        migration = executor.begin(
            MergePlan(parent_id="root.0", children=split_report.spawned)
        )
        executor.step(migration)
        entry = svc.servers["root.3"]
        forwards = []
        send = entry.send

        def recording_send(dest, message):
            if isinstance(message, (m.RangeQueryBatchFwd, m.NNCandidatesBatchFwd)):
                forwards.append(message)
            send(dest, message)

        entry.send = recording_send
        svc.loop.call_later(cutover_after, lambda: executor.cutover(migration))
        ask(svc, entry)
        assert entry.stats.epoch_retries == 1
        svc.settle()
        svc.check_consistency()
        return forwards, svc.servers["root.0"].config.area

    def assert_reissue_skips_current_epoch_answers(self, forwards, answered_area):
        """The one retry rule: the re-issue asks only for the space
        whose coverage is in doubt — never again for a leaf that
        answered under the current epoch."""
        first, reissue = forwards
        assert any(item.dispatch.intersects(answered_area) for item in first.items)
        assert reissue.items
        for item in reissue.items:
            assert item.dispatch.intersection_area(answered_area) == 0.0

    def test_reissued_range_query_excludes_current_epoch_answers(self):
        def ask(svc, entry):
            answer = svc.range_query(
                svc.hierarchy.root_area(), req_acc=100.0, entry_server="root.3"
            )
            assert len(answer.entries) == 240

        # + one client → entry hop before the fan-out leaves root.3
        self.assert_reissue_skips_current_epoch_answers(
            *self.race_merge_into_fanout(ask, cutover_after=1200e-6)
        )

    def test_reissued_range_batch_excludes_current_epoch_answers(self):
        def ask(svc, entry):
            query = RangeQuery(svc.hierarchy.root_area(), req_acc=100.0, req_overlap=0.5)
            local = RangeQuery(Rect(900, 900, 1400, 1400), req_acc=1.0, req_overlap=0.5)
            whole, again, _ = svc.run(entry.evaluate_range_many([query, query, local]))
            assert len(whole) == len(again) == 240

        forwards, answered_area = self.race_merge_into_fanout(ask, cutover_after=850e-6)
        self.assert_reissue_skips_current_epoch_answers(forwards, answered_area)
        # Both spanning queries ride the one re-issue; the local one never left.
        assert len(forwards[0].items) == 2 and len(forwards[1].items) == 4

    def test_reissued_nn_round_excludes_current_epoch_answers(self):
        def ask(svc, entry):
            query = NearestNeighborQuery(Point(750, 750), req_acc=100.0)
            (result,) = svc.run(entry.evaluate_neighbors_many([query]))
            assert result.nearest is not None

        self.assert_reissue_skips_current_epoch_answers(
            *self.race_merge_into_fanout(ask, cutover_after=850e-6)
        )

    def test_adopt_hierarchy_requires_increasing_epoch(self):
        svc, _ = table2_service(object_count=10, seed=46)
        with pytest.raises(LocationServiceError):
            svc.adopt_hierarchy(svc.hierarchy)

    def test_epochs_propagate_to_all_servers(self):
        svc, _ = table2_service(object_count=120, seed=47)
        executor = MigrationExecutor(svc)
        executor.execute(plan_split(svc))
        assert svc.hierarchy.epoch == 1
        for server in svc.servers.values():
            assert server.topology_epoch == 1


class TestInvalidationBroadcast:
    def test_cutover_retargets_cached_handover_dispatch(self):
        """A leaf holding a §6.5 (leaf, area) entry for the split leaf
        must stop direct-dispatching to it after the broadcast — and
        know the new children without re-learning through the
        hierarchy."""
        svc, homes = table2_service(
            object_count=200, seed=48, cache_config=CacheConfig.all_enabled()
        )
        executor = MigrationExecutor(svc)
        observer = svc.servers["root.3"]
        split_area = svc.servers["root.0"].config.area
        observer.caches.note_leaf_area("root.0", split_area)
        report = executor.execute(plan_split(svc))
        assert report.invalidations_sent >= 1
        svc.settle()  # deliver the broadcast
        center = split_area.center
        cached = observer.caches.leaf_for_point(center.x, center.y)
        assert cached != "root.0"
        assert cached in report.spawned  # pre-seeded with the new owner
        assert observer.caches.stats.invalidations_applied >= 1

    def test_merge_broadcast_forgets_children_and_learns_parent(self):
        svc, homes = table2_service(
            object_count=200, seed=49, cache_config=CacheConfig.all_enabled()
        )
        executor = MigrationExecutor(svc)
        # The observer holds a route to the splitting leaf, so the scoped
        # split broadcast reaches it and pre-seeds the children; holding
        # those keeps it in scope for the merge broadcast too.
        svc.servers["root.3"].caches.note_leaf_area(
            "root.0", svc.servers["root.0"].config.area
        )
        split_report = executor.execute(plan_split(svc))
        svc.settle()
        merge_report = executor.execute(
            MergePlan(parent_id="root.0", children=split_report.spawned)
        )
        svc.settle()
        observer = svc.servers["root.3"]
        center = svc.hierarchy.config("root.0").area.center
        assert observer.caches.leaf_for_point(center.x, center.y) == "root.0"
        assert merge_report.invalidations_sent >= 1

    def test_in_flight_forward_after_invalidation_still_heals(self):
        """The broadcast and a §6.5-cached direct dispatch can cross on
        the wire: the dispatch sent before the invalidation arrived
        still lands (forwarding path), teaching nothing wrong."""
        svc, homes = table2_service(
            object_count=200, seed=50, cache_config=CacheConfig.all_enabled()
        )
        executor = MigrationExecutor(svc)
        observer_id = "root.3"
        split_area = svc.servers["root.0"].config.area
        svc.servers[observer_id].caches.note_leaf_area("root.0", split_area)
        report = executor.execute(plan_split(svc))
        # Immediately (broadcast still in flight) a cached handover
        # dispatch targets the now-interior split leaf.
        oid = next(oid for oid, home in homes.items() if home == observer_id)
        reporter = Reporter()
        svc.network.join(reporter)
        res = svc.run(reporter.send_update(observer_id, oid, split_area.center))
        assert res.ok and res.agent in report.spawned
        svc.settle()
        svc.check_consistency()


class TestPlannerBusyExclusion:
    def test_in_flight_leaves_are_not_replanned(self):
        svc, homes = table2_service(object_count=400, seed=51)
        executor = MigrationExecutor(svc)
        migration = executor.begin(plan_split(svc))
        planner = RebalancePlanner(PlannerConfig(split_load=1.0))
        rates = {sid: 100.0 for sid in svc.hierarchy.leaf_ids()}
        plans = planner.plan(svc, rates, busy=executor.busy_server_ids())
        assert all(plan.leaf_id != "root.0" for plan in plans)
        # Reserved child names must not be reused either.
        reserved = {child_id for child_id, _ in migration.plan.children}
        for plan in plans:
            assert reserved.isdisjoint({cid for cid, _ in plan.children})
        executor.cutover(migration)
        svc.check_consistency()

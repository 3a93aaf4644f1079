"""Exactly one agent after a lost handover answer, replayed by script
(ROADMAP direction 1).

A handover whose answer is lost on the way back to the old agent used to
leave the object on that agent's books while the root and the new agent
had already moved it: two agents.  The seeded Byzantine lane only hits
the race when its schedule happens to corrupt that one answer, so a
green seeded run proves nothing; these replays sever the answer's link
outright and hit it every time.  The old agent now owns the handover
until it is answered (one re-send row per destination group), and an
ancestor that re-points a path prunes the branch it leaves.
"""

import pytest

from repro.chaos import FaultInjector, LinkFaults, RecoveryCoordinator
from repro.cluster import MergePlan, MigrationExecutor, SplitPlan
from repro.core import LocationService, build_table2_hierarchy
from repro.core.service import drive_update_envelope
from repro.errors import LocationServiceError
from repro.geo import Point, Rect


@pytest.fixture
def lost():
    """``o1`` registered at root.0, its handover to root.3 sent with the
    answer's link root → root.0 severed: the device has its NACK, the
    fault is still on."""
    svc = LocationService(build_table2_hierarchy(), sighting_ttl=1e9)
    svc.register("o1", Point(100, 100))  # agent root.0
    injector = FaultInjector(svc.network)
    injector.set_link("root", "root.0", LinkFaults(severed=True))
    (outcome,) = report(svc, Point(1400, 1400))
    assert not outcome.ok  # the answer never came back
    return svc, injector


def report(svc, pos):
    return svc.run(
        drive_update_envelope(
            svc._reporter(), svc, "root.0", [("o1", pos, 10.0)],
            timeout=0.5, retries=0, sub_timeout=0.2,
        )
    )


def holders(svc):
    return {
        sid: server.store.sightings.get("o1")
        for sid, server in svc.servers.items()
        if server.is_leaf and server.store.sightings.get("o1") is not None
    }


def test_a_lost_handover_answer_leaves_one_agent(lost):
    svc, injector = lost
    injector.clear()
    svc.settle()
    svc.check_consistency()
    assert list(holders(svc)) == ["root.3"]


def test_a_retried_report_to_a_third_leaf_leaves_one_agent(lost):
    """The re-sent report lands in root.1 while root.3 already admitted
    the first one: the root re-points root.3 → root.1 and prunes root.3."""
    svc, injector = lost
    injector.clear()
    report(svc, Point(1400, 100))
    svc.settle()
    svc.check_consistency()
    (agent, sighting), = holders(svc).items()
    assert agent == "root.1" and sighting.pos == Point(1400, 100)


def test_a_silent_device_is_re_pointed_by_its_next_report(lost):
    """The row resolves after the device had its NACK: the old agent
    keeps a forwarding pointer, so the next report still finds the
    object's agent and tells the device."""
    svc, injector = lost
    injector.clear()
    svc.settle()
    origin = svc.servers["root.0"]
    assert origin.visitors.leaf_record("o1") is None
    assert origin.visitors.forward_ref("o1") == "root.3"
    (outcome,) = report(svc, Point(1450, 1450))
    assert outcome.ok and outcome.agent == "root.3"
    assert holders(svc)["root.3"].pos == Point(1450, 1450)


def test_two_agents_coexist_only_while_a_handover_row_is_pending(lost):
    svc, injector = lost
    with pytest.raises(LocationServiceError, match="two agents"):
        svc.check_consistency()
    assert not svc.network.quiescent
    injector.clear()
    svc.settle()
    assert svc.network.quiescent
    assert all(not server.handovers for server in svc.servers.values())
    svc.check_consistency()


def test_an_unanswered_row_is_abandoned_and_keeps_the_object(lost):
    svc, injector = lost
    svc.settle()  # the fault stays on: every attempt's answer is lost
    origin = svc.servers["root.0"]
    assert origin.stats.handover_resends == 3
    assert origin.stats.handovers_abandoned == 1
    assert not origin.handovers
    assert origin.visitors.leaf_record("o1") is not None


def test_a_retired_origin_is_not_touched_by_its_row(lost):
    """A server that left its role while its row was out holds none of
    the row's objects: the late answer drops nothing and installs no
    pointer there."""
    svc, injector = lost
    origin = svc.servers["root.0"]
    origin.retire("root")
    injector.clear()
    svc.settle()
    assert len(origin.visitors) == 0
    assert not origin.handovers
    assert list(holders(svc)) == ["root.3"]


SPLIT = SplitPlan(
    "root.0", "x", (375.0,),
    (("root.0/t.0", Rect(0, 0, 375, 750)), ("root.0/t.1", Rect(375, 0, 750, 750))),
)
MERGE = MergePlan("root", ("root.0", "root.1", "root.2", "root.3"))


def test_a_split_waits_for_the_pending_handover_row(lost):
    """Split root.0 while its row is out and the kept object moves into a
    child, so the late answer finds nothing to drop at the now-interior
    root.0 and o1 has two agents.  The split is refused until the row
    ends, and the planner's busy set names the leaf meanwhile."""
    svc, injector = lost
    executor = MigrationExecutor(svc)
    assert executor.busy_server_ids() == {"root.0"}
    for plan in (SPLIT, MERGE):
        with pytest.raises(LocationServiceError, match="handover rows still pending"):
            executor.execute(plan)
    assert not executor.in_flight
    injector.clear()
    svc.settle()
    assert executor.busy_server_ids() == frozenset()
    executor.execute(SPLIT)
    svc.settle()
    svc.check_consistency()
    assert list(holders(svc)) == ["root.3"]


def test_a_crashed_leaf_with_a_pending_row_is_still_merged_away(lost):
    """A crashed leaf's rows do not hold recovery up: it is merged away
    all the same, and the object the sibling admitted stays one object."""
    svc, injector = lost
    svc.crash_server("root.0")
    assert MigrationExecutor(svc).busy_server_ids() == frozenset()
    RecoveryCoordinator(svc).recover_dead_leaf("root.0", strategy="merge")
    injector.clear()
    svc.settle()
    svc.check_consistency()
    assert list(holders(svc)) == ["root"]

"""The visitor DB's durable log stays bounded under handover traffic.

Every handover appends visitor-log records at the old agent, the new
agent and the common ancestor.  Each :class:`~repro.storage.VisitorDB`
compacts its own store once the log outgrows twice its live records
plus :data:`~repro.storage.visitor_db.LOG_SLACK`, so a server's log
tracks its live set, not the traffic it has seen.  Compacted logs must
still recover to the exact pre-crash records.
"""

from repro.geo import Point
from repro.sim.scenario import table2_service
from repro.storage.visitor_db import LOG_SLACK

OBJECTS = 200
TICKS = 60
TICKS_AFTER_RESTART = 30


def position(i: int, tick: int) -> Point:
    """Object ``i`` sits west of the root.0 | root.1 border (x = 750) on
    even ticks and east of it on odd ones."""
    return Point(700.0 if tick % 2 == 0 else 800.0, 10.0 + 3.5 * i)


def assert_logs_bounded(svc) -> None:
    for server_id, server in svc.servers.items():
        visitors = server.visitors
        count = len(list(visitors.store.replay()))
        assert count <= 2 * len(visitors) + LOG_SLACK, (server_id, count, len(visitors))


def drive(svc, objects, ticks: range) -> None:
    for tick in ticks:
        svc.update_many([(obj, position(i, tick)) for i, obj in enumerate(objects)])
        svc.settle()
        assert_logs_bounded(svc)


def test_handover_traffic_keeps_every_log_bounded_and_recoverable():
    svc, _ = table2_service(object_count=0)
    objects = [svc.register(f"bt-{i}", position(i, 0)) for i in range(OBJECTS)]
    drive(svc, objects, range(1, TICKS + 1))
    # 200 handovers a tick re-point the root's forward record each time:
    # without compaction its log would hold ~12 000 records by now.
    assert svc.servers["root"].visitors.compactions >= 2
    assert svc.servers["root.0"].visitors.compactions >= 1
    assert all(obj.agent == "root.0" for obj in objects)  # tick 60 is even
    svc.check_consistency()

    server_ids = ["root", *svc.hierarchy.leaf_ids()]
    before = {sid: dict(svc.servers[sid].visitors.items()) for sid in server_ids}
    for sid in server_ids:
        svc.crash_server(sid)
    for sid in server_ids:
        svc.restart_server(sid)
    assert {sid: dict(svc.servers[sid].visitors.items()) for sid in server_ids} == before
    svc.check_consistency()

    # The replayed records count toward the bound: a recovered DB whose
    # count restarted at zero would let the log grow past it here.
    drive(svc, objects, range(TICKS + 1, TICKS + 1 + TICKS_AFTER_RESTART))
    svc.check_consistency()
    assert svc.total_tracked() == OBJECTS
    for i, obj in enumerate(objects):
        assert svc.pos_query(obj.object_id).pos == position(i, TICKS + TICKS_AFTER_RESTART)

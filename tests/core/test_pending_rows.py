"""Every wait a server parks is a pending row with a deadline.

An entry server parks a position query (Alg. 6-4) or a range / NN
fan-out (Alg. 6-5) until the answer comes straight back to it.  Here
root.3's answers to root.0 never arrive (the link is severed, or every
message on it is damaged and quarantined), and root.0 is asked for
root.3's object by position, by range and by NN, with a client timeout
far longer than the server's deadline.  Each query is answered — not
found, or the best-effort entries — once the rows expire, and no server
is left holding a row.
"""

import random

import pytest

from repro.chaos import FaultInjector, LinkFaults
from repro.core import LocationService
from repro.core.hierarchy import build_table2_hierarchy
from repro.core.server import _EPOCH_RETRIES, ANSWER_DEADLINE
from repro.errors import TransportError
from repro.geo import Point, Rect
from repro.sim.engine import COMPACT_MIN

CLIENT_TIMEOUT = 20 * ANSWER_DEADLINE
#: One fan-out attempt per epoch retry, each ended by its row's deadline.
COLLECT_DEADLINE = (_EPOCH_RETRIES + 1) * ANSWER_DEADLINE
WHOLE_AREA = Rect(0, 0, 1500, 1500)


def _service(faults: LinkFaults):
    svc = LocationService(build_table2_hierarchy(1500.0))
    svc.register("near", Point(100, 100))  # agent root.0
    svc.register("far", Point(1400, 1400))  # agent root.3
    svc.settle()
    injector = FaultInjector(svc.network, seed=0)
    injector.set_link("root.3", "root.0", faults)
    return svc, svc.new_client(entry_server="root.0", timeout=CLIENT_TIMEOUT), injector


def _timed(svc, coro):
    """The coroutine's result and the virtual seconds it took."""
    start = svc.network.loop.now
    answer = svc.run(coro)
    return answer, svc.network.loop.now - start


def _assert_no_rows_left(svc) -> None:
    svc.settle()
    pending = {sid: server.pending_count for sid, server in svc.servers.items()}
    assert pending == dict.fromkeys(svc.servers, 0)


SEVERED = LinkFaults(severed=True)
QUARANTINED = LinkFaults(corrupt_rate=1.0)


@pytest.mark.parametrize("faults", [SEVERED, QUARANTINED], ids=["severed", "quarantined"])
def test_position_query_answers_not_found_at_the_deadline(faults):
    svc, client, injector = _service(faults)
    answer, took = _timed(svc, client.pos_query("far"))
    assert answer is None
    assert ANSWER_DEADLINE <= took < ANSWER_DEADLINE + 0.1
    if faults is QUARANTINED:
        assert svc.servers["root.0"].stats.messages_quarantined >= 1
    _assert_no_rows_left(svc)
    # The link heals: the next query finds the object again.
    injector.clear()
    assert svc.run(client.pos_query("far")) is not None


def test_range_query_answers_best_effort_after_the_epoch_retries():
    svc, client, _ = _service(SEVERED)
    answer, took = _timed(svc, client.range_query(WHOLE_AREA))
    assert [oid for oid, _ in answer.entries] == ["near"]
    assert COLLECT_DEADLINE <= took < COLLECT_DEADLINE + 0.1
    assert svc.servers["root.0"].stats.epoch_retries == _EPOCH_RETRIES
    _assert_no_rows_left(svc)


def test_nn_query_answers_best_effort_round_by_round():
    svc, client, _ = _service(SEVERED)
    answer, took = _timed(svc, client.neighbor_query(Point(1400, 1400)))
    # Both ring rounds reach root.3, and each ends at its deadlines; the
    # second round's probe holds the whole area, so the ring stops there.
    assert answer.rounds == 2
    assert answer.result.nearest[0] == "near"
    assert 2 * COLLECT_DEADLINE <= took < 2 * COLLECT_DEADLINE + 0.1
    _assert_no_rows_left(svc)


def test_all_three_at_once_leave_no_row():
    svc, client, _ = _service(SEVERED)

    async def three():
        pos = svc.network.loop.create_task(client.pos_query("far"))
        rng = svc.network.loop.create_task(client.range_query(WHOLE_AREA))
        nn = svc.network.loop.create_task(client.neighbor_query(Point(1400, 1400)))
        return await pos, await rng, await nn

    pos, rng, nn = svc.run(three())
    assert pos is None
    assert [oid for oid, _ in rng.entries] == ["near"]
    assert nn.result.nearest[0] == "near"
    _assert_no_rows_left(svc)
    assert client.pending_count == 0


def test_an_answer_after_its_deadline_is_counted_not_kept():
    svc, _, _ = _service(LinkFaults())
    client = svc.new_client(entry_server="root.0", timeout=1e-4)
    with pytest.raises(TransportError, match="timed out"):
        svc.run(client.range_query(WHOLE_AREA))
    svc.settle()
    assert client.late_answers == 1
    assert client.unhandled == []
    assert client.pending_count == 0


def test_the_default_client_waits_for_the_servers_answers():
    # A client given no timeout parks rows without a deadline, so each
    # answer arrives however long the server's own rows took.
    svc, _, _ = _service(SEVERED)
    start = svc.network.loop.now
    assert svc.pos_query("far", entry_server="root.0") is None
    rng = svc.range_query(WHOLE_AREA, entry_server="root.0")
    assert [oid for oid, _ in rng.entries] == ["near"]
    nn = svc.neighbor_query(Point(1400, 1400), entry_server="root.0")
    assert nn.result.nearest[0] == "near"
    assert svc.network.loop.now - start >= ANSWER_DEADLINE + 3 * COLLECT_DEADLINE
    _assert_no_rows_left(svc)
    client = svc._client()
    assert (client.pending_count, client.late_answers) == (0, 0)


def test_cancelled_row_timers_do_not_pile_up_in_the_sim_heap():
    # Every answered row disarms its timer; the simulated loop drops the
    # cancelled timers once they outnumber the live events.
    svc = LocationService(build_table2_hierarchy(1500.0))
    rng = random.Random(0)
    for i in range(400):
        svc.register(f"o{i}", Point(rng.uniform(0, 1500), rng.uniform(0, 1500)))
    for _ in range(3000):
        assert svc.pos_query(f"o{rng.randrange(400)}") is not None
    queue = svc.network.loop._queue
    live = sum(1 for entry in queue if not entry[3].cancelled)
    assert len(queue) <= max(COMPACT_MIN, 2 * live)

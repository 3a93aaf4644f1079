"""Core hopping, with the cores and their speeds faked."""

import quiet


def fake_cores(monkeypatch, speeds):
    pinned = []
    monkeypatch.setattr(quiet.os, "sched_getaffinity", lambda pid: set(speeds))
    monkeypatch.setattr(
        quiet.os, "sched_setaffinity", lambda pid, cores: pinned.extend(cores)
    )
    monkeypatch.setattr(quiet, "reading", lambda: speeds[pinned[-1]])
    return pinned


def test_the_process_moves_only_when_its_core_reads_slow_and_another_is_faster(monkeypatch):
    speeds = {0: 1.0, 1: 1.05}
    fake_cores(monkeypatch, speeds)
    core = quiet.QuietCore()
    assert core.core == 0  # the faster one at the start
    speeds[1] = 0.95  # a little faster elsewhere is no reason to move
    core.settle()
    assert (core.core, core.moves) == (0, 0)
    speeds[0] = 1.5
    core.settle()
    assert (core.core, core.moves, core.slow_starts) == (1, 1, 0)
    speeds[1] = 1.6  # both busy: the less busy one, and the group starts slow
    core.settle()
    assert (core.core, core.moves, core.slow_starts) == (0, 2, 1)
    core.settle()  # still the better of the two: stay
    assert (core.core, core.moves, core.slow_starts) == (0, 2, 2)


def test_where_the_process_may_not_choose_its_core_nothing_happens(monkeypatch):
    def refuse(pid, cores):
        raise OSError("not permitted")

    monkeypatch.setattr(quiet.os, "sched_setaffinity", refuse)
    core = quiet.QuietCore()
    assert core.cores == []
    core.settle()
    assert core.moves == 0

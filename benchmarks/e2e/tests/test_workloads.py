"""Seeded input generation: determinism, warm-up split, workload shape."""

import workloads
from workloads import BORDER, Op, generate, split_warmup

SECONDS = 15.0


def _ops(inputs):
    return [op for group in inputs.warmup + inputs.timed for op in group]


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in workloads.WORKLOADS:
        first, again = generate(name, 5, SECONDS, "smoke"), generate(name, 5, SECONDS, "smoke")
        other = generate(name, 6, SECONDS, "smoke")
        assert _ops(first) == _ops(again)
        assert (first.start_xs, first.params_hash) == (again.start_xs, again.params_hash)
        assert _ops(first) != _ops(other)
        assert first.params_hash != other.params_hash
        # Another seed changes the inputs, never the shape of the run (only
        # the number of part-filled envelopes follows the placement).
        queries = lambda inputs: sorted(op.sub for op in _ops(inputs) if op.kind != "update")
        assert queries(first) == queries(other)
        assert len(first.warmup + first.timed) == len(other.warmup + other.timed)


def test_params_hash_covers_what_determines_the_inputs():
    workload = workloads.WORKLOADS["query_mix_tcp"]
    base = workloads.params_hash(workload, 1, SECONDS, "full")
    assert len(base) == 16 and int(base, 16) >= 0
    assert base == workloads.params_hash(workload, 1, SECONDS, "full")
    assert base != workloads.params_hash(workload, 2, SECONDS, "full")
    assert base != workloads.params_hash(workload, 1, SECONDS, "smoke")
    assert base != workloads.params_hash(workload, 1, 10.0, "full")
    assert base != workloads.params_hash(workload, 1, SECONDS, "full", fraction=0.25)


def test_warmup_is_the_first_five_percent_and_may_split_a_group():
    op = Op("pos", "pos_local", "root.0", 0)
    groups = [[op] * 30, [op] * 70]
    warmup, timed = split_warmup(groups)
    assert [len(g) for g in warmup] == [5]
    assert [len(g) for g in timed] == [25, 70]
    warmup, timed = split_warmup(groups, share=0.5)
    assert [len(g) for g in warmup] == [30, 20]
    assert [len(g) for g in timed] == [50]


def test_every_workload_issues_every_kind_of_operation():
    # Each workload must report every end-to-end metric, so none may lack a kind.
    for name in workloads.WORKLOADS:
        timed = [op for group in generate(name, 1, SECONDS).timed for op in group]
        assert {op.kind for op in timed} == {"update", "pos", "range", "nn"}, name


def test_smoke_is_about_a_twentieth_of_full():
    for name in ("query_mix_tcp", "mixed_inproc_columnar"):
        full, smoke = len(_ops(generate(name, 1, SECONDS))), len(_ops(generate(name, 1, SECONDS, "smoke")))
        assert full / 40 < smoke < full / 8, (name, full, smoke)


def test_handover_burst_moves_half_the_reports_across_a_border():
    inputs = generate("handover_burst_udp", 3, SECONDS)
    leaves = dict(inputs.leaves)
    shares = []
    for group in inputs.warmup + inputs.timed:
        crossings = reports = 0
        for op in group:
            if op.kind != "update":
                continue
            x0, y0, x1, y1 = leaves[op.entry]  # the agent before the move
            _timestamp, indexes, xs, ys = op.arg
            assert len(indexes) <= workloads.ENVELOPE
            for x, y in zip(xs, ys):
                reports += 1
                crossings += not (x0 <= x < x1 and y0 <= y < y1)
                assert min(abs(x - BORDER), abs(y - BORDER)) <= 100.0
        if reports > 500:  # a whole update group, not a warm-up remnant
            shares.append(crossings / reports)
    # Every update group is the same kind of burst: about half its objects hop.
    assert len(shares) >= 20 and all(0.4 <= share <= 0.6 for share in shares)


def test_strata_are_exact_and_nn_probes_find_someone_in_the_first_ring():
    for seed in (1, 2):
        inputs = generate("query_mix_tcp", seed, SECONDS)
        subs = [op.sub for group in inputs.timed for op in group if op.kind != "update"]
        assert abs(subs.count("pos_local") / len(subs) - 0.32) < 0.01
        assert abs(subs.count("nn_remote") / len(subs) - 0.04) < 0.01
    inputs = generate("handover_burst_udp", 1, SECONDS, "smoke")
    xs, ys = inputs.start_xs, inputs.start_ys
    for op in _ops(inputs):
        if op.kind == "nn":
            # Objects move <= 5 m a tick or mirror; the probe stood within
            # 20 m of one of them, and every one stays within 100 m of a border.
            assert op.sub == "nn_remote"
            assert min(abs(op.arg[0] - BORDER), abs(op.arg[1] - BORDER)) < workloads.NN_RADIUS
    assert len(xs) == len(ys) == 10_000


def test_in_leaf_steps_never_leave_the_agent():
    inputs = generate("steady_update_udp", 3, SECONDS, "smoke")
    leaves = dict(inputs.leaves)
    for op in _ops(inputs):
        if op.kind == "update":
            x0, y0, x1, y1 = leaves[op.entry]
            assert all(x0 < x < x1 for x in op.arg[2]) and all(y0 < y < y1 for y in op.arg[3])

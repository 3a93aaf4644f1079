"""The disturbance filter and the throughput arithmetic."""

import metrics
from driver import GroupSample, Record
from workloads import Op


def group(wall, subs, latency=0.010):
    records = [
        Record(Op(sub.split("_")[0], sub, "root.0", ((1.0, [0] * 100, [], []) if sub == "update" else 0)), 0.0, latency, True, None)
        for sub in subs
    ]
    reports = 100 * subs.count("update")
    return GroupSample(records, wall, reports, len(subs) - subs.count("update"))


def test_only_the_fastest_third_of_each_kind_of_group_is_kept():
    updates = [group(wall, ["update"] * 10) for wall in (1.0, 1.5, 1.1, 3.0, 1.2, 1.3)]
    queries = [group(wall, ["pos_local"] * 10) for wall in (0.2, 0.1, 0.4)]
    kept = metrics.undisturbed(updates + queries)
    assert sorted(sample.wall for sample in kept) == [0.1, 1.0, 1.1]


def test_groups_are_ranked_against_what_their_operations_usually_cost():
    # Twice the operations in twice the time is not a disturbed group.
    small = [group(1.0, ["update"] * 10), group(1.4, ["update"] * 10), group(1.5, ["update"] * 10)]
    large = [group(2.0, ["update"] * 20), group(2.2, ["update"] * 20), group(2.4, ["update"] * 20)]
    kept = metrics.undisturbed(small + large)
    assert sorted(sample.wall for sample in kept) == [1.0, 2.0]


def test_throughput_is_work_over_wall_of_the_groups_that_carry_it():
    samples = [group(1.0, ["update"] * 10), group(1.2, ["update"] * 10), group(0.5, ["pos_local"] * 50)]
    values, counts = metrics.end_to_end(samples, [3.0, 1.0, 2.0])
    assert values["setup_s"] == 2.0
    assert values["reports_per_s"] == 1000.0  # one of the two update groups kept
    assert values["queries_per_s"] == 100.0
    assert values["update_p50_ms"] == 10.0 and counts["update_p50_ms"] == 10
    assert set(values) == {name for name, *_ in metrics.END_TO_END}

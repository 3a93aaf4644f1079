"""Message-flow tests on the paper's Fig. 6 example hierarchy.

Fig. 6 narrates three scenarios on a 3-level, 7-server tree (s1 root;
s2/s3 middle; s4..s7 leaves).  These tests reconstruct the exact flows
the paper describes and assert which servers participate.

Leaf layout (1000 m service area): s4 = SW quarter (west-bottom),
s5 = NW, s6 = SE, s7 = NE — see ``build_fig6_hierarchy``.
"""

import pytest

from repro.core import LocationService, build_fig6_hierarchy
from repro.geo import Point, Rect


@pytest.fixture
def svc():
    return LocationService(build_fig6_hierarchy())


def handled(svc, server_id, message_type):
    return svc.servers[server_id].stats.messages_handled.get(message_type, 0)


class TestFig6Handover:
    """Panel 1: s4 detects a departure; s2 redirects to s5 (not via root)."""

    def test_handover_within_s2_does_not_touch_root(self, svc):
        # Object in s4 (west-bottom), moving north into s5 (west-top):
        # the common ancestor is s2, so s1 must stay uninvolved.
        obj = svc.register("walker", Point(100, 100))
        assert obj.agent == "s4"
        svc.network.stats.reset()
        svc.update(obj, Point(100, 700))
        svc.settle()
        assert obj.agent == "s5"
        assert handled(svc, "s2", "HandoverBatchReq") == 1
        assert handled(svc, "s1", "HandoverBatchReq") == 0
        assert handled(svc, "s5", "HandoverBatchReq") == 1
        svc.check_consistency()

    def test_handover_across_root(self, svc):
        # s4 (west) to s6 (east-bottom): must go s4→s2→s1→s3→s6.
        obj = svc.register("walker", Point(100, 100))
        svc.update(obj, Point(700, 100))
        svc.settle()
        assert obj.agent == "s6"
        assert handled(svc, "s2", "HandoverBatchReq") == 1
        assert handled(svc, "s1", "HandoverBatchReq") == 1
        assert handled(svc, "s3", "HandoverBatchReq") == 1
        svc.check_consistency()

    def test_forwarding_path_after_handover(self, svc):
        obj = svc.register("walker", Point(100, 100))
        svc.update(obj, Point(100, 700))
        svc.settle()
        assert svc.servers["s1"].visitors.forward_ref("walker") == "s2"
        assert svc.servers["s2"].visitors.forward_ref("walker") == "s5"
        assert "walker" not in svc.servers["s4"].visitors


class TestFig6PositionQuery:
    """Panel 2: query issued at s4 for an object residing at s6."""

    def test_query_forwarded_to_root_then_down(self, svc):
        svc.register("target", Point(700, 100))  # agent s6
        svc.network.stats.reset()
        ld = svc.pos_query("target", entry_server="s4")
        assert ld is not None
        # The fwd visits s2 (no record) → s1 (record) → s3 → s6.
        assert handled(svc, "s2", "PosQueryFwd") == 1
        assert handled(svc, "s1", "PosQueryFwd") == 1
        assert handled(svc, "s3", "PosQueryFwd") == 1
        assert handled(svc, "s6", "PosQueryFwd") == 1
        # s6 answers the entry server directly (one answer message total,
        # consumed by s4's parked query future).
        assert svc.network.stats.by_type.get("PosQueryAnswer", 0) == 1

    def test_query_stops_at_s2_for_sibling_leaf(self, svc):
        """Paper: "if the object had been located in the service area of
        s5, the request would have been forwarded only up to s2"."""
        svc.register("target", Point(100, 700))  # agent s5
        svc.network.stats.reset()
        ld = svc.pos_query("target", entry_server="s4")
        assert ld is not None
        assert handled(svc, "s2", "PosQueryFwd") == 1
        assert handled(svc, "s1", "PosQueryFwd") == 0


class TestFig6RangeQuery:
    """Panel 3: range query at s4 over an area spanning s6 and s7."""

    def test_range_spanning_s6_s7(self, svc):
        svc.register("a", Point(700, 200))  # s6
        svc.register("b", Point(700, 800))  # s7
        svc.register("c", Point(100, 100))  # s4 — outside the queried area
        svc.network.stats.reset()
        # The eastern strip: overlaps s6 and s7 only.
        answer = svc.range_query(
            Rect(600, 50, 950, 950), req_acc=50.0, req_overlap=0.5, entry_server="s4"
        )
        ids = {oid for oid, _ in answer.entries}
        assert ids == {"a", "b"}
        # The query propagates up to s1 (the first server covering the
        # area), down through s3 to s6 and s7, which answer s4 directly.
        assert handled(svc, "s3", "RangeQueryBatchFwd") == 1
        assert handled(svc, "s6", "RangeQueryBatchFwd") == 1
        assert handled(svc, "s7", "RangeQueryBatchFwd") == 1
        assert handled(svc, "s4", "RangeQueryBatchSubRes") == 2

    def test_local_range_stays_in_leaf(self, svc):
        svc.register("a", Point(100, 100))
        svc.network.stats.reset()
        answer = svc.range_query(
            Rect(50, 50, 200, 200), req_acc=50.0, req_overlap=0.5, entry_server="s4"
        )
        assert {oid for oid, _ in answer.entries} == {"a"}
        # Entirely inside s4: no forwarding at all.
        assert svc.network.stats.by_type.get("RangeQueryBatchFwd", 0) == 0

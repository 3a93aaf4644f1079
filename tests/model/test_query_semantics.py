"""Tests for the exact query semantics of Section 3.2.

``TestFigure3`` and ``TestFigure4`` reconstruct the paper's worked
examples (its Figures 3 and 4) as concrete geometric scenarios and assert
the inclusion/exclusion outcomes the figures depict.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geo import Point, Polygon, Rect, region_bounds
from repro.geo.circle import circle_polygon_areas
from repro.model import (
    InvalidQueryError,
    LocationDescriptor,
    NearestNeighborQuery,
    RangeQuery,
    candidate_bounds,
    effective_margin,
    nearest_neighbor,
    overlap,
    overlap_reach,
    qualifies_for_range,
    qualifying_indexes,
    range_query,
)
from repro.model import queries as queries_module

AREA = Rect(0, 0, 100, 100)


def ld(x, y, acc):
    return LocationDescriptor(Point(x, y), acc)


class TestQueryValidation:
    def test_overlap_zero_rejected(self):
        with pytest.raises(InvalidQueryError):
            RangeQuery(AREA, req_overlap=0.0)

    def test_overlap_above_one_rejected(self):
        with pytest.raises(InvalidQueryError):
            RangeQuery(AREA, req_overlap=1.5)

    def test_negative_acc_rejected(self):
        with pytest.raises(InvalidQueryError):
            RangeQuery(AREA, req_acc=-1.0)

    def test_negative_near_qual_rejected(self):
        with pytest.raises(InvalidQueryError):
            NearestNeighborQuery(Point(0, 0), near_qual=-0.1)


class TestOverlap:
    def test_fully_inside_is_one(self):
        assert overlap(AREA, ld(50, 50, 10)) == pytest.approx(1.0)

    def test_fully_outside_is_zero(self):
        assert overlap(AREA, ld(500, 500, 10)) == 0.0

    def test_center_on_edge_is_half(self):
        assert overlap(AREA, ld(100, 50, 10)) == pytest.approx(0.5)

    def test_center_on_corner_is_quarter(self):
        assert overlap(AREA, ld(0, 0, 10)) == pytest.approx(0.25)

    def test_zero_accuracy_point_semantics(self):
        assert overlap(AREA, ld(50, 50, 0)) == 1.0
        assert overlap(AREA, ld(150, 50, 0)) == 0.0

    def test_polygon_area(self):
        triangle = Polygon([Point(0, 0), Point(100, 0), Point(0, 100)])
        assert overlap(triangle, ld(10, 10, 5)) == pytest.approx(1.0)
        assert overlap(triangle, ld(90, 90, 5)) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=80)
    @given(
        st.floats(min_value=-200, max_value=300),
        st.floats(min_value=-200, max_value=300),
        st.floats(min_value=0.1, max_value=100),
    )
    def test_overlap_in_unit_interval(self, x, y, acc):
        value = overlap(AREA, ld(x, y, acc))
        assert 0.0 <= value <= 1.0


class TestFigure3:
    """The paper's range-query example: area a, reqOverlap=0.3, reqAcc.

    o1 fully inside (100% overlap)          -> included
    o2 fully outside                         -> not included
    o3 overlap ~50% (>= threshold)           -> included
    o4 overlap ~10% (< threshold)            -> not included
    o5 inside but accuracy worse than reqAcc -> not included
    """

    REQ_ACC = 50.0
    REQ_OVERLAP = 0.3

    ENTRIES = [
        ("o1", ld(50, 50, 10)),    # 100 % overlap
        ("o2", ld(200, 200, 10)),  # 0 % overlap
        ("o3", ld(100, 50, 10)),   # centered on the boundary: 50 %
        ("o4", ld(108, 50, 10)),   # mostly outside: ~5-10 %
        ("o5", ld(50, 50, 60)),    # insufficient accuracy (60 > reqAcc 50)
    ]

    def query(self):
        return RangeQuery(AREA, req_acc=self.REQ_ACC, req_overlap=self.REQ_OVERLAP)

    def test_membership_matches_figure(self):
        result = range_query(self.ENTRIES, self.query())
        assert [oid for oid, _ in result] == ["o1", "o3"]

    def test_o4_fails_on_overlap_not_accuracy(self):
        entry = dict(self.ENTRIES)["o4"]
        assert entry.acc <= self.REQ_ACC
        assert overlap(AREA, entry) < self.REQ_OVERLAP

    def test_o5_fails_on_accuracy_alone(self):
        entry = dict(self.ENTRIES)["o5"]
        assert overlap(AREA, entry) > self.REQ_OVERLAP
        assert not qualifies_for_range(AREA, entry, self.REQ_ACC, self.REQ_OVERLAP)

    def test_lower_threshold_admits_o4(self):
        query = RangeQuery(AREA, req_acc=self.REQ_ACC, req_overlap=0.01)
        result = range_query(self.ENTRIES, query)
        assert "o4" in [oid for oid, _ in result]


class TestFigure4:
    """The paper's nearest-neighbor example.

    Probe p at the origin; o is nearest among accuracy-qualifying
    objects; o1 falls inside the nearQual ring, o2 outside it, o3 is
    ignored for insufficient accuracy even though it is closest.
    """

    REQ_ACC = 50.0
    NEAR_QUAL = 60.0

    ENTRIES = [
        ("o", ld(100, 0, 30)),
        ("o1", ld(140, 0, 30)),   # 140 <= 100 + 60 -> in nearObjSet
        ("o2", ld(300, 0, 30)),   # 300 >  100 + 60 -> out
        ("o3", ld(50, 0, 80)),    # closest, but acc 80 > reqAcc 50
    ]

    def query(self, near_qual=None):
        return NearestNeighborQuery(
            Point(0, 0),
            req_acc=self.REQ_ACC,
            near_qual=self.NEAR_QUAL if near_qual is None else near_qual,
        )

    def test_selected_object(self):
        result = nearest_neighbor(self.ENTRIES, self.query())
        assert result.nearest is not None
        assert result.nearest[0] == "o"

    def test_near_set_membership(self):
        result = nearest_neighbor(self.ENTRIES, self.query())
        assert [oid for oid, _ in result.near_set] == ["o1"]

    def test_guaranteed_minimal_distance(self):
        result = nearest_neighbor(self.ENTRIES, self.query())
        assert result.guaranteed_min_distance == pytest.approx(100.0 - self.REQ_ACC)

    def test_near_qual_zero_gives_empty_set(self):
        result = nearest_neighbor(self.ENTRIES, self.query(near_qual=0.0))
        assert result.near_set == ()

    def test_no_qualifying_objects(self):
        result = nearest_neighbor(
            [("bad", ld(10, 0, 500))], NearestNeighborQuery(Point(0, 0), req_acc=50.0)
        )
        assert result.nearest is None
        assert result.near_set == ()


class TestRangeQueryFunction:
    def test_empty_entries(self):
        assert range_query([], RangeQuery(AREA, req_overlap=0.5)) == []

    def test_accepts_dict_input(self):
        entries = {"a": ld(50, 50, 5), "b": ld(500, 500, 5)}
        result = range_query(entries, RangeQuery(AREA, req_overlap=0.5))
        assert [oid for oid, _ in result] == ["a"]

    def test_result_sorted_by_id(self):
        entries = [("z", ld(10, 10, 1)), ("a", ld(20, 20, 1)), ("m", ld(30, 30, 1))]
        result = range_query(entries, RangeQuery(AREA, req_overlap=0.5))
        assert [oid for oid, _ in result] == ["a", "m", "z"]

    def test_candidate_bounds_enlarges_by_req_acc(self):
        # Enlarge(area, reqAcc), scaled by how far outside a half-plane a
        # disk's centre can sit at this threshold (plus a rounding hair).
        query = RangeQuery(Rect(0, 0, 100, 100), req_acc=25.0, req_overlap=0.1)
        reach = overlap_reach(0.1)
        assert 0.5 < reach < 1.0
        bounds = candidate_bounds(query)
        assert bounds.min_x == bounds.min_y == pytest.approx(-25 * reach, abs=1e-3)
        assert bounds.max_x == bounds.max_y == pytest.approx(100 + 25 * reach, abs=1e-3)
        assert bounds.contains_rect(Rect(0, 0, 100, 100).enlarged(25 * reach))
        # The Enlarge margin itself (the entry server's dispatch rect) is
        # untouched; a store whose coarsest object offers 10 m scans less.
        assert effective_margin(query) == 25.0
        tight = candidate_bounds(query, max_acc=10.0)
        assert tight.min_x == pytest.approx(-10 * reach, abs=1e-3)
        # From one half upward only disks centred inside the area qualify.
        half = candidate_bounds(RangeQuery(Rect(0, 0, 100, 100), req_acc=25.0, req_overlap=0.5))
        assert half.min_x == pytest.approx(0.0, abs=1e-3) and half.min_x < 0.0

    def test_candidate_bounds_unbounded_acc_still_finite(self):
        # With unbounded reqAcc, the overlap threshold itself caps the
        # qualifying radius at sqrt(SIZE(A) / (pi * reqOverlap)).
        query = RangeQuery(AREA, req_overlap=0.25)
        radius_cap = (AREA.area / (0.25 * math.pi)) ** 0.5
        assert effective_margin(query) == pytest.approx(radius_cap)
        expected_margin = radius_cap * overlap_reach(0.25)
        bounds = candidate_bounds(query)
        assert bounds.min_x == pytest.approx(-expected_margin, abs=1e-3)
        assert bounds.max_x == pytest.approx(100 + expected_margin, abs=1e-3)

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-150, max_value=250),
                st.floats(min_value=-150, max_value=250),
                st.floats(min_value=0, max_value=60),
            ),
            max_size=20,
        ),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0, max_value=100),
    )
    def test_members_always_within_enlarged_area(self, raw, req_overlap, req_acc):
        entries = [(f"o{i}", ld(x, y, a)) for i, (x, y, a) in enumerate(raw)]
        query = RangeQuery(AREA, req_acc=req_acc, req_overlap=req_overlap)
        result = range_query(entries, query)
        bounds = candidate_bounds(query)
        assert bounds is not None
        for _, descriptor in result:
            # Any qualifying object's position must lie inside the
            # Enlarge(area, reqAcc) rect — this is exactly why Algorithm
            # 6-5 enlarges before comparing with service areas.
            assert bounds.contains_point(descriptor.pos)

    @settings(max_examples=60)
    @given(st.floats(min_value=0.05, max_value=1.0), st.floats(min_value=0.05, max_value=1.0))
    def test_monotone_in_threshold(self, t1, t2):
        entries = [
            ("a", ld(50, 50, 20)),
            ("b", ld(100, 50, 20)),
            ("c", ld(110, 50, 20)),
            ("d", ld(95, 95, 30)),
        ]
        lo, hi = sorted((t1, t2))
        loose = {oid for oid, _ in range_query(entries, RangeQuery(AREA, req_overlap=lo))}
        strict = {oid for oid, _ in range_query(entries, RangeQuery(AREA, req_overlap=hi))}
        assert strict <= loose


# A queried area anywhere within +-1e6 m (the magnitude drawn by decade):
# a rect, or a star-shaped (generally non-convex) polygon inscribed in it.
@st.composite
def areas(draw):
    far = 10.0 ** draw(st.integers(min_value=0, max_value=6))
    x = far * draw(st.floats(min_value=-1.0, max_value=1.0))
    y = far * draw(st.floats(min_value=-1.0, max_value=1.0))
    w = draw(st.floats(min_value=1e-2, max_value=1e4))
    h = draw(st.floats(min_value=1e-2, max_value=1e4))
    spokes = draw(st.lists(st.floats(min_value=0.2, max_value=1.0), min_size=0, max_size=8))
    if len(spokes) < 3:
        return Rect(x, y, x + w, y + h)
    step = 2 * math.pi / len(spokes)
    try:
        return Polygon(
            [
                Point(x + w / 2 * (1 + f * math.cos(i * step)), y + h / 2 * (1 + f * math.sin(i * step)))
                for i, f in enumerate(spokes)
            ]
        )
    except GeometryError:  # a sliver the constructor refuses
        return Rect(x, y, x + w, y + h)


# A disk placed relative to the area's bounding box: ``along`` one of its
# four sides, its centre ``out`` radii outside it (negative: inside).
disks = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=-0.2, max_value=1.2),
    st.floats(min_value=-2.0, max_value=1.1),
    st.floats(min_value=-6, max_value=4).map(lambda e: 10.0**e),
)
req_overlaps = st.one_of(
    st.floats(min_value=1e-9, max_value=1.0),
    st.floats(min_value=-9, max_value=0).map(lambda e: 10.0**e),
    st.sampled_from([1e-9, 0.3, 0.5, 1.0]),
)


def place(area, disk):
    side, along, out, radius = disk
    box = region_bounds(area)
    if side < 2:
        x = box.min_x - out * radius if side == 0 else box.max_x + out * radius
        return ld(x, box.min_y + along * box.height, radius)
    y = box.min_y - out * radius if side == 2 else box.max_y + out * radius
    return ld(box.min_x + along * box.width, y, radius)


def scalar_members(area, descriptors, req_acc, req_overlap):
    return [
        i
        for i, d in enumerate(descriptors)
        if qualifies_for_range(area, d, req_acc, req_overlap)
    ]


def batch_members(area, descriptors, req_acc, req_overlap):
    return qualifying_indexes(
        area,
        [d.pos.x for d in descriptors],
        [d.pos.y for d in descriptors],
        [d.acc for d in descriptors],
        req_acc,
        req_overlap,
    )


class TestScanBoundsAndBatchFilter:
    """The two things that make the tight scan and the array filter safe:
    no member lies outside ``candidate_bounds``, and the batch filter's
    verdicts are the scalar predicate's."""

    @settings(max_examples=400, deadline=None)
    @given(
        areas(),
        disks,
        req_overlaps,
        st.floats(min_value=0.9, max_value=1.0),
        st.sampled_from([1.0, 1.0000001, 3.0, math.inf]),
    )
    def test_members_always_within_candidate_bounds(self, area, disk, req_overlap, edge, slack):
        # the drawn disk, and the same disk moved onto the edge of the reach
        on_edge = (disk[0], disk[1], overlap_reach(req_overlap) * edge, disk[3])
        for descriptor in (place(area, disk), place(area, on_edge)):
            for req_acc in (descriptor.acc, math.inf):
                if qualifies_for_range(area, descriptor, req_acc, req_overlap):
                    query = RangeQuery(area, req_acc=req_acc, req_overlap=req_overlap)
                    bounds = candidate_bounds(query, max_acc=descriptor.acc * slack)
                    assert bounds.contains_point(descriptor.pos)

    @pytest.mark.parametrize(
        "area, pos, acc, req_overlap",
        [
            (Rect(53.9, 132.4, 76.4, 281.4), Point(76.40000055596528, 270.35142595367597), 5.9e-07, 0.7),
            (Rect(129.1, -141.9, 145.79999999999998, 18.299999999999983),
             Point(145.80000064471562, -1.5483779627174954), 6.9e-07, 0.5),
            (Rect(-451.9, 1432.1, -450.5, 3106.5), Point(-450.4999923319103, 3038.7947949795625), 8.2e-06, 0.3),
        ],
    )
    def test_bounds_keep_what_scalar_rounding_lets_in(self, area, pos, acc, req_overlap):
        # A micrometre disk beside a kilometre edge: ``overlap`` loses its
        # digits and admits a disk whose centre is 0.6-0.94 radii outside,
        # where geometry allows none (0.7, 0.5) or 0.32 (0.3).  The scan's
        # hair exists so that what the predicate admits is still fetched.
        descriptor = LocationDescriptor(pos, acc)
        assert qualifies_for_range(area, descriptor, acc, req_overlap)
        assert (pos.x - area.max_x) / acc > overlap_reach(req_overlap) + 0.25
        query = RangeQuery(area, req_acc=acc, req_overlap=req_overlap)
        assert candidate_bounds(query, max_acc=acc).contains_point(pos)

    def test_overlap_reach_endpoints(self):
        assert overlap_reach(1e-15) == pytest.approx(1.0, abs=1e-6)
        assert overlap_reach(0.5) == overlap_reach(0.75) == overlap_reach(1.0) == 0.0
        assert 0.0 < overlap_reach(0.4999) < 0.01

    @given(st.floats(min_value=1e-12, max_value=0.5), st.floats(min_value=1e-12, max_value=0.5))
    def test_overlap_reach_monotone_and_on_the_safe_side(self, a, b):
        lo, hi = sorted((a, b))
        assert 1.0 >= overlap_reach(lo) >= overlap_reach(hi) >= 0.0
        # the segment beyond the returned distance is no more than asked
        t = overlap_reach(lo)
        assert (math.acos(t) - t * math.sqrt(1 - t * t)) / math.pi <= lo

    @settings(max_examples=200, deadline=None)
    @given(
        areas(),
        st.lists(st.tuples(disks, st.floats(min_value=1e-3, max_value=10.0)), min_size=1, max_size=12),
    )
    def test_array_overlap_agrees_with_scalar_inside_the_guard(self, area, raw):
        # the flat guard's regime: disks not tiny against the area's extent
        box = region_bounds(area)
        descriptors = [
            place(area, (*disk[:3], (box.width + box.height) * size)) for disk, size in raw
        ]
        radius = np.array([d.acc for d in descriptors])
        estimates = circle_polygon_areas(
            np,
            np.array([d.pos.x for d in descriptors]),
            np.array([d.pos.y for d in descriptors]),
            radius,
            area.corners if isinstance(area, Rect) else area.points,
        ) / (math.pi * radius * radius)
        for descriptor, estimate in zip(descriptors, estimates):
            assert min(estimate, 1.0) == pytest.approx(
                overlap(area, descriptor), abs=queries_module._OVERLAP_GUARD
            )

    @settings(max_examples=300, deadline=None)
    @given(
        areas(),
        st.lists(disks, min_size=1, max_size=12),
        st.integers(min_value=-2, max_value=2),
        st.sampled_from([0.0, 1e-3, 1.0, 50.0, math.inf]),
    )
    def test_candidate_on_the_threshold_gets_the_scalar_verdict(self, area, raw, ulps, req_acc):
        descriptors = [place(area, disk) for disk in raw] + [ld(*region_bounds(area).center, 0.0)]
        # put the threshold on (or a few ulps beside) the first disk's overlap
        req_overlap = overlap(area, descriptors[0])
        for _ in range(abs(ulps)):
            req_overlap = math.nextafter(req_overlap, math.inf if ulps > 0 else 0.0)
        assume(0.0 < req_overlap <= 1.0)
        assert batch_members(area, descriptors, req_acc, req_overlap) == scalar_members(
            area, descriptors, req_acc, req_overlap
        )

    @settings(max_examples=200, deadline=None)
    @given(areas(), st.lists(disks, max_size=30), req_overlaps)
    def test_batch_filter_equals_scalar_filter(self, area, raw, req_overlap):
        descriptors = [place(area, disk) for disk in raw]
        for req_acc in (math.inf, 1.0):
            assert batch_members(area, descriptors, req_acc, req_overlap) == scalar_members(
                area, descriptors, req_acc, req_overlap
            )


class TestNearestNeighborProperties:
    @settings(max_examples=80)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-500, max_value=500),
                st.floats(min_value=-500, max_value=500),
                st.floats(min_value=0, max_value=50),
            ),
            min_size=1,
            max_size=25,
        ),
        st.floats(min_value=-200, max_value=200),
        st.floats(min_value=-200, max_value=200),
    )
    def test_two_req_acc_ring_guarantee(self, raw, px, py):
        """nearQual = 2*reqAcc includes every potentially-closer object."""
        req_acc = 50.0
        probe = Point(px, py)
        entries = [(f"o{i}", ld(x, y, a)) for i, (x, y, a) in enumerate(raw)]
        result = nearest_neighbor(
            entries, NearestNeighborQuery(probe, req_acc=req_acc, near_qual=2 * req_acc)
        )
        assert result.nearest is not None
        nearest_id, nearest_ld = result.nearest
        d_nearest = nearest_ld.pos.distance_to(probe)
        near_ids = {oid for oid, _ in result.near_set}
        for oid, descriptor in entries:
            if oid == nearest_id or descriptor.acc > req_acc:
                continue
            d = descriptor.pos.distance_to(probe)
            could_be_closer = d - descriptor.acc <= d_nearest + nearest_ld.acc
            if could_be_closer:
                assert oid in near_ids

    @settings(max_examples=80)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-500, max_value=500),
                st.floats(min_value=-500, max_value=500),
                st.floats(min_value=0, max_value=50),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_nearest_minimises_recorded_distance(self, raw):
        probe = Point(0, 0)
        entries = [(f"o{i}", ld(x, y, a)) for i, (x, y, a) in enumerate(raw)]
        result = nearest_neighbor(entries, NearestNeighborQuery(probe, req_acc=100.0))
        if result.nearest is None:
            return
        d_selected = result.nearest[1].pos.distance_to(probe)
        for _, descriptor in entries:
            if descriptor.acc <= 100.0:
                assert d_selected <= descriptor.pos.distance_to(probe) + 1e-9

    def test_guaranteed_distance_floor_zero(self):
        result = nearest_neighbor(
            [("close", ld(5, 0, 2))], NearestNeighborQuery(Point(0, 0), req_acc=50.0)
        )
        assert result.guaranteed_min_distance == 0.0

    def test_guaranteed_distance_with_infinite_req_acc(self):
        result = nearest_neighbor(
            [("a", ld(100, 0, 2))], NearestNeighborQuery(Point(0, 0))
        )
        assert result.guaranteed_min_distance == 0.0

    def test_tie_broken_by_id(self):
        entries = [("b", ld(10, 0, 1)), ("a", ld(-10, 0, 1))]
        result = nearest_neighbor(entries, NearestNeighborQuery(Point(0, 0)))
        assert result.nearest[0] == "a"

    def test_near_set_sorted_by_distance(self):
        entries = [
            ("n", ld(10, 0, 1)),
            ("far", ld(50, 0, 1)),
            ("mid", ld(30, 0, 1)),
        ]
        result = nearest_neighbor(
            entries, NearestNeighborQuery(Point(0, 0), near_qual=100.0)
        )
        distances = [e[1].pos.distance_to(Point(0, 0)) for e in result.near_set]
        assert distances == sorted(distances)

"""Box overlap, size buckets, optimal assignment, greedy matching."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from playlog import (
    Assignment,
    BoundingBox,
    InvariantError,
    SizeBucket,
    hungarian_assign,
    iou,
    iou_matrix,
    match_detections,
    size_bucket,
)

from oracles import brute_force_assignment, ref_greedy_match, ref_iou


def box(x, y, w, h):
    return BoundingBox(x, y, w, h)


class TestIou:
    def test_half_shift(self):
        # 10x10 boxes overlapping by 5: 50 / (100 + 100 - 50)
        assert iou(box(0, 0, 10, 10), box(5, 0, 10, 10)) == pytest.approx(1 / 3)

    def test_identical(self):
        assert iou(box(2, 3, 7, 11), box(2, 3, 7, 11)) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 10, 10), box(20, 20, 5, 5)) == 0.0

    def test_edge_touch_is_zero(self):
        assert iou(box(0, 0, 10, 10), box(10, 0, 10, 10)) == 0.0

    def test_corner_touch_is_zero(self):
        assert iou(box(0, 0, 10, 10), box(10, 10, 10, 10)) == 0.0

    def test_containment(self):
        assert iou(box(0, 0, 10, 10), box(2, 2, 5, 5)) == pytest.approx(25 / 100)

    def test_symmetry_and_reference_agreement(self):
        rng = random.Random(41)
        for _ in range(500):
            a = (rng.randint(0, 50), rng.randint(0, 50), rng.randint(1, 40), rng.randint(1, 40))
            b = (rng.randint(0, 50), rng.randint(0, 50), rng.randint(1, 40), rng.randint(1, 40))
            got = iou(box(*a), box(*b))
            assert got == iou(box(*b), box(*a))
            assert got == pytest.approx(ref_iou(a, b), abs=1e-12)
            assert 0.0 <= got <= 1.0


# Coordinates on a coarse integer grid make touching edges, shared corners
# and containment common; the fractional ones exercise rounding.
coordinates = st.one_of(
    st.integers(0, 12),
    st.floats(0, 50, allow_nan=False, allow_infinity=False),
    st.integers(0, 400).map(lambda k: k / 8),
)
extents = st.one_of(
    st.integers(1, 12),
    st.floats(0.001, 50, allow_nan=False, allow_infinity=False),
    st.integers(1, 400).map(lambda k: k / 8),
)
boxes = st.builds(BoundingBox, coordinates, coordinates, extents, extents)


@st.composite
def box_pairs(draw):
    a = draw(st.lists(boxes, max_size=6))
    # b may reuse a's boxes, so identical pairs come up
    b = draw(st.lists(st.one_of(boxes, st.sampled_from(a)) if a else boxes, max_size=6))
    return a, b


class TestIouMatrix:
    @settings(max_examples=300, deadline=None)
    @given(box_pairs())
    @example(([box(0, 0, 10, 10)], [box(10, 0, 10, 10), box(10, 10, 10, 10)]))  # edge and corner touch
    @example(([box(0, 0, 10, 10)], [box(2, 2, 5, 5), box(0, 0, 10, 10)]))  # containment, identical
    @example(([box(0.1, 0.2, 0.3, 0.7)], [box(0.2, 0.1, 0.7, 0.3)]))  # fractional
    def test_every_entry_is_the_scalar_iou(self, pair):
        a, b = pair
        got = iou_matrix(a, b)
        assert got.shape == (len(a), len(b))
        assert got.dtype == np.float64
        for i, p in enumerate(a):
            for j, q in enumerate(b):
                assert got[i, j] == iou(p, q), (p, q)

    @pytest.mark.parametrize("n, m", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, n, m):
        a = [box(i, 0, 10, 10) for i in range(n)]
        b = [box(0, i, 10, 10) for i in range(m)]
        assert iou_matrix(a, b).shape == (n, m)


class TestSizeBucket:
    @pytest.mark.parametrize(
        "w,h,expected",
        [
            (31, 31, SizeBucket.EXCLUDED),  # 961
            (31, 33, SizeBucket.EXCLUDED),  # 1023, just under the floor
            (32, 32, SizeBucket.SMALL),  # exactly 1024
            (64, 64, SizeBucket.SMALL),
            (96, 96, SizeBucket.SMALL),  # exactly 9216 still small
            (96, 97, SizeBucket.LARGE),  # 9312
            (100, 100, SizeBucket.LARGE),
        ],
    )
    def test_boundaries(self, w, h, expected):
        assert size_bucket(box(0, 0, w, h)) is expected

    def test_position_irrelevant(self):
        assert size_bucket(box(500, 700, 32, 32)) is SizeBucket.SMALL


class TestHungarian:
    def test_two_by_two(self):
        result = hungarian_assign([[1, 2], [2, 1]])
        assert result.pairs == ((0, 0), (1, 1))
        assert result.total_cost == 2.0

    def test_zero_diagonal(self):
        result = hungarian_assign([[0, 1], [1, 0]])
        assert result.pairs == ((0, 0), (1, 1))
        assert result.total_cost == 0.0

    def test_single_row(self):
        result = hungarian_assign([[5, 1, 3]])
        assert result.pairs == ((0, 1),)
        assert result.total_cost == 1.0

    def test_single_column(self):
        result = hungarian_assign([[5], [1], [3]])
        assert result.pairs == ((1, 0),)
        assert result.total_cost == 1.0

    def test_rectangular_wide(self):
        # 2 rows, 4 cols: best picks are 0 at (0,3) and 1 at (1,0)
        result = hungarian_assign([[9, 8, 7, 0], [1, 9, 9, 9]])
        assert result.total_cost == 1.0
        assert result.pairs == ((0, 3), (1, 0))

    def test_negative_costs(self):
        result = hungarian_assign([[-5, 0], [0, -5]])
        assert result.total_cost == -10.0
        assert result.pairs == ((0, 0), (1, 1))

    @pytest.mark.parametrize("bad", [[], [[]], [[1, 2], [3]], [[float("nan")]], [[float("inf"), 1]]])
    def test_rejects_malformed(self, bad):
        with pytest.raises(InvariantError):
            hungarian_assign(bad)

    def test_matches_brute_force_integer(self):
        rng = random.Random(1003)
        for _ in range(300):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            cost = [[rng.randint(-20, 20) for _ in range(m)] for _ in range(n)]
            result = hungarian_assign(cost)
            expected_total, _ = brute_force_assignment(cost)
            assert result.total_cost == pytest.approx(expected_total, abs=1e-9)
            assert sum(cost[r][c] for r, c in result.pairs) == pytest.approx(result.total_cost, abs=1e-9)
            assert len(result.pairs) == min(n, m)

    def test_matches_brute_force_float(self):
        rng = random.Random(1004)
        for _ in range(200):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            cost = [[rng.uniform(-3, 3) for _ in range(m)] for _ in range(n)]
            result = hungarian_assign(cost)
            expected_total, _ = brute_force_assignment(cost)
            assert result.total_cost == pytest.approx(expected_total, abs=1e-9)


class TestAssignment:
    def test_duplicate_row_rejected(self):
        with pytest.raises(InvariantError):
            Assignment(pairs=((0, 0), (0, 1)), total_cost=0.0)

    def test_duplicate_col_rejected(self):
        with pytest.raises(InvariantError):
            Assignment(pairs=((0, 1), (1, 1)), total_cost=0.0)


class TestMatchDetections:
    def test_highest_score_claims_contested_gt(self):
        gt = [box(0, 0, 10, 10)]
        preds = [(box(1, 0, 10, 10), 0.6), (box(0, 0, 10, 10), 0.9)]
        assert match_detections(preds, gt, 0.5) == [None, 0]

    def test_score_tie_prefers_lower_index(self):
        gt = [box(0, 0, 10, 10)]
        preds = [(box(0, 0, 10, 10), 0.7), (box(0, 0, 10, 10), 0.7)]
        assert match_detections(preds, gt, 0.5) == [0, None]

    def test_iou_tie_prefers_lower_gt_index(self):
        gts = [box(0, 0, 10, 10), box(0, 0, 10, 10)]
        preds = [(box(0, 0, 10, 10), 0.9)]
        assert match_detections(preds, gts, 0.5) == [0]

    def test_below_threshold_unmatched(self):
        gt = [box(0, 0, 10, 10)]
        preds = [(box(5, 0, 10, 10), 0.9)]  # IoU 1/3
        assert match_detections(preds, gt, 0.5) == [None]
        assert match_detections(preds, gt, 0.3) == [0]

    def test_threshold_is_inclusive(self):
        gt = [box(0, 0, 10, 10)]
        preds = [(box(0, 0, 10, 5), 0.9)]  # IoU exactly 0.5
        assert match_detections(preds, gt, 0.5) == [0]

    def test_empty_sides(self):
        assert match_detections([], [box(0, 0, 5, 5)], 0.5) == []
        assert match_detections([(box(0, 0, 35, 35), 0.9)], [], 0.5) == [None]

    @pytest.mark.parametrize("threshold", [0.0, 1.5, -0.2])
    def test_threshold_range_enforced(self, threshold):
        with pytest.raises(InvariantError):
            match_detections([(box(0, 0, 5, 5), 0.5)], [box(0, 0, 5, 5)], threshold)

    def test_reference_agreement(self):
        rng = random.Random(77)
        for _ in range(300):
            gts_raw = [
                (rng.randint(0, 40), rng.randint(0, 40), rng.randint(5, 30), rng.randint(5, 30))
                for _ in range(rng.randint(0, 5))
            ]
            preds_raw = [
                (
                    (rng.randint(0, 40), rng.randint(0, 40), rng.randint(5, 30), rng.randint(5, 30)),
                    round(rng.random(), 2),
                )
                for _ in range(rng.randint(0, 6))
            ]
            t = rng.choice([0.3, 0.5, 0.75])
            got = match_detections(
                [(box(*b), s) for b, s in preds_raw], [box(*g) for g in gts_raw], t
            )
            assert got == ref_greedy_match(preds_raw, gts_raw, t)
            claimed = [g for g in got if g is not None]
            assert len(claimed) == len(set(claimed))

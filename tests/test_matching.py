"""Box overlap, size buckets, optimal assignment, greedy matching."""

import random
from fractions import Fraction
from unittest import mock

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
    match_detections,
    size_bucket,
)
from playlog import matching
from playlog.matching import detection_columns, match_frames
from playlog.metrics import IOU_THRESHOLDS

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

    def test_exact_int_boxes_beyond_the_float_range(self):
        # a record's box field at or above 2**53 is read as an exact int; with these boxes the
        # float union overflows, and iou gives the exact IoU rounded once
        big = int(1.7e308)
        wide = (0, 0, big, 2**53)
        for other in [(0.0, 0.0, 1.0, 1.0), (0.0, 0.0, big, float(2**53 - 2))]:
            a, b = box(*wide), box(*other)
            with pytest.raises(OverflowError):
                a.area + b.area - 1.0
            exact = float(ref_iou(tuple(map(Fraction, wide)), tuple(map(Fraction, other))))
            assert iou(a, b) == iou(b, a) == exact
        assert exact == 1 - 2.0**-52

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
    """matching._iou broadcast over every (a, b) pair, as the matcher takes it."""

    @staticmethod
    def pair_ious(a, b):
        return matching._iou(matching._box_array(a)[:, None, :], matching._box_array(b)[None, :, :])

    @settings(max_examples=300, deadline=None)
    @given(box_pairs())
    @example(([box(0, 0, 10, 10)], [box(10, 0, 10, 10), box(10, 10, 10, 10)]))  # edge and corner touch
    @example(([box(0, 0, 10, 10)], [box(2, 2, 5, 5), box(0, 0, 10, 10)]))  # containment, identical
    @example(([box(0.1, 0.2, 0.3, 0.7)], [box(0.2, 0.1, 0.7, 0.3)]))  # fractional
    def test_every_entry_is_the_scalar_iou(self, pair):
        a, b = pair
        got = self.pair_ious(a, b)
        assert got.shape == (len(a), len(b))
        assert got.dtype == np.float64
        for i, p in enumerate(a):
            for j, q in enumerate(b):
                assert got[i, j] == iou(p, q), (p, q)

    @pytest.mark.parametrize("n, m", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, n, m):
        a = [box(i, 0, 10, 10) for i in range(n)]
        b = [box(0, i, 10, 10) for i in range(m)]
        assert self.pair_ious(a, b).shape == (n, m)


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

    @pytest.mark.parametrize("bad", [
        [], [[]], [[1, 2], [3]], [[float("nan")]], [[float("inf"), 1]],
        # a cell past the float range, and totals of finite cells past it
        [[10**400]], [[1e308, -1e308], [-1e308, 1e308]], [[10**308, 10**308], [10**308, 10**308]],
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(InvariantError):
            hungarian_assign(bad)

    @pytest.mark.parametrize("cost, message", [
        # an int past the float range is written short, as the total-cost message writes it
        ([[10**400]], "cost[0][0] must be finite (got 1.00000e+400)"),
        ([[0, -(10**400)]], "cost[0][1] must be finite (got -1.00000e+400)"),
        ([[float("nan")]], "cost[0][0] must be finite (got nan)"),
        ([[0], [float("inf")]], "cost[1][0] must be finite (got inf)"),
        ([["3"]], "cost[0][0] must be finite (got '3')"),
    ])
    def test_bad_cell_message(self, cost, message):
        with pytest.raises(InvariantError) as info:
            hungarian_assign(cost)
        assert str(info.value) == message

    def test_matches_brute_force_integer(self):
        rng = random.Random(1003)
        # (cases, largest side, cost span): costs in -2..2 tie often, and a tie is
        # where the optimum that is returned can change
        for cases, side, span in ((300, 5, 20), (300, 7, 2)):
            for _ in range(cases):
                n = rng.randint(1, side)
                m = rng.randint(1, side)
                cost = [[rng.randint(-span, span) for _ in range(m)] for _ in range(n)]
                result = hungarian_assign(cost)
                expected_total, _ = brute_force_assignment(cost)
                assert result.total_cost == expected_total
                rows, cols = zip(*result.pairs)
                assert len(result.pairs) == len(set(rows)) == len(set(cols)) == min(n, m)
                assert sum(cost[r][c] for r, c in result.pairs) == result.total_cost

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


# Boxes span all three size buckets (32*32 and 96*96 are the bucket edges)
# and overlap often; the few score values make score ties.
SCENE_BOXES = st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(8, 130), st.integers(8, 130))
TINY_BOXES = st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(4, 31), st.integers(4, 31))
SCENE_SCORES = st.sampled_from((0.25, 0.5, 0.75, 1.0))


@st.composite
def ragged_scenes(draw):
    """Per-frame truth boxes and scored predictions, frames of very different sizes.

    Frames may have no predictions or no truth; one frame's truth may be all
    below the area floor, and one frame may hold 40 or more predictions.
    Duplicate boxes make IoU ties.
    """
    gts, preds = [], []
    for _ in range(draw(st.integers(1, 6))):
        truth = draw(st.lists(SCENE_BOXES, max_size=6))
        if truth and draw(st.booleans()):
            truth.append(draw(st.sampled_from(truth)))  # an IoU tie among the truth
        scored = draw(st.lists(st.tuples(SCENE_BOXES, SCENE_SCORES), max_size=7))
        if truth:  # some predictions cover all, 3/4 or 1/2 of a truth box: an IoU of exactly 1, 0.75 or 0.5
            covering = st.tuples(st.sampled_from(truth), st.sampled_from((1.0, 0.75, 0.5)))
            for (x, y, w, h), part in draw(st.lists(covering, max_size=4)):
                scored.append(((x, y, w, h * part), draw(SCENE_SCORES)))
        gts.append(truth)
        preds.append(scored)
    if draw(st.booleans()):
        gts.append(draw(st.lists(TINY_BOXES, min_size=1, max_size=4)))
        preds.append(draw(st.lists(st.tuples(st.sampled_from(gts[-1]), SCENE_SCORES), max_size=4)))
    if draw(st.booleans()):
        gts.append(draw(st.lists(SCENE_BOXES, min_size=1, max_size=12)))
        preds.append(draw(st.lists(st.tuples(SCENE_BOXES, SCENE_SCORES), min_size=40, max_size=50)))
    return preds, gts


def interleaved_columns(frames, rng):
    """Columns of per-frame rows, frames interleaved at random; rows keep their order within a frame.

    Returns the columns and, per column row, its (frame, index in frame).
    """
    queues = [list(enumerate(rows)) for rows in frames]
    labels = [f for f, rows in enumerate(frames) for _ in rows]
    rng.shuffle(labels)
    placed = [(f, *queues[f].pop(0)) for f in labels]
    columns = detection_columns((f, box(*b), s) for f, _, (b, s) in placed)
    return columns, [(f, i) for f, i, _ in placed]


class TestMatchFrames:
    @settings(max_examples=150, deadline=None)
    @given(ragged_scenes(), st.randoms(use_true_random=False), st.sampled_from((1, 64, 1 << 14)))
    def test_every_frame_and_threshold_agrees_with_reference(self, scene, rng, batch_cells):
        preds, gts = scene
        pred_columns, pred_at = interleaved_columns(preds, rng)
        truth_columns, truth_at = interleaved_columns([[(g, 0.0) for g in frame] for frame in gts], rng)
        kept = np.array([size_bucket(box(*gts[f][i])) is not SizeBucket.EXCLUDED for f, i in truth_at])
        thresholds = IOU_THRESHOLDS + (0.50,)
        open_truth = np.vstack([np.broadcast_to(kept, (len(IOU_THRESHOLDS), len(kept))), np.ones_like(kept)])
        # a batch of one frame, a few frames, and the default
        with mock.patch.object(matching, "_BATCH_CELLS", batch_cells):
            order, matched = match_frames(pred_columns, truth_columns, thresholds, open_truth)

        assert sorted(order.tolist()) == list(range(len(pred_at)))
        for k, t in enumerate(thresholds):
            # (frame, index in frame) of each prediction -> that of the truth it takes, or None
            got = {
                pred_at[row]: None if g < 0 else truth_at[g]
                for row, g in zip(order.tolist(), matched[k].tolist())
            }
            for f, (frame_preds, frame_gts) in enumerate(zip(preds, gts)):
                # the AP lanes match against the truth above the area floor, the last against all
                open_index = [
                    i for i, g in enumerate(frame_gts)
                    if k == len(IOU_THRESHOLDS) or size_bucket(box(*g)) is not SizeBucket.EXCLUDED
                ]
                want = ref_greedy_match(frame_preds, [frame_gts[i] for i in open_index], t)
                assert [got[f, i] for i in range(len(frame_preds))] == [
                    None if g is None else (f, open_index[g]) for g in want
                ], (f, t)

    def test_visiting_order_is_frame_then_score_then_row(self):
        columns = detection_columns(
            [(1, box(0, 0, 40, 40), 0.5), (0, box(0, 0, 40, 40), 0.5), (1, box(0, 0, 40, 40), 0.9),
             (0, box(0, 0, 40, 40), 0.5)]
        )
        order, matched = match_frames(columns, detection_columns([]), (0.5,), np.ones((1, 0), dtype=bool))
        assert order.tolist() == [1, 3, 2, 0]
        assert matched.tolist() == [[-1, -1, -1, -1]]

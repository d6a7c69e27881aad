"""Focal loss, PR curves, the detection report, confusion matrices."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from playlog import (
    BoundingBox,
    ClassDistribution,
    ConfusionMatrix,
    DegenerateMetricWarning,
    EvalReport,
    InvariantError,
    confusion_matrix,
    evaluate_detections,
    focal_loss,
    match_detections,
    prf1,
)

from playlog.metrics import _ap_from_flags, _check_curve, _interpolated_ap

from oracles import ref_ap, ref_cross_entropy, ref_evaluate, ref_focal


def dist(p_true, gamma, n_other=1):
    rest = (1.0 - p_true) / n_other
    return ClassDistribution(probs=(p_true,) + (rest,) * n_other, true_index=0, gamma=gamma)


class TestFocalLoss:
    def test_known_value_gamma_two(self):
        assert focal_loss(dist(0.9, 2.0)) == pytest.approx(0.00105361, abs=1e-8)

    def test_gamma_zero_is_log_two_at_half(self):
        assert focal_loss(dist(0.5, 0.0)) == pytest.approx(math.log(2), abs=1e-12)

    def test_gamma_zero_equals_cross_entropy(self):
        rng = random.Random(5)
        for _ in range(1000):
            p = rng.uniform(0.001, 0.999)
            assert focal_loss(dist(p, 0.0)) == pytest.approx(ref_cross_entropy(p), abs=1e-12)

    def test_matches_reference_formula(self):
        rng = random.Random(6)
        for _ in range(1000):
            p = rng.uniform(0.0, 1.0)
            gamma = rng.choice([0.0, 0.5, 1.0, 2.0, 5.0])
            assert focal_loss(dist(p, gamma)) == pytest.approx(ref_focal(p, gamma), abs=1e-12)

    def test_monotone_decreasing_in_confidence(self):
        losses = [focal_loss(dist(i / 1000, 2.0)) for i in range(1, 1000)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_gamma_damps_easy_examples(self):
        assert focal_loss(dist(0.9, 2.0)) < focal_loss(dist(0.9, 0.0))

    def test_certain_prediction_costs_nothing(self):
        assert focal_loss(ClassDistribution(probs=(1.0, 0.0), true_index=0, gamma=2.0)) == 0.0

    def test_zero_probability_is_floored_not_infinite(self):
        loss = focal_loss(ClassDistribution(probs=(0.0, 1.0), true_index=0, gamma=0.0))
        assert loss == pytest.approx(-math.log(1e-12))

    def test_true_index_selects_the_class(self):
        d = ClassDistribution(probs=(0.2, 0.8), true_index=1, gamma=0.0)
        assert focal_loss(d) == pytest.approx(ref_cross_entropy(0.8), abs=1e-12)


class TestClassDistribution:
    def test_needs_two_classes(self):
        with pytest.raises(InvariantError):
            ClassDistribution(probs=(1.0,), true_index=0)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvariantError):
            ClassDistribution(probs=(0.5, 0.4), true_index=0)

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(InvariantError):
            ClassDistribution(probs=(1.2, -0.2), true_index=0)

    def test_rejects_bad_true_index(self):
        with pytest.raises(InvariantError):
            ClassDistribution(probs=(0.5, 0.5), true_index=2)

    def test_rejects_negative_gamma(self):
        with pytest.raises(InvariantError):
            ClassDistribution(probs=(0.5, 0.5), true_index=0, gamma=-1.0)


def check_points(*points):
    recall, precision = np.array(points, dtype=np.float64).reshape(-1, 2).T
    _check_curve(recall, precision)


class TestAveragePrecision:
    def test_perfect_detector(self):
        # curve (0.5, 1.0), (1.0, 1.0)
        assert _ap_from_flags([True, True], 2) == 1.0

    def test_true_then_false_positive(self):
        # one of two gts found, then an fp: the curve (0.5, 1.0), (0.5, 0.5)
        # holds precision 1.0 up to recall 0.5, nothing beyond
        assert _ap_from_flags([True, False], 2) == pytest.approx(51 / 101)

    def test_no_ground_truth_warns_and_pins_to_zero(self):
        with pytest.warns(DegenerateMetricWarning):
            assert _ap_from_flags([], 0) == 0.0

    def test_recall_must_not_decrease(self):
        with pytest.raises(InvariantError, match="non-decreasing"):
            check_points((0.5, 1.0), (0.4, 1.0))

    def test_point_range_enforced(self):
        with pytest.raises(InvariantError, match=r"out of \[0, 1\]"):
            check_points((0.5, 1.5))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.booleans(), max_size=80), st.integers(0, 20))
    @example([False] * 7, 0)  # no hits at all
    @example([False] * 7, 3)
    @example([True, False, True], 0)  # every ground truth found
    @example([], 4)
    def test_equals_reference_exactly(self, flags, extra_gt):
        # exact equality: the curve is built point by point the way ref_ap
        # builds it, and the evaluator's array path from flags must agree with both
        num_gt = max(1, sum(flags) + extra_gt)
        tp = 0
        recall, precision = [], []
        for rank, hit in enumerate(flags, start=1):
            tp += hit
            recall.append(tp / num_gt)
            precision.append(tp / rank)
        expected = ref_ap(flags, num_gt)
        recall, precision = np.array(recall, dtype=np.float64), np.array(precision, dtype=np.float64)
        _check_curve(recall, precision)
        assert _interpolated_ap(recall, precision, num_gt) == expected
        assert _ap_from_flags(flags, num_gt) == expected

    def test_flags_without_ground_truth_warn_and_pin_to_zero(self):
        with pytest.warns(DegenerateMetricWarning):
            assert _ap_from_flags([True, False], 0) == 0.0

    def test_flags_with_more_hits_than_ground_truth_are_rejected(self):
        with pytest.raises(InvariantError, match=r"out of \[0, 1\]"):
            _ap_from_flags([True, True, False], 1)

    def test_first_bad_point_decides_the_message(self):
        with pytest.raises(InvariantError, match="non-decreasing"):
            check_points((0.5, 1.0), (0.4, 1.0), (0.6, 1.5))
        with pytest.raises(InvariantError, match=r"out of \[0, 1\] \(got \(0.6, 1.5\)\)"):
            check_points((0.5, 1.0), (0.6, 1.5), (0.4, 1.0))


class TestPrf1:
    def test_basic_counts(self):
        precision, recall, f1 = prf1(8, 2, 4)
        assert precision == pytest.approx(0.8)
        assert recall == pytest.approx(8 / 12)
        assert f1 == pytest.approx(2 * 0.8 * (8 / 12) / (0.8 + 8 / 12))

    def test_no_predictions_warns(self):
        with pytest.warns(DegenerateMetricWarning):
            precision, recall, f1 = prf1(0, 0, 3)
        assert (precision, f1) == (0.0, 0.0)
        assert recall == 0.0

    def test_nothing_at_all_warns(self):
        with pytest.warns(DegenerateMetricWarning):
            assert prf1(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(InvariantError):
            prf1(-1, 0, 0)


class TestEvalReport:
    def test_text_layout(self):
        report = EvalReport(
            ap_range=0.5, ap_50=0.75, ap_75=0.5, ap_small=0.25,
            ap_large=0.5, ar_small=0.3, ar_large=0.6,
        )
        assert report.to_text() == (
            "AP_{0.5:0.95} 0.500000\n"
            "AP_{0.50} 0.750000\n"
            "AP_{0.75} 0.500000\n"
            "AP_small 0.250000\n"
            "AP_large 0.500000\n"
            "AR_small 0.300000\n"
            "AR_large 0.600000\n"
        )

    def test_range_enforced(self):
        with pytest.raises(InvariantError):
            EvalReport(ap_range=1.5, ap_50=0, ap_75=0, ap_small=0,
                       ap_large=0, ar_small=0, ar_large=0)


def random_scene(rng, frames):
    """Random per-frame boxes spanning all three size buckets."""
    preds = {}
    gts = {}
    for f in range(frames):
        gts[f] = [
            (rng.randint(0, 200), rng.randint(0, 200), rng.randint(20, 120), rng.randint(20, 120))
            for _ in range(rng.randint(0, 6))
        ]
        preds[f] = []
        for g in gts[f]:
            if rng.random() < 0.7:  # jittered copy of a gt
                preds[f].append(
                    (
                        (g[0] + rng.randint(0, 8), g[1] + rng.randint(0, 8), g[2], g[3]),
                        round(rng.uniform(0.1, 1.0), 3),
                    )
                )
        for _ in range(rng.randint(0, 3)):  # spurious boxes
            preds[f].append(
                (
                    (rng.randint(0, 200), rng.randint(0, 200), rng.randint(20, 120), rng.randint(20, 120)),
                    round(rng.uniform(0.1, 1.0), 3),
                )
            )
    return preds, gts


def as_library_args(preds, gts):
    lib_preds = {
        f: [(BoundingBox(*b), s) for b, s in v] for f, v in preds.items()
    }
    lib_gts = {f: [BoundingBox(*b) for b in v] for f, v in gts.items()}
    return lib_preds, lib_gts


# Coordinates overlap often and areas span all three size buckets; the few
# score values make ties, which the (score desc, index) order must break.
BOXES = st.tuples(st.integers(0, 60), st.integers(0, 60), st.integers(20, 130), st.integers(20, 130))
SCORES = st.sampled_from((0.25, 0.5, 0.75, 1.0))


@st.composite
def scenes(draw):
    preds, gts = {}, {}
    for f in range(draw(st.integers(1, 3))):
        gts[f] = draw(st.lists(BOXES, max_size=5))
        preds[f] = draw(st.lists(st.tuples(BOXES, SCORES), max_size=7))
        if gts[f]:  # some predictions sit exactly on a ground truth
            preds[f] += draw(st.lists(st.tuples(st.sampled_from(gts[f]), SCORES), max_size=4))
    return preds, gts


class TestEvaluateDetections:
    @pytest.mark.parametrize("score", [1.5, -0.1])
    def test_score_range_enforced(self, score):
        box = BoundingBox(0, 0, 40, 40)
        message = f"prediction score in [0, 1] violated (got {score!r})"
        with pytest.raises(InvariantError) as excinfo:
            match_detections([(box, score)], [box], 0.5)
        assert str(excinfo.value) == message
        with pytest.raises(InvariantError) as excinfo:
            evaluate_detections({0: [(box, 0.5), (box, score)]}, {0: [box]})
        assert str(excinfo.value) == message

    @settings(max_examples=200, deadline=None)
    @given(scenes(), st.integers(1, 5))
    def test_capped_recall_agrees_with_reference(self, scene, max_detections):
        preds, gts = scene
        lib_preds, lib_gts = as_library_args(preds, gts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateMetricWarning)
            report = evaluate_detections(lib_preds, lib_gts, max_detections=max_detections)
        expected = ref_evaluate(preds, gts, max_detections=max_detections)
        for key, want in expected.items():
            assert getattr(report, key) == pytest.approx(want, abs=1e-9), key

    def test_agrees_with_reference(self):
        rng = random.Random(2024)
        for _ in range(25):
            preds, gts = random_scene(rng, rng.randint(1, 4))
            lib_preds, lib_gts = as_library_args(preds, gts)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateMetricWarning)
                report = evaluate_detections(lib_preds, lib_gts)
            expected = ref_evaluate(preds, gts)
            for key, want in expected.items():
                assert getattr(report, key) == pytest.approx(want, abs=1e-9), key

    def test_perfect_predictions_score_one(self):
        gts = {0: [(10, 10, 40, 40), (100, 100, 110, 110)]}
        preds = {0: [(b, 0.9) for b in gts[0]]}
        lib_preds, lib_gts = as_library_args(preds, gts)
        report = evaluate_detections(lib_preds, lib_gts)
        assert report.ap_range == 1.0
        assert report.ap_small == 1.0
        assert report.ap_large == 1.0
        assert report.ar_small == 1.0
        assert report.ar_large == 1.0

    def test_frame_mismatch_names_orphans(self):
        lib_preds, lib_gts = as_library_args({0: [], 2: []}, {0: []})
        with pytest.raises(InvariantError, match=r"\[2\]"):
            evaluate_detections(lib_preds, lib_gts)

    def test_tiny_ground_truth_excluded(self):
        # a 10x10 gt is below the area floor, so the matching pred is
        # a pure fp and the only countable gt is the large one
        gts = {0: [(0, 0, 10, 10), (50, 50, 120, 120)]}
        preds = {0: [((0, 0, 10, 10), 0.99), ((50, 50, 120, 120), 0.5)]}
        lib_preds, lib_gts = as_library_args(preds, gts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateMetricWarning)
            report = evaluate_detections(lib_preds, lib_gts)
        expected = ref_evaluate(preds, gts)
        assert report.ap_range == pytest.approx(expected["ap_range"], abs=1e-9)
        assert report.ap_large == pytest.approx(1.0)

    def test_detection_cap_limits_recall(self):
        # two gts, three preds; with the cap at 1 only the top-scored
        # pred is kept, so AR can reach at most 1/2
        gts = {0: [(0, 0, 40, 40), (100, 100, 40, 40)]}
        preds = {
            0: [
                ((0, 0, 40, 40), 0.9),
                ((100, 100, 40, 40), 0.8),
                ((300, 300, 40, 40), 0.7),
            ]
        }
        lib_preds, lib_gts = as_library_args(preds, gts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateMetricWarning)
            capped = evaluate_detections(lib_preds, lib_gts, max_detections=1)
            uncapped = evaluate_detections(lib_preds, lib_gts)
        assert capped.ar_small == pytest.approx(0.5)
        assert uncapped.ar_small == pytest.approx(1.0)
        # the cap only applies to recall
        assert capped.ap_range == uncapped.ap_range

    def test_empty_bucket_warns(self):
        gts = {0: [(0, 0, 40, 40)]}  # small only
        preds = {0: [((0, 0, 40, 40), 0.9)]}
        lib_preds, lib_gts = as_library_args(preds, gts)
        with pytest.warns(DegenerateMetricWarning):
            report = evaluate_detections(lib_preds, lib_gts)
        assert report.ar_large == 0.0


class TestConfusionMatrix:
    def test_counts_and_normalization(self):
        pairs = [(2, 2)] * 4 + [(6, 8), (6, 6)]
        cm = confusion_matrix(pairs)
        assert cm.counts[2][2] == 4
        assert cm.counts[6][8] == 1
        assert cm.counts[6][6] == 1
        assert cm.counts.sum() == 6
        # normalized against the best-supported row (digit 2, support 4)
        assert cm.normalized[2][2] == pytest.approx(1.0)
        assert cm.normalized[6][8] == pytest.approx(0.25)
        assert cm.normalized[6][6] == pytest.approx(0.25)

    def test_empty_input(self):
        cm = confusion_matrix([])
        assert cm.counts.shape == (10, 10)
        assert cm.counts.sum() == 0
        assert np.all(cm.normalized == 0.0)

    def test_arrays_are_read_only(self):
        cm = confusion_matrix([(1, 1)])
        with pytest.raises(ValueError):
            cm.counts[0, 0] = 5
        with pytest.raises(ValueError):
            cm.normalized[0, 0] = 5.0

    def test_digit_range_enforced(self):
        with pytest.raises(InvariantError):
            confusion_matrix([(10, 0)])
        with pytest.raises(InvariantError):
            confusion_matrix([(0, -1)])

    def test_equality_by_value(self):
        assert confusion_matrix([(3, 3)]) == confusion_matrix([(3, 3)])
        assert confusion_matrix([(3, 3)]) != confusion_matrix([(3, 4)])

"""Detector and classifier scoring: focal loss, AP/AR, confusion matrices."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import BoundingBox, InvariantError
from .matching import SizeBucket, greedy_match, iou_matrix, score_order, size_bucket

PROB_FLOOR = 1e-12  # keeps log() off exact zeros

# AP protocol constants: IoU sweep 0.50..0.95 step 0.05, 101-point recall
# grid, at most 100 detections scored per frame.
IOU_THRESHOLDS: tuple[float, ...] = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
RECALL_GRID: tuple[float, ...] = tuple(i / 100 for i in range(101))
MAX_DETECTIONS = 100

PROB_SUM_TOL = 1e-6


class DegenerateMetricWarning(UserWarning):
    """A metric had a zero denominator and was pinned to 0."""


@dataclass(frozen=True)
class ClassDistribution:
    """A predicted probability vector with its true class and focusing power."""

    probs: tuple[float, ...]
    true_index: int
    gamma: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.probs) < 2:
            raise InvariantError("ClassDistribution needs at least 2 classes")
        for p in self.probs:
            if not (0.0 <= p <= 1.0):
                raise InvariantError(f"ClassDistribution probability in [0, 1] violated (got {p!r})")
        total = sum(self.probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise InvariantError(f"ClassDistribution probabilities must sum to 1 (got {total!r})")
        if not (0 <= self.true_index < len(self.probs)):
            raise InvariantError(
                f"ClassDistribution.true_index in 0..{len(self.probs) - 1} violated (got {self.true_index})"
            )
        if not (isinstance(self.gamma, (int, float)) and self.gamma >= 0):
            raise InvariantError(f"ClassDistribution.gamma >= 0 violated (got {self.gamma!r})")


def focal_loss(dist: ClassDistribution) -> float:
    """Cross entropy on the true class, down-weighted by (1 - p)**gamma.

    With gamma = 0 this is plain cross entropy; larger gamma shrinks the
    loss of well-classified examples.  The probability is floored at 1e-12
    before the log.
    """
    p = max(dist.probs[dist.true_index], PROB_FLOOR)
    return -math.log(p) * (1.0 - p) ** dist.gamma


@dataclass(frozen=True)
class PrCurve:
    """Cumulative (recall, precision) points in ranked-score order."""

    points: tuple[tuple[float, float], ...]
    num_gt: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "points", tuple((float(r), float(p)) for r, p in self.points)
        )
        if not (isinstance(self.num_gt, int) and self.num_gt >= 0):
            raise InvariantError(f"PrCurve.num_gt >= 0 violated (got {self.num_gt!r})")
        _check_curve(*_curve_arrays(self))


def _curve_arrays(curve: PrCurve) -> tuple[np.ndarray, np.ndarray]:
    recall, precision = np.array(curve.points, dtype=np.float64).reshape(-1, 2).T
    return recall, precision


def _check_curve(recall: np.ndarray, precision: np.ndarray) -> None:
    """Raise at the first point out of [0, 1] or below the previous recall."""
    in_range = (recall >= 0.0) & (recall <= 1.0) & (precision >= 0.0) & (precision <= 1.0)
    bad = ~in_range
    bad[1:] |= recall[1:] < recall[:-1]
    if bad.any():
        k = int(np.argmax(bad))
        if in_range[k]:
            raise InvariantError("PrCurve recall must be non-decreasing")
        raise InvariantError(f"PrCurve point out of [0, 1] (got {(float(recall[k]), float(precision[k]))!r})")


_GRID = np.array(RECALL_GRID)


def _interpolated_ap(recall: np.ndarray, precision: np.ndarray, num_gt: int) -> float:
    """101-point interpolated AP of a checked curve (the core of average_precision)."""
    if num_gt == 0:
        warnings.warn("average_precision with num_gt = 0 pinned to 0", DegenerateMetricWarning)
        return 0.0
    # recalls never decrease, so the points at or beyond a grid recall form
    # a suffix: best_from[k] is the best precision from point k on, and 0
    # past the last point
    best_from = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    total = 0.0
    # summed one grid point at a time, in grid order, as ref_ap sums
    for v in best_from[np.searchsorted(recall, _GRID, side="left")].tolist():
        total += v
    return total / len(RECALL_GRID)


def average_precision(curve: PrCurve) -> float:
    """101-point interpolated AP.

    Mean over the recall grid {0.00, 0.01, .., 1.00} of the best precision
    achieved at or beyond each grid recall.  With no ground truth the value
    is 0 and a DegenerateMetricWarning is emitted.
    """
    return _interpolated_ap(*_curve_arrays(curve), curve.num_gt)


def prf1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall, F1 from match counts.

    Zero-denominator cases return 0 for the affected value and emit a
    DegenerateMetricWarning.
    """
    for name, v in (("tp", tp), ("fp", fp), ("fn", fn)):
        if not (isinstance(v, int) and v >= 0):
            raise InvariantError(f"prf1 {name} must be a non-negative integer (got {v!r})")
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        warnings.warn("precision with tp + fp = 0 pinned to 0", DegenerateMetricWarning)
        precision = 0.0
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        warnings.warn("recall with tp + fn = 0 pinned to 0", DegenerateMetricWarning)
        recall = 0.0
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        warnings.warn("f1 with precision + recall = 0 pinned to 0", DegenerateMetricWarning)
        f1 = 0.0
    return precision, recall, f1


_REPORT_ROWS = (
    ("AP_{0.5:0.95}", "ap_range"),
    ("AP_{0.50}", "ap_50"),
    ("AP_{0.75}", "ap_75"),
    ("AP_small", "ap_small"),
    ("AP_large", "ap_large"),
    ("AR_small", "ar_small"),
    ("AR_large", "ar_large"),
)


@dataclass(frozen=True)
class EvalReport:
    """Detection quality summary over an IoU sweep and size buckets."""

    ap_range: float
    ap_50: float
    ap_75: float
    ap_small: float
    ap_large: float
    ar_small: float
    ar_large: float

    def __post_init__(self) -> None:
        for _, attr in _REPORT_ROWS:
            v = getattr(self, attr)
            if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
                raise InvariantError(f"EvalReport.{attr} in [0, 1] violated (got {v!r})")

    def to_text(self) -> str:
        """Flat key-value block, one metric per line."""
        return "".join(f"{name} {getattr(self, attr):.6f}\n" for name, attr in _REPORT_ROWS)


def _ap_from_flags(flags: Sequence[bool], num_gt: int) -> float:
    """AP of ranked hit flags: the curve average_precision would get, built as arrays."""
    tp = np.cumsum(flags, dtype=np.int64)
    recall = tp / num_gt if num_gt else np.zeros(len(tp))
    precision = tp / np.arange(1, len(tp) + 1)
    _check_curve(recall, precision)
    return _interpolated_ap(recall, precision, num_gt)


def evaluate_detections(
    preds: Mapping[int, Sequence[tuple[BoundingBox, float]]],
    gts: Mapping[int, Sequence[BoundingBox]],
    *,
    max_detections: int = MAX_DETECTIONS,
) -> EvalReport:
    """Score per-frame detections against per-frame ground truth.

    Both mappings must cover exactly the same frames.  Ground-truth boxes
    below the excluded-area floor are removed before scoring.  A matched
    prediction inherits its ground truth's size bucket; an unmatched
    prediction counts against the bucket of its own area.  AR applies the
    per-frame detection cap before matching.
    """
    if set(preds) != set(gts):
        orphans = sorted(set(preds) ^ set(gts))
        raise InvariantError(f"prediction and ground-truth frame sets differ; orphan frames: {orphans}")

    kept_gts: dict[int, list[BoundingBox]] = {}
    gt_buckets: dict[int, list[SizeBucket]] = {}
    for f in gts:
        kept = [g for g in gts[f] if size_bucket(g) is not SizeBucket.EXCLUDED]
        kept_gts[f] = kept
        gt_buckets[f] = [size_bucket(g) for g in kept]

    num_gt = sum(len(v) for v in kept_gts.values())
    num_gt_by_bucket = {
        b: sum(bl.count(b) for bl in gt_buckets.values())
        for b in (SizeBucket.SMALL, SizeBucket.LARGE)
    }

    frames = sorted(preds)
    # Each frame's IoU rows, in its greedy visiting order, are computed once
    # and reused at every threshold.  Entries (one per prediction: frame,
    # index, position in its frame's order) follow the same order, and so
    # does every per-entry list below.
    orders = {f: score_order(preds[f]) for f in frames}
    iou_rows = {f: iou_matrix([preds[f][i][0] for i in orders[f]], kept_gts[f]).tolist() for f in frames}
    entries = [(f, i, position) for f in frames for position, i in enumerate(orders[f])]
    scores = [preds[f][i][1] for f, i, _ in entries]
    own_bucket = [size_bucket(preds[f][i][0]) for f, i, _ in entries]
    capped = [e for e, (_, _, position) in enumerate(entries) if position < max_detections]
    # Global ranking by (score desc, frame, index): entries of equal score
    # already sit in (frame, index) order, and the sort is stable.
    rank = sorted(range(len(entries)), key=lambda e: -scores[e])

    ap_at: dict[float, float] = {}
    ap_bucket_sum = {SizeBucket.SMALL: 0.0, SizeBucket.LARGE: 0.0}
    ar_bucket_sum = {SizeBucket.SMALL: 0.0, SizeBucket.LARGE: 0.0}
    ar_degenerate = False

    for t in IOU_THRESHOLDS:
        matched: list[SizeBucket | None] = []
        for f in frames:
            matched.extend(None if g is None else gt_buckets[f][g] for g in greedy_match(iou_rows[f], t))

        ap_at[t] = _ap_from_flags([matched[e] is not None for e in rank], num_gt)

        # a prediction counts in its ground truth's bucket, or unmatched in its own
        counted_in = [own if m is None else m for m, own in zip(matched, own_bucket)]
        for b in (SizeBucket.SMALL, SizeBucket.LARGE):
            bucket_flags = [matched[e] is b for e in rank if counted_in[e] is b]
            ap_bucket_sum[b] += _ap_from_flags(bucket_flags, num_gt_by_bucket[b])
            # greedy matching visits a frame in the same order with or without
            # the cap, so recall under the cap is read from the uncapped matching
            if num_gt_by_bucket[b] > 0:
                ar_bucket_sum[b] += sum(matched[e] is b for e in capped) / num_gt_by_bucket[b]
            else:
                ar_degenerate = True

    if ar_degenerate:
        warnings.warn("AR over an empty size bucket pinned to 0", DegenerateMetricWarning)

    n_t = len(IOU_THRESHOLDS)
    return EvalReport(
        ap_range=sum(ap_at.values()) / n_t,
        ap_50=ap_at[0.50],
        ap_75=ap_at[0.75],
        ap_small=ap_bucket_sum[SizeBucket.SMALL] / n_t,
        ap_large=ap_bucket_sum[SizeBucket.LARGE] / n_t,
        ar_small=ar_bucket_sum[SizeBucket.SMALL] / n_t,
        ar_large=ar_bucket_sum[SizeBucket.LARGE] / n_t,
    )


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Digit confusion counts plus a globally normalized copy.

    ``normalized`` divides every cell by the support (row sum) of the
    best-supported true class, so the hottest diagonal cell of the most
    frequent digit reads 1.0.
    """

    counts: np.ndarray
    normalized: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfusionMatrix):
            return NotImplemented
        return bool(
            np.array_equal(self.counts, other.counts)
            and np.array_equal(self.normalized, other.normalized)
        )


def confusion_matrix(pairs: Sequence[tuple[int, int]]) -> ConfusionMatrix:
    """10x10 confusion matrix over (true digit, predicted digit) pairs."""
    counts = np.zeros((10, 10), dtype=np.int64)
    for true, pred in pairs:
        if not (isinstance(true, int) and 0 <= true <= 9):
            raise InvariantError(f"confusion true digit in 0..9 violated (got {true!r})")
        if not (isinstance(pred, int) and 0 <= pred <= 9):
            raise InvariantError(f"confusion predicted digit in 0..9 violated (got {pred!r})")
        counts[true, pred] += 1
    max_support = int(counts.sum(axis=1).max()) if counts.any() else 0
    if max_support > 0:
        normalized = counts.astype(np.float64) / max_support
    else:
        normalized = counts.astype(np.float64)
    normalized.flags.writeable = False
    counts.flags.writeable = False
    return ConfusionMatrix(counts=counts, normalized=normalized)

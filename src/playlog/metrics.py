"""Detector and classifier scoring: focal loss, AP/AR, confusion matrices."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import BoundingBox, InvariantError
from .gamelog import RecordBlock
from .matching import (
    SMALL_MAX_AREA,
    SMALL_MIN_AREA,
    DetectionColumns,
    checked_score,
    detection_columns,
    match_frames,
)

PROB_FLOOR = 1e-12  # keeps log() off exact zeros

# AP protocol constants: IoU sweep 0.50..0.95 step 0.05, 101-point recall
# grid, at most 100 detections scored per frame.
IOU_THRESHOLDS: tuple[float, ...] = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
RECALL_GRID: tuple[float, ...] = tuple(i / 100 for i in range(101))
MAX_DETECTIONS = 100

CONFUSION_MATCH_IOU = 0.50  # IoU at which `evaluate --confusion` pairs digits

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


def _check_curve(recall: np.ndarray, precision: np.ndarray) -> None:
    """Raise at the first (recall, precision) point out of [0, 1] or below the previous recall."""
    in_range = (recall >= 0.0) & (recall <= 1.0) & (precision >= 0.0) & (precision <= 1.0)
    bad = ~in_range
    bad[1:] |= recall[1:] < recall[:-1]
    if bad.any():
        k = int(np.argmax(bad))
        if in_range[k]:
            raise InvariantError("PR curve recall must be non-decreasing")
        raise InvariantError(f"PR curve point out of [0, 1] (got {(float(recall[k]), float(precision[k]))!r})")


_GRID = np.array(RECALL_GRID)


def _interpolated_ap(recall: np.ndarray, precision: np.ndarray, num_gt: int) -> float:
    """101-point interpolated AP of a checked curve.

    Mean over the recall grid {0.00, 0.01, .., 1.00} of the best precision
    achieved at or beyond each grid recall.  With no ground truth the value
    is 0 and a DegenerateMetricWarning is emitted.
    """
    if num_gt == 0:
        warnings.warn("AP with num_gt = 0 pinned to 0", DegenerateMetricWarning)
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
    """AP of ranked hit flags, with the curve built as arrays."""
    tp = np.cumsum(flags, dtype=np.int64)
    recall = tp / num_gt if num_gt else np.zeros(len(tp))
    precision = tp / np.arange(1, len(tp) + 1)
    _check_curve(recall, precision)
    return _interpolated_ap(recall, precision, num_gt)


# size bucket codes of the array core; a prediction that matched nothing counts as _UNMATCHED
_EXCLUDED, _SMALL, _LARGE, _UNMATCHED = 0, 1, 2, 3


def _size_codes(box: np.ndarray) -> np.ndarray:
    """``size_bucket`` of each (x, y, w, h) row, as a bucket code."""
    with np.errstate(over="ignore"):  # an area beyond the float range is inf, as in size_bucket
        area = box[:, 2] * box[:, 3]
    codes = np.where(area < SMALL_MIN_AREA, _EXCLUDED, np.where(area <= SMALL_MAX_AREA, _SMALL, _LARGE))
    return codes.astype(np.int8)


def evaluate_columns(
    preds: DetectionColumns,
    truth: DetectionColumns,
    *,
    max_detections: int = MAX_DETECTIONS,
    pairing_iou: float | None = None,
) -> tuple[EvalReport, np.ndarray | None]:
    """The array core of ``evaluate_detections``, over the columns of all frames at once.

    A frame with predictions and no truth scores them all as false
    positives; a frame with truth and no predictions scores as empty.  With
    ``pairing_iou``, the second value gives, per prediction row, the truth
    row it matches at that IoU against every truth box, the ones below the
    area floor included (or -1); it is None otherwise.
    """
    truth_code = _size_codes(truth.box)
    kept = truth_code != _EXCLUDED
    num_gt = int(np.count_nonzero(kept))
    num_gt_by_bucket = {b: int(np.count_nonzero(truth_code == b)) for b in (_SMALL, _LARGE)}

    thresholds = IOU_THRESHOLDS
    open_truth = np.broadcast_to(kept, (len(IOU_THRESHOLDS), len(kept)))
    if pairing_iou is not None:
        thresholds += (pairing_iou,)
        open_truth = np.vstack([open_truth, np.ones((1, len(kept)), dtype=bool)])
    order, matched = match_frames(preds, truth, thresholds, open_truth)

    # entries are the predictions in visiting order: by frame, then score
    frame = preds.frame[order]
    capped = np.arange(len(order)) - np.searchsorted(frame, frame) < max_detections
    own_code = _size_codes(preds.box)[order]
    # global ranking by (score desc, frame, position): the sort is stable
    rank = np.argsort(-preds.score[order], kind="stable")
    matched_code = np.append(truth_code, _UNMATCHED)  # index -1 is no match

    ap_at: dict[float, float] = {}
    ap_bucket_sum = {_SMALL: 0.0, _LARGE: 0.0}
    ar_bucket_sum = {_SMALL: 0.0, _LARGE: 0.0}
    ar_degenerate = False

    for t, lane in zip(IOU_THRESHOLDS, matched):
        got = matched_code[lane]
        hit = got != _UNMATCHED
        ap_at[t] = _ap_from_flags(hit[rank], num_gt)

        # a prediction counts in its ground truth's bucket, or unmatched in its own
        counted_in = np.where(hit, got, own_code)[rank]
        got_ranked = got[rank]
        for b in (_SMALL, _LARGE):
            ap_bucket_sum[b] += _ap_from_flags(got_ranked[counted_in == b] == b, num_gt_by_bucket[b])
            # greedy matching visits a frame in the same order with or without
            # the cap, so recall under the cap is read from the uncapped matching
            if num_gt_by_bucket[b] > 0:
                ar_bucket_sum[b] += int(np.count_nonzero((got == b) & capped)) / num_gt_by_bucket[b]
            else:
                ar_degenerate = True

    if ar_degenerate:
        warnings.warn("AR over an empty size bucket pinned to 0", DegenerateMetricWarning)

    n_t = len(IOU_THRESHOLDS)
    report = EvalReport(
        ap_range=sum(ap_at.values()) / n_t,
        ap_50=ap_at[0.50],
        ap_75=ap_at[0.75],
        ap_small=ap_bucket_sum[_SMALL] / n_t,
        ap_large=ap_bucket_sum[_LARGE] / n_t,
        ar_small=ar_bucket_sum[_SMALL] / n_t,
        ar_large=ar_bucket_sum[_LARGE] / n_t,
    )
    if pairing_iou is None:
        return report, None
    pairs = np.empty(len(order), dtype=np.int64)
    pairs[order] = matched[-1]
    return report, pairs


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
    frames = sorted(preds)
    pred_columns = detection_columns(
        (k, box, checked_score(score)) for k, f in enumerate(frames) for box, score in preds[f]
    )
    truth_columns = detection_columns((k, g, 0.0) for k, f in enumerate(frames) for g in gts[f])
    return evaluate_columns(pred_columns, truth_columns, max_detections=max_detections)[0]


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

    def to_text(self) -> str:
        """The ``confusion_counts`` and ``confusion_normalized`` blocks: a title line, then one line per true digit."""
        counts = "".join(" ".join("%d" % v for v in row) + "\n" for row in self.counts)
        normalized = "".join(" ".join("%.4f" % v for v in row) + "\n" for row in self.normalized)
        return "confusion_counts\n" + counts + "confusion_normalized\n" + normalized


def confusion_matrix(pairs: Iterable[tuple[int, int]]) -> ConfusionMatrix:
    """10x10 confusion matrix over (true digit, predicted digit) pairs."""
    true_digits: list[int] = []
    predicted_digits: list[int] = []
    for true, pred in pairs:
        if not (isinstance(true, int) and 0 <= true <= 9):
            raise InvariantError(f"confusion true digit in 0..9 violated (got {true!r})")
        if not (isinstance(pred, int) and 0 <= pred <= 9):
            raise InvariantError(f"confusion predicted digit in 0..9 violated (got {pred!r})")
        true_digits.append(true)
        predicted_digits.append(pred)
    return _count_confusion(np.array(true_digits, dtype=np.int64), np.array(predicted_digits, dtype=np.int64))


def _count_confusion(true: np.ndarray, predicted: np.ndarray) -> ConfusionMatrix:
    # the matrix of aligned digit arrays in 0..9: each pair counted by one bincount over 10 * true + predicted
    counts = np.bincount(10 * true + predicted, minlength=100).astype(np.int64).reshape(10, 10)
    max_support = int(counts.sum(axis=1).max()) if counts.any() else 0
    if max_support > 0:
        normalized = counts.astype(np.float64) / max_support
    else:
        normalized = counts.astype(np.float64)
    normalized.flags.writeable = False
    counts.flags.writeable = False
    return ConfusionMatrix(counts=counts, normalized=normalized)


def _record_columns(blocks: Iterable[RecordBlock]) -> list[np.ndarray]:
    # each record's frame, box, score and number (-1 for none), as columns; a
    # block with a frame past int64 gives its frames as Python ints (object dtype)
    columns = [np.empty(0, np.int64)], [np.empty((0, 4))], [np.empty(0)], [np.empty(0, np.int8)]
    for block in blocks:
        try:
            frame = np.array(block.frame, dtype=np.int64)
        except OverflowError:
            frame = np.array(block.frame, dtype=object)
        for column, values in zip(columns, (frame, block.box, block.score, block.number.astype(np.int8))):
            column.append(values)
        del block  # a block kept while the next is read would raise the peak memory by a block
    return [np.concatenate(column) for column in columns]


def evaluate_records(
    preds: Iterable[RecordBlock], truth: Iterable[RecordBlock], pairing_iou: float | None = None
) -> tuple[EvalReport, ConfusionMatrix | None, list[str]]:
    """Score two streams of ``gamelog.read_records`` blocks, predictions read first: the report, matrix and notes.

    A frame that only one stream names scores against an empty list on the
    other side.  With ``pairing_iou``, each numbered prediction paired at
    that IoU with a numbered truth (``evaluate_columns``) gives the confusion
    matrix their digits place by place, or a note if their digit counts
    differ, in (frame, prediction line) order; else the matrix is None.
    """
    pred_frame, pred_box, pred_score, pred_number = _record_columns(preds)
    truth_frame, truth_box, truth_score, truth_number = _record_columns(truth)
    # the sorted union of both streams' frames, and each row's position in it
    frames, position = np.unique(np.concatenate((pred_frame, truth_frame)), return_inverse=True)
    pred_position = position[: len(pred_frame)]
    report, pairs = evaluate_columns(
        DetectionColumns(pred_position, pred_box, pred_score),
        DetectionColumns(position[len(pred_frame):], truth_box, truth_score),
        pairing_iou=pairing_iou,
    )
    if pairs is None:
        return report, None, []
    rows = np.argsort(pred_position, kind="stable")
    rows = rows[pairs[rows] >= 0]
    true, predicted = truth_number[pairs[rows]], pred_number[rows]
    numbered = (true >= 0) & (predicted >= 0)
    rows, true, predicted = rows[numbered], true[numbered], predicted[numbered]
    differ = (true >= 10) != (predicted >= 10)
    notes = [f"frame {frames[k]}: digit counts differ ({t} vs {p}), pair skipped"
             for k, t, p in zip(*(v[differ].tolist() for v in (pred_position[rows], true, predicted)))]
    true, predicted = true[~differ], predicted[~differ]
    two = true >= 10  # and so predicted >= 10
    true_digits = np.concatenate((true[two] // 10, true % 10)).astype(np.int64)
    predicted_digits = np.concatenate((predicted[two] // 10, predicted % 10)).astype(np.int64)
    return report, _count_confusion(true_digits, predicted_digits), notes

"""Box geometry and bipartite matching.

The assignment solver is scipy's ``linear_sum_assignment``; the exhaustive
permutation check lives in the test suite, not here.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import BoundingBox, InvariantError

# Jersey numbers stop being legible below 32x32; crops above 96x96 behave
# differently enough to report separately.
SMALL_MIN_AREA = 32 * 32
SMALL_MAX_AREA = 96 * 96


class SizeBucket(Enum):
    EXCLUDED = "excluded"
    SMALL = "small"
    LARGE = "large"


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    try:
        inter_w = max(0.0, min(a.right, b.right) - max(a.x, b.x))
        inter_h = max(0.0, min(a.bottom, b.bottom) - max(a.y, b.y))
        inter = inter_w * inter_h
        if inter <= 0.0:
            return 0.0
        union = a.area + b.area - inter
        return inter / union
    except OverflowError:
        # an exact int field (at or above 2**53) whose sums leave the float range: the IoU in exact
        # arithmetic; imported here, so that no run pays for the import of a path this rare
        from fractions import Fraction

        ax, ay, aw, ah, bx, by, bw, bh = map(Fraction, (a.x, a.y, a.w, a.h, b.x, b.y, b.w, b.h))
        inter = max(0, min(ax + aw, bx + bw) - max(ax, bx)) * max(0, min(ay + ah, by + bh) - max(ay, by))
        return float(inter / (aw * ah + bw * bh - inter))


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of boxes ``a`` and ``b``, each (x, y, w, h) on the last axis, broadcast over the others.

    The matcher and the jersey kernel score overlaps with it.  Each entry
    takes the same float64 operations in the same order as ``iou``, so it
    equals ``iou`` of the two boxes bit for bit when every field is a float
    (the record reader makes every field below 2**53 one) or an int whose
    sums and products stay below 2**53.  ``iou`` sums and multiplies an int
    field exactly, so past that the two can differ in the last bit, and a
    sum past the float range gives nan here.
    """
    ax, ay, aw, ah = np.moveaxis(a, -1, 0)
    bx, by, bw, bh = np.moveaxis(b, -1, 0)
    # a sum or product beyond the float range gives the inf or nan that iou's float arithmetic gives
    with np.errstate(over="ignore", invalid="ignore"):
        inter_w = np.maximum(0.0, np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx))
        inter_h = np.maximum(0.0, np.minimum(ay + ah, by + bh) - np.maximum(ay, by))
        inter = inter_w * inter_h
        # iou returns 0.0 without dividing where inter <= 0; so does every such pair here
        disjoint = inter <= 0.0
        union = np.where(disjoint, 1.0, aw * ah + bw * bh - inter)
        return np.where(disjoint, 0.0, inter / union)


def _box_array(boxes: Sequence[BoundingBox]) -> np.ndarray:
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def size_bucket(box: BoundingBox) -> SizeBucket:
    """Bucket a ground-truth box by area: excluded, small, or large."""
    area = box.area
    if area < SMALL_MIN_AREA:
        return SizeBucket.EXCLUDED
    if area <= SMALL_MAX_AREA:
        return SizeBucket.SMALL
    return SizeBucket.LARGE


@dataclass(frozen=True)
class Assignment:
    """A one-to-one row/column pairing and its summed cost."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float

    def __post_init__(self) -> None:
        rows = [r for r, _ in self.pairs]
        cols = [c for _, c in self.pairs]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise InvariantError("Assignment pairs must use each row and column at most once")


def hungarian_assign(cost: Sequence[Sequence[float]]) -> Assignment:
    """Minimum-cost assignment over an n x m cost matrix.

    Returns min(n, m) pairs: the cheapest way to use every row (or every
    column, whichever side is smaller).  Among equal-cost optima, which one
    is returned is unspecified.
    """
    rows = [list(r) for r in cost]
    n = len(rows)
    if n == 0:
        raise InvariantError("cost matrix must have at least one row")
    m = len(rows[0])
    if m == 0:
        raise InvariantError("cost matrix must have at least one column")
    for i, row in enumerate(rows):
        if len(row) != m:
            raise InvariantError(f"cost matrix row {i} has {len(row)} entries, expected {m}")
        for j, v in enumerate(row):
            if not (isinstance(v, (int, float)) and abs(v) <= sys.float_info.max):  # an int too, unlike isfinite
                shown = repr(v)
                if isinstance(v, int):  # past the float range, where its repr runs to hundreds of digits
                    from decimal import Decimal

                    shown = f"{Decimal(v):.6g}"
                raise InvariantError(f"cost[{i}][{j}] must be finite (got {shown})")

    # imported here: scipy.optimize takes longer to import than a whole CLI run takes to start,
    # and no command solves an assignment
    from scipy.optimize import linear_sum_assignment

    row_ind, col_ind = linear_sum_assignment(np.array(rows, dtype=np.float64))
    pairs = sorted(zip(row_ind.tolist(), col_ind.tolist()))
    total = sum(rows[i][j] for i, j in pairs)  # exact for integer costs
    if not abs(total) <= sys.float_info.max:
        from decimal import Decimal  # formats an int of any size; no command reaches this, so not imported at start
        raise InvariantError(f"total cost {Decimal(total):.6g} is outside the float range")
    return Assignment(tuple(pairs), float(total))


def checked_score(score: float) -> float:
    """A prediction score, or InvariantError if it is not a number in [0, 1]."""
    if not (isinstance(score, (int, float)) and 0.0 <= score <= 1.0):
        raise InvariantError(f"prediction score in [0, 1] violated (got {score!r})")
    return score


class DetectionColumns(NamedTuple):
    """Detections as flat columns, one row per detection.

    ``frame`` is each row's frame as its position in the caller's sorted
    list of frames, so a frame index of any size fits; ``box`` holds
    (x, y, w, h) per row.
    """

    frame: np.ndarray  # int64, (n,)
    box: np.ndarray  # float64, (n, 4)
    score: np.ndarray  # float64, (n,)


def detection_columns(rows: Iterable[tuple[int, BoundingBox, float]]) -> DetectionColumns:
    """Columns of ``(frame position, box, score)`` rows, in row order."""
    frame: list[int] = []
    boxes: list[BoundingBox] = []
    score: list[float] = []
    for f, b, s in rows:
        frame.append(f)
        boxes.append(b)
        score.append(s)
    return DetectionColumns(np.array(frame, dtype=np.int64), _box_array(boxes), np.array(score, dtype=np.float64))


# IoU cells per padded batch of frames; bounds the size of the matcher's working arrays
_BATCH_CELLS = 1 << 14


def match_frames(
    preds: DetectionColumns, truth: DetectionColumns, thresholds: Sequence[float], open_truth: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy score-ranked matching in every frame, at every threshold at once.

    Each frame's predictions are visited in descending score order (ties:
    lower row first); each takes the still-free truth box of its frame with
    the highest IoU at or above the threshold (ties: lower row).  At
    ``thresholds[k]`` only the truth rows where ``open_truth[k]`` is true
    can be taken.

    Returns ``(order, matched)``: ``order`` lists the prediction rows in
    visiting order (by frame, then score, then row), and ``matched[k, e]``
    is the truth row that ``order[e]`` takes at ``thresholds[k]``, or -1.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    lanes = len(thresholds)
    order = np.lexsort((-preds.score, preds.frame))
    matched = np.full((lanes, len(order)), -1, dtype=np.int64)
    truth_order = np.argsort(truth.frame, kind="stable")
    truth_frame = truth.frame[truth_order]
    frames, p_start, p_count = np.unique(preds.frame[order], return_index=True, return_counts=True)
    g_start = np.searchsorted(truth_frame, frames)
    g_count = np.searchsorted(truth_frame, frames, side="right") - g_start

    # frames whose prediction and truth counts have the same bit length share
    # a batch, padded to the batch's largest; a frame with no truth matches nothing
    size_class = np.frexp(p_count)[1] * 64 + np.frexp(g_count)[1]
    for c in np.unique(size_class[g_count > 0]):
        same_class = np.flatnonzero((size_class == c) & (g_count > 0))
        rows_wide = int(p_count[same_class].max())
        cols_wide = int(g_count[same_class].max())
        per_batch = max(1, _BATCH_CELLS // (max(rows_wide, lanes) * cols_wide))
        for lo in range(0, len(same_class), per_batch):
            batch = same_class[lo:lo + per_batch]
            entries = p_start[batch, None] + np.arange(rows_wide)
            entry_ok = np.arange(rows_wide) < p_count[batch, None]
            cols = g_start[batch, None] + np.arange(cols_wide)
            col_ok = np.arange(cols_wide) < g_count[batch, None]
            # padding repeats a frame's first row or column: a padded prediction
            # comes after every real one of its frame, a padded truth box is never free
            pred_rows = order[np.where(entry_ok, entries, entries[:, :1])]
            truth_rows = truth_order[np.where(col_ok, cols, cols[:, :1])]
            ious = _iou(preds.box[pred_rows][:, :, None, :], truth.box[truth_rows][:, None, :, :])
            free = open_truth[:, truth_rows].transpose(1, 0, 2) & col_ok[:, None, :]
            picks = _greedy_padded(ious, free, thresholds)
            taken = np.where(picks >= 0, truth_rows[np.arange(len(batch))[:, None, None], picks], -1)
            matched[:, entries[entry_ok]] = taken.transpose(1, 0, 2)[:, entry_ok]
    return order, matched


def _greedy_padded(ious: np.ndarray, free: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Greedy matching over a padded batch of frames, one row position at a time.

    ``ious`` is (frames, rows, cols), rows in visiting order; ``free`` is
    (frames, lanes, cols), the truth columns open at each threshold.
    Returns (frames, lanes, rows): the column each row takes, or -1.
    """
    n_frames, rows_wide, cols_wide = ious.shape
    lanes = len(thresholds)
    # a taken or closed column scores -inf, so it is never the best
    penalty = np.ascontiguousarray(np.where(free, 0.0, -np.inf))
    scored = np.empty_like(penalty)
    penalty_flat, scored_flat = penalty.reshape(-1), scored.reshape(-1)
    # the flat index of each (frame, lane)'s first column, and its threshold
    row_base = np.arange(n_frames * lanes) * cols_wide
    lane_threshold = np.tile(thresholds, n_frames)
    picks = np.empty((rows_wide, n_frames * lanes), dtype=np.int64)
    for p in range(rows_wide):
        np.add(ious[:, p, None, :], penalty, out=scored)
        # argmax takes the first of equal IoUs: the lower column wins a tie
        picks[p] = scored.argmax(axis=2).reshape(-1)
        at = row_base + picks[p]
        hit = scored_flat[at] >= lane_threshold
        penalty_flat[at[hit]] = -np.inf
        picks[p, ~hit] = -1
    return picks.T.reshape(n_frames, lanes, rows_wide)


def match_detections(
    preds: Sequence[tuple[BoundingBox, float]],
    gts: Sequence[BoundingBox],
    iou_threshold: float,
) -> list[int | None]:
    """Greedy score-ordered matching of predictions to ground-truth boxes.

    Predictions are visited in descending score order (ties: lower input
    index first); each takes the still-unmatched ground truth with the
    highest IoU at or above the threshold (ties: lower gt index).  Returns,
    aligned with the input order, the matched gt index or None.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise InvariantError(f"iou_threshold in (0, 1] violated (got {iou_threshold!r})")
    columns = detection_columns((0, box, checked_score(score)) for box, score in preds)
    truth = detection_columns((0, g, 0.0) for g in gts)
    order, matched = match_frames(columns, truth, (iou_threshold,), np.ones((1, len(gts)), dtype=bool))
    result: list[int | None] = [None] * len(preds)
    for i, g in zip(order.tolist(), matched[0].tolist()):
        if g >= 0:
            result[i] = g
    return result

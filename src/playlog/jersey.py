"""Jersey number assembly from per-digit detections.

A player crop yields zero or more digit detections; a confidence gate and
overlap suppression clean them up, and the survivors are read left to
right as one decimal number.  ``assemble_numbers`` does the same for many
crops at once, on arrays, for crops of at most two digit detections, as a
jersey shows; a crop with more takes the scalar functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DigitDetection, InvariantError, PlayerDetection
from .matching import _iou, iou


@dataclass(frozen=True)
class AssemblyConfig:
    """Thresholds for digit cleanup and composition."""

    iou_suppress_threshold: float = 0.55
    confidence_threshold: float = 0.97
    max_digits: int = 2

    def __post_init__(self) -> None:
        for name in ("iou_suppress_threshold", "confidence_threshold"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and 0.0 < v < 1.0):
                raise InvariantError(f"AssemblyConfig.{name} in (0, 1) violated (got {v!r})")
        if not (isinstance(self.max_digits, int) and self.max_digits >= 1):
            raise InvariantError(f"AssemblyConfig.max_digits >= 1 violated (got {self.max_digits!r})")


def _rank_key(d: DigitDetection) -> tuple:
    # Value-determined ordering (no reliance on list position) so that
    # suppression and assembly are invariant under input permutation.
    box = d.box
    return (-d.confidence, box.x + box.w / 2.0, d.digit, box.x, box.y, box.w, box.h)


def _place_key(d: DigitDetection) -> tuple:
    # Left to right by center; equal centers by rank.  Sorting by this key
    # orders digits as a stable sort by (center, -confidence) of
    # rank-ordered digits does.
    box = d.box
    return (box.x + box.w / 2.0, -d.confidence, d.digit, box.x, box.y, box.w, box.h)


def suppress_digits(
    digits: Sequence[DigitDetection],
    config: AssemblyConfig | None = None,
) -> list[DigitDetection]:
    """Confidence-gate then greedily suppress overlapping digit detections.

    Detections below the confidence threshold are dropped; the rest are
    visited in descending confidence and any candidate overlapping an
    already-kept detection at or above the IoU threshold is discarded.
    Returns survivors in descending confidence order.  Idempotent.
    """
    cfg = config or AssemblyConfig()
    candidates = sorted((d for d in digits if d.confidence >= cfg.confidence_threshold), key=_rank_key)
    overlap = cfg.iou_suppress_threshold
    kept: list[DigitDetection] = []
    for d in candidates:
        for k in kept:
            if iou(d.box, k.box) >= overlap:
                break
        else:
            kept.append(d)
    return kept


def assemble_number(
    digits: Sequence[DigitDetection],
    config: AssemblyConfig | None = None,
) -> int | None:
    """Compose suppressed digit detections into a jersey number.

    Expects already-suppressed survivors.  Keeps the max_digits most
    confident detections, orders them by ascending horizontal center
    (equal centers: higher confidence takes the more significant place),
    and concatenates the digit classes as a decimal number.  No digits
    yields None.
    """
    if not digits:
        return None
    cfg = config or AssemblyConfig()
    if len(digits) > cfg.max_digits:
        # only a cut needs the rank order; within the cap _place_key decides
        digits = sorted(digits, key=_rank_key)[: cfg.max_digits]
    number = 0
    for d in sorted(digits, key=_place_key):
        number = 10 * number + d.digit
    return number


def assemble_detection(detection: PlayerDetection, config: AssemblyConfig) -> PlayerDetection:
    """``detection`` with the number that suppress_digits and assemble_number make of its digits."""
    return detection.with_number(assemble_number(suppress_digits(detection.digits, config), config))


def assemble_numbers(
    digits: np.ndarray, confidences: np.ndarray, boxes: np.ndarray, config: AssemblyConfig
) -> np.ndarray:
    """assemble_number(suppress_digits(...)) of each row of at most two digit detections, as a jersey shows, on arrays.

    ``digits`` and ``confidences`` are (rows, k) for k of 0, 1 or 2,
    ``boxes`` (rows, k, 4) holding x, y, w, h; every value must pass the
    checks of DigitDetection and BoundingBox.  Gives one int64 per row: -1
    for no number, else the number.  Nothing is sorted: one digit is only
    gated, and two compare their _rank_key and _place_key fields once, a
    digit going ahead of an equal one after it, as in a stable sort.  The
    suppression compares the IoU that ``iou`` gives, bit for bit.
    """
    rows, k = digits.shape
    if k > 2:
        raise ValueError(f"assemble_numbers reads rows of at most 2 digits, got {k}")
    if k == 0:
        return np.full(rows, -1, dtype=np.int64)
    gated = confidences >= config.confidence_threshold
    if k == 1:
        return np.where(gated[:, 0], digits[:, 0], -1)
    x, y, w, h = np.moveaxis(boxes, -1, 0)
    rank = np.stack((-confidences, x + w / 2.0, digits, x, y, w, h))  # the fields of _rank_key, (7, rows, 2)
    zero_first = _ahead(rank[..., 0], rank[..., 1])
    place = rank[[1, 0, 2, 3, 4, 5, 6]]  # the fields of _place_key; equal place keys are equal digits
    zero_left = _ahead(place[..., 0], place[..., 1])
    ranked = np.where(zero_first[:, None, None], boxes, boxes[:, ::-1])
    # the second-ranked digit is kept unless it overlaps the first, iou(second, first) as suppress_digits takes it
    overlap = _iou(ranked[:, 1], ranked[:, 0]) >= config.iou_suppress_threshold
    both = gated[:, 0] & gated[:, 1] & ~overlap & (config.max_digits >= 2)
    zero, one = digits.T
    lead = np.where(gated[:, 0] & (zero_first | ~gated[:, 1]), zero, one)  # the best-ranked gated digit
    number = np.where(gated[:, 0] | gated[:, 1], lead, -1)
    return np.where(both, np.where(zero_left, 10 * zero + one, 10 * one + zero), number)


def _ahead(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # per column, whether key a (its fields along the first axis) sorts no later than key b
    ahead = np.ones(a.shape[1:], dtype=bool)
    for p, q in zip(a[::-1], b[::-1]):
        ahead = (p < q) | ((p == q) & ahead)
    return ahead

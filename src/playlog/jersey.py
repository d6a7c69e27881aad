"""Jersey number assembly from per-digit detections.

A player crop yields zero or more digit detections; a confidence gate and
overlap suppression clean them up, and the survivors are read left to
right as one decimal number.  ``assemble_numbers`` does the same for many
crops at once, on arrays.
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


ABOVE_99 = 100  # what assemble_numbers gives for a number above 99


def assemble_numbers(
    digits: np.ndarray, confidences: np.ndarray, boxes: np.ndarray, config: AssemblyConfig
) -> np.ndarray:
    """assemble_number(suppress_digits(...)) of each row of k digit detections, on arrays.

    ``digits`` and ``confidences`` are (rows, k), ``boxes`` (rows, k, 4)
    holding x, y, w, h; every value must pass the checks of DigitDetection
    and BoundingBox.  Gives one int64 per row: -1 for no number, ABOVE_99
    for a number above 99 (the composition saturates there, so it cannot
    overflow), else the number.  Each step keeps the scalar one's order:
    the rank and place orders sort by the fields of _rank_key and
    _place_key (ties keep input order, as a stable sort does), and the
    suppression compares the IoU that ``iou`` gives, bit for bit.  Rows of
    one or two digits, as a jersey shows, take no sort: one digit is only
    gated, and two compare their keys once.
    """
    rows, k = digits.shape
    if k == 0:
        return np.full(rows, -1, dtype=np.int64)
    x, y, w, h = np.moveaxis(boxes, -1, 0)
    center = x + w / 2.0
    gated = confidences >= config.confidence_threshold
    if k == 1:
        return np.where(gated[:, 0], digits[:, 0], -1)
    if k == 2:
        return _assemble_pairs(digits, gated, boxes, np.stack((-confidences, center, digits, x, y, w, h)), config)
    # rank order, gated-out digits last
    rank = np.lexsort((h, w, y, x, digits, center, -confidences, ~gated))
    gated, digits, confidences, center, x, y, w, h = (
        np.take_along_axis(a, rank, axis=1) for a in (gated, digits, confidences, center, x, y, w, h)
    )
    ranked = np.stack((x, y, w, h), axis=-1)
    # overlaps[r, i, j]: digit i overlaps digit j at the threshold, iou(box i, box j) as suppress_digits takes it
    overlaps = _iou(ranked[:, :, None, :], ranked[:, None, :, :]) >= config.iou_suppress_threshold
    kept = np.zeros((rows, k), dtype=bool)
    for i in range(k):
        kept[:, i] = gated[:, i] & ~(kept[:, :i] & overlaps[:, i, :i]).any(axis=1)
    kept &= np.cumsum(kept, axis=1) <= config.max_digits
    # place order, dropped digits last
    place = np.lexsort((h, w, y, x, digits, -confidences, center, ~kept))
    kept, digits = np.take_along_axis(kept, place, axis=1), np.take_along_axis(digits, place, axis=1)
    composed = np.zeros(rows, dtype=np.int64)
    for i in range(k):
        composed = np.where(kept[:, i], np.minimum(10 * composed + digits[:, i], ABOVE_99), composed)
    return np.where(kept[:, 0], composed, -1)


def _assemble_pairs(
    digits: np.ndarray, gated: np.ndarray, boxes: np.ndarray, keys: np.ndarray, config: AssemblyConfig
) -> np.ndarray:
    # assemble_numbers of rows of two digits, 0 and 1, without sorting: ``keys``
    # holds the fields of _rank_key, (7, rows, 2), and one comparison of the two
    # keys gives each order; a digit ranks ahead of an equal one after it, as
    # in a stable sort.  Equal place keys are equal digits, so either reads.
    zero_first = _ahead(keys[..., 0], keys[..., 1])
    place = keys[[1, 0, 2, 3, 4, 5, 6]]  # the fields of _place_key
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

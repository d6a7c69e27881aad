"""Jersey number assembly from per-digit detections.

A player crop yields zero or more digit detections; a confidence gate and
overlap suppression clean them up, and the survivors are read left to
right as one decimal number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import DigitDetection, InvariantError
from .matching import iou


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
    threshold = cfg.confidence_threshold
    candidates = [d for d in digits if d.confidence >= threshold]
    if len(candidates) <= 1:
        return candidates
    candidates.sort(key=_rank_key)
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
    if len(digits) == 1:
        return int(digits[0].digit)
    cfg = config or AssemblyConfig()
    if len(digits) > cfg.max_digits:
        # only a cut needs the rank order; within the cap _place_key decides
        digits = sorted(digits, key=_rank_key)[: cfg.max_digits]
    number = 0
    for d in sorted(digits, key=_place_key):
        number = 10 * number + d.digit
    return number

"""Box geometry and bipartite matching.

The assignment solver is the augmenting-path formulation with row/column
potentials (O(n^3)); the exhaustive permutation check lives in the test
suite, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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
    inter_w = max(0.0, min(a.right, b.right) - max(a.x, b.x))
    inter_h = max(0.0, min(a.bottom, b.bottom) - max(a.y, b.y))
    inter = inter_w * inter_h
    if inter <= 0.0:
        return 0.0
    union = a.area + b.area - inter
    return inter / union


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

    Returns min(n, m) pairs.  Rectangular inputs are padded internally with
    zero-cost dummy rows/columns, so the result is the cheapest way to use
    every row (or every column, whichever side is smaller).
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
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise InvariantError(f"cost[{i}][{j}] must be finite (got {v!r})")

    k = max(n, m)
    a = [[float(rows[i][j]) if i < n and j < m else 0.0 for j in range(k)] for i in range(k)]

    inf = math.inf
    u = [0.0] * (k + 1)
    v = [0.0] * (k + 1)
    match = [0] * (k + 1)  # match[j] = row assigned to column j, 1-based
    way = [0] * (k + 1)
    for i in range(1, k + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (k + 1)
        used = [False] * (k + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = 0
            for j in range(1, k + 1):
                if used[j]:
                    continue
                cur = a[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(k + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1

    pairs = sorted(
        (match[j] - 1, j - 1)
        for j in range(1, k + 1)
        if match[j] != 0 and match[j] - 1 < n and j - 1 < m
    )
    total = sum(rows[i][j] for i, j in pairs)
    return Assignment(tuple(pairs), float(total))


def score_order(preds: Sequence[tuple[BoundingBox, float]]) -> list[int]:
    """Greedy visiting order of the predictions (score desc, then index); checks every score."""
    for _, score in preds:
        if not (isinstance(score, (int, float)) and 0.0 <= score <= 1.0):
            raise InvariantError(f"prediction score in [0, 1] violated (got {score!r})")
    return sorted(range(len(preds)), key=lambda i: (-preds[i][1], i))


def greedy_match(iou_rows: Sequence[Sequence[float]], iou_threshold: float) -> list[int | None]:
    """Matched gt index (or None) per row of IoUs with every ground truth, rows in
    visiting order: each takes the free gt of highest IoU >= threshold (ties: lower index)."""
    taken: set[int] = set()
    result: list[int | None] = []
    for row in iou_rows:
        best: int | None = None
        for g, v in enumerate(row):
            if v >= iou_threshold and (best is None or v > row[best]) and g not in taken:
                best = g
        if best is not None:
            taken.add(best)
        result.append(best)
    return result


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
    order = score_order(preds)
    matches = greedy_match([[iou(preds[i][0], gt) for gt in gts] for i in order], iou_threshold)
    by_index = dict(zip(order, matches))
    return [by_index[i] for i in range(len(preds))]

"""Hand-rolled reference implementations the test suite checks against.

Nothing in here imports the package under test.  Boxes are plain
``(x, y, w, h)`` tuples, predictions are ``(box, score)`` pairs, and the
algorithms favour being obviously correct over being fast: assignment is
solved by enumerating permutations, AP by scanning every curve point for
every grid recall.  Keep inputs small.
"""

import itertools
import math

EXCLUDED_BELOW = 32 * 32
SMALL_UP_TO = 96 * 96


def brute_force_assignment(cost):
    """Minimum-cost one-to-one assignment by exhaustive permutation search.

    ``cost`` is a rectangular list of lists.  Returns ``(total, pairs)``
    where pairs is a sorted tuple of (row, col).  Only the total is
    canonical; ties between distinct optimal assignments are broken
    arbitrarily.
    """
    n = len(cost)
    m = len(cost[0])
    best_total = None
    best_pairs = None
    if n <= m:
        for perm in itertools.permutations(range(m), n):
            total = sum(cost[i][perm[i]] for i in range(n))
            if best_total is None or total < best_total:
                best_total = total
                best_pairs = tuple(sorted((i, perm[i]) for i in range(n)))
    else:
        for perm in itertools.permutations(range(n), m):
            total = sum(cost[perm[j]][j] for j in range(m))
            if best_total is None or total < best_total:
                best_total = total
                best_pairs = tuple(sorted((perm[j], j) for j in range(m)))
    return best_total, best_pairs


def ref_iou(a, b):
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = min(ax + aw, bx + bw) - max(ax, bx)
    iy = min(ay + ah, by + bh) - max(ay, by)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (aw * ah + bw * bh - inter)


def ref_bucket(box):
    area = box[2] * box[3]
    if area < EXCLUDED_BELOW:
        return "excluded"
    if area <= SMALL_UP_TO:
        return "small"
    return "large"


def ref_greedy_match(preds, gts, threshold):
    """Greedy one-to-one matching; returns a gt index (or None) per pred."""
    assigned = [None] * len(preds)
    taken = set()
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][1], i))
    for i in order:
        best_gt = None
        best_iou = 0.0
        # scanning gts in index order makes "first at the best IoU" the
        # lower-index tie winner
        for g, gt in enumerate(gts):
            if g in taken:
                continue
            v = ref_iou(preds[i][0], gt)
            if v >= threshold and v > best_iou:
                best_gt = g
                best_iou = v
        if best_gt is not None:
            assigned[i] = best_gt
            taken.add(best_gt)
    return assigned


def ref_ap(flags, num_gt):
    """101-point interpolated AP from ranked hit flags."""
    if num_gt == 0:
        return 0.0
    tp = 0
    points = []
    for rank, hit in enumerate(flags, start=1):
        if hit:
            tp += 1
        points.append((tp / num_gt, tp / rank))
    total = 0.0
    for k in range(101):
        grid = k / 100
        best = 0.0
        for recall, precision in points:
            if recall >= grid and precision > best:
                best = precision
        total += best
    return total / 101


def ref_evaluate(preds, gts, thresholds=None, max_detections=100):
    """Reference detection scores over the IoU sweep and size buckets.

    ``preds``: {frame: [((x, y, w, h), score), ..]}
    ``gts``:   {frame: [(x, y, w, h), ..]}
    Returns a dict with the same keys as the library report.
    """
    if thresholds is None:
        thresholds = [round(0.50 + 0.05 * i, 2) for i in range(10)]

    kept = {f: [g for g in gts[f] if ref_bucket(g) != "excluded"] for f in gts}
    num_gt = sum(len(v) for v in kept.values())
    num_gt_bucket = {
        b: sum(1 for v in kept.values() for g in v if ref_bucket(g) == b)
        for b in ("small", "large")
    }

    rank = sorted(
        ((f, i) for f in preds for i in range(len(preds[f]))),
        key=lambda fi: (-preds[fi[0]][fi[1]][1], fi[0], fi[1]),
    )

    ap_at = {}
    ap_bucket = {"small": 0.0, "large": 0.0}
    ar_bucket = {"small": 0.0, "large": 0.0}

    for t in thresholds:
        match_bucket = {}
        for f in preds:
            assigned = ref_greedy_match(preds[f], kept[f], t)
            for i, g in enumerate(assigned):
                match_bucket[(f, i)] = None if g is None else ref_bucket(kept[f][g])

        ap_at[t] = ref_ap([match_bucket[fi] is not None for fi in rank], num_gt)

        for b in ("small", "large"):
            flags = []
            for fi in rank:
                got = match_bucket[fi]
                if got == b:
                    flags.append(True)
                elif got is None and ref_bucket(preds[fi[0]][fi[1]][0]) == b:
                    flags.append(False)
            ap_bucket[b] += ref_ap(flags, num_gt_bucket[b])

        hit = {"small": 0, "large": 0}
        for f in preds:
            order = sorted(range(len(preds[f])), key=lambda i: (-preds[f][i][1], i))
            capped = [preds[f][i] for i in order[:max_detections]]
            for g in ref_greedy_match(capped, kept[f], t):
                if g is not None:
                    hit[ref_bucket(kept[f][g])] += 1
        for b in ("small", "large"):
            if num_gt_bucket[b] > 0:
                ar_bucket[b] += hit[b] / num_gt_bucket[b]

    n = len(thresholds)
    return {
        "ap_range": sum(ap_at.values()) / n,
        "ap_50": ap_at.get(0.50, 0.0),
        "ap_75": ap_at.get(0.75, 0.0),
        "ap_small": ap_bucket["small"] / n,
        "ap_large": ap_bucket["large"] / n,
        "ar_small": ar_bucket["small"] / n,
        "ar_large": ar_bucket["large"] / n,
    }


def ref_focal(p, gamma):
    return -math.log(max(p, 1e-12)) * (1.0 - p) ** gamma


def ref_cross_entropy(p):
    return -math.log(max(p, 1e-12))


def ref_participants(windows, records, side, min_appearances):
    """Participant numbers per window, by counting frames number by number.

    ``windows`` are ``(frame_start, frame_end)`` pairs and ``records`` are
    ``(frame, team, number)`` triples; a number counts once per frame.
    """
    out = []
    for start, end in windows:
        numbers = {n for f, t, n in records if t == side and n is not None and start <= f <= end}
        out.append(sorted(
            n for n in numbers
            if len({f for f, t, m in records if t == side and m == n and start <= f <= end}) >= min_appearances
        ))
    return out

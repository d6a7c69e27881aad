"""Hand-rolled reference implementations the test suite checks against.

Nothing in here imports the package under test.  Boxes are plain
``(x, y, w, h)`` tuples, predictions are ``(box, score)`` pairs, and the
algorithms favour being obviously correct over being fast: assignment is
solved by enumerating permutations, AP by scanning every curve point for
every grid recall.  Keep inputs small.
"""

import itertools
import math

import numpy as np

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



def ref_confusion(preds, gts, threshold=0.5):
    """Reference digit confusion over the pairs that greedy matching makes.

    ``preds``: {frame: [((x, y, w, h), score, number), ..]}
    ``gts``:   {frame: [((x, y, w, h), number), ..]}
    A number is 0..99 or None; a frame may be missing on either side.
    Every truth box is matched, the ones under the area floor too.  A pair
    of numbers with as many digits each adds their digits place by place,
    read off their decimal strings; any other pair of numbers adds a note.
    Frames go in sorted order, a frame's predictions in list order.
    Returns (counts, normalized, notes): counts as 10x10 lists, the counts
    divided by the largest row sum (all 0.0 with no pairs), and the notes.
    """
    counts = [[0] * 10 for _ in range(10)]
    notes = []
    for f in sorted(set(preds) | set(gts)):
        frame_preds, frame_gts = preds.get(f, []), gts.get(f, [])
        scored = [(box, score) for box, score, _ in frame_preds]
        assigned = ref_greedy_match(scored, [box for box, _ in frame_gts], threshold)
        for (_, _, predicted), g in zip(frame_preds, assigned):
            if g is None or predicted is None or frame_gts[g][1] is None:
                continue
            true, predicted = str(frame_gts[g][1]), str(predicted)
            if len(true) != len(predicted):
                notes.append(f"frame {f}: digit counts differ ({true} vs {predicted}), pair skipped")
                continue
            for t, p in zip(true, predicted):
                counts[int(t)][int(p)] += 1
    top = max(sum(row) for row in counts)
    normalized = [[v / top if top else 0.0 for v in row] for row in counts]
    return counts, normalized, notes

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


# -- detection record checks ---------------------------------------------------
#
# Plain restatements of what BoundingBox, DigitDetection and PlayerDetection
# accept and of how parse_detection reads a record line.  A failed check
# raises RefInvariant with the message the package gives; an accepted value
# comes back as the tuple of what the package stores: a box is
# (x, y, w, h), a digit (box, digit, confidence) and a player (frame, box,
# score, digits, number, team).  A check of a value that holds another
# value (a digit's box, a player's box and digits) is told by the caller
# whether the held value has the right type.

RECORD_TEAMS = ("away", "home", "unknown")


class RefInvariant(ValueError):
    """The reference's counterpart of InvariantError."""


class RefRecordError(ValueError):
    """The reference's counterpart of RecordError."""


def _ref_int(owner, name, value):
    if not isinstance(value, int) or isinstance(value, bool):
        raise RefInvariant(f"{owner}.{name} must be an integer (got {value!r})")
    return int(value)


def _ref_finite(owner, name, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise RefInvariant(f"{owner}.{name} must be a number (got {value!r})")
    if not math.isfinite(value):
        raise RefInvariant(f"{owner}.{name} must be finite (got {value!r})")
    return float(value)


def ref_box(x, y, w, h):
    for name, value in (("x", x), ("y", y), ("w", w), ("h", h)):
        _ref_finite("BoundingBox", name, value)
    for name, value in (("x", x), ("y", y)):
        if value < 0:
            raise RefInvariant(f"BoundingBox.{name} >= 0 violated (got {value!r})")
    for name, value in (("w", w), ("h", h)):
        if value <= 0:
            raise RefInvariant(f"BoundingBox.{name} > 0 violated (got {value!r})")
    return (x, y, w, h)


def ref_digit(box, digit, confidence, box_ok):
    if not box_ok:
        raise RefInvariant("DigitDetection.box must be a BoundingBox")
    d = _ref_int("DigitDetection", "digit", digit)
    if d < 0 or d > 9:
        raise RefInvariant(f"DigitDetection.digit in 0..9 violated (got {d})")
    c = _ref_finite("DigitDetection", "confidence", confidence)
    if c < 0.0 or c > 1.0:
        raise RefInvariant(f"DigitDetection.confidence in [0, 1] violated (got {c!r})")
    return (box, digit, confidence)


def ref_jersey_number(number):
    n = _ref_int("PlayerDetection", "number", number)
    if n < 0 or n > 99:
        raise RefInvariant(f"PlayerDetection.number in 0..99 violated (got {n})")


def ref_team(team):
    if team not in set(RECORD_TEAMS):
        raise RefInvariant(f"PlayerDetection.team must be one of {list(RECORD_TEAMS)} (got {team!r})")


def ref_player(frame, box, score, digits, number, team, box_ok, is_digit):
    f = _ref_int("PlayerDetection", "frame_index", frame)
    if f < 0:
        raise RefInvariant(f"PlayerDetection.frame_index >= 0 violated (got {f})")
    if not box_ok:
        raise RefInvariant("PlayerDetection.box must be a BoundingBox")
    s = _ref_finite("PlayerDetection", "score", score)
    if s < 0.0 or s > 1.0:
        raise RefInvariant(f"PlayerDetection.score in [0, 1] violated (got {s!r})")
    digits = tuple(digits)
    for d in digits:
        if not is_digit(d):
            raise RefInvariant("PlayerDetection.digits must hold DigitDetection values")
    if number is not None:
        ref_jersey_number(number)
    ref_team(team)
    return (frame, box, score, digits, number, team)


def ref_box_value(token):
    """float(token), or int(token) when that float is finite and at least 2**53 and int() reads the token."""
    value = float(token)
    if math.isfinite(value) and value >= 2**53:
        try:
            return int(token)
        except ValueError:
            pass
    return value


def ref_parse_detection(line, line_number=None):
    """A record line to its player tuple; RefRecordError with the package's text otherwise.

    The line is ``frame x y w h score team number k`` followed by ``k``
    groups of ``digit confidence x y w h``.  Every token, and so every
    separator, must be ASCII without '_' before any field converts.  Fields
    convert with int() and float() (box fields with ref_box_value), the box
    before the score, and each digit's box before its class and confidence;
    the player's own checks come after its digits.
    """
    prefix = "" if line_number is None else f"record line {line_number}: "
    fields = line.split()
    if len(fields) < 9:
        raise RefRecordError(f"{prefix}expected at least 9 fields, got {len(fields)}")
    for token in fields:
        if not token.isascii() or "_" in token:
            raise RefRecordError(f"{prefix}token {token!r} breaks the number-token rule (ASCII only, no '_')")
    for c in line:
        if not c.isascii():
            raise RefRecordError(f"{prefix}separator {c!r} breaks the number-token rule (ASCII only, no '_')")
    try:
        frame = int(fields[0])
        box = ref_box(*[ref_box_value(v) for v in fields[1:5]])
        score = float(fields[5])
        team = fields[6]
        number = None if fields[7] == "-" else int(fields[7])
        count = int(fields[8])
        rest = fields[9:]
        if count < 0 or len(rest) != 6 * count:
            raise ValueError(f"expected {6 * count} digit fields, got {len(rest)}")
        digits = []
        for start in range(0, len(rest), 6):
            group = rest[start:start + 6]
            digit_box = ref_box(*[ref_box_value(v) for v in group[2:6]])
            digits.append(ref_digit(digit_box, int(group[0]), float(group[1]), box_ok=True))
        return ref_player(frame, box, score, digits, number, team, box_ok=True, is_digit=lambda d: True)
    except ValueError as exc:
        raise RefRecordError(f"{prefix}{exc}") from None


# -- jersey numbers --------------------------------------------------------------
#
# Digits are (digit, confidence, (x, y, w, h)) triples.


def _ref_rank(d):
    digit, confidence, (x, y, w, h) = d
    return (-confidence, x + w / 2.0, digit, x, y, w, h)


def ref_suppress_digits(digits, iou_threshold, confidence_threshold):
    """Gate by confidence, then keep each digit, best rank first, that overlaps no kept one."""
    kept = []
    for d in sorted((d for d in digits if d[1] >= confidence_threshold), key=_ref_rank):
        if all(ref_iou(d[2], k[2]) < iou_threshold for k in kept):
            kept.append(d)
    return kept


def ref_assemble_number(digits, max_digits):
    """The max_digits best-ranked digits read left to right (equal centers: more confident first)."""
    if not digits:
        return None
    kept = sorted(digits, key=_ref_rank)[:max_digits]
    ordered = sorted(kept, key=lambda d: (d[2][0] + d[2][2] / 2.0, -d[1]))
    return int("".join(str(d[0]) for d in ordered))


def ref_channel_histogram(pixels):
    """Per-channel 256-bin counts, (3, 256), and means of an (h, w, 3) uint8 array: a bincount and
    ndarray.mean per channel."""
    counts = np.stack([np.bincount(pixels[:, :, c].reshape(-1), minlength=256) for c in range(3)])
    return counts, tuple(float(pixels[:, :, c].mean()) for c in range(3))


def ref_strip(pixels, strip_height_fraction, strip_width_fraction):
    """The centered strip of an (h, w, 3) array, at least 1x1, an odd leftover border at the bottom/right."""
    height, width = pixels.shape[:2]
    rows = max(1, round(height * strip_height_fraction))
    cols = max(1, round(width * strip_width_fraction))
    top, left = (height - rows) // 2, (width - cols) // 2
    return pixels[top : top + rows, left : left + cols]


def ref_classify_team(means, home, away):
    """home, away or unknown for a tuple of three channel means, one profile at a time in Python floats:
    a dominant channel exceeds each other mean by at least the margin, no dominant channel keeps every
    mean within it; exactly one matching profile wins."""

    def matches(profile):
        if profile.mode == "dominant-channel":
            c = ("red", "green", "blue").index(profile.channel)
            return all(means[c] - means[i] >= profile.dominance_margin for i in range(3) if i != c)
        return max(means) - min(means) < profile.dominance_margin

    labels = [p.label for p in (home, away) if matches(p)]
    return labels[0] if len(labels) == 1 else "unknown"


def ref_read_header_tokens(data, count, start):
    """The ``count`` decimal tokens of a PPM/PGM header from ``start``, walked one byte at a time.

    Whitespace is skipped; a '#' where a token could start comments out the
    rest of its line.  Returns the tokens and the offset just past the one
    whitespace byte that must follow the last; RefInvariant with the
    package's text otherwise.
    """
    tokens = []
    i = start
    while len(tokens) < count:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        if j == i:
            raise RefInvariant("truncated image header")
        token = data[i:j]
        if not token.isdigit():
            raise RefInvariant(f"bad image header token {token!r}")
        tokens.append(int(token))
        i = j
    if i >= len(data) or not data[i : i + 1].isspace():
        raise RefInvariant("image header must end with whitespace")
    return tokens, i + 1

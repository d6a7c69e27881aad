"""Rosters, detection record serialization, and game log emission.

Detection records are line-delimited text, one player detection per line:

    frame x y w h score team number k [digit conf x y w h] * k

``number`` is "-" until jersey assembly fills it in.  The game log itself
comes out either as a delimited table (header row, comma-separated) or as
structured records (one JSON object per line).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .clock import format_mmss, parse_mmss
from .core import (
    BoundingBox,
    DigitDetection,
    GameLogEntry,
    InvariantError,
    PlayerDetection,
    PlayWindow,
    Roster,
    VALID_TEAMS,
)
from .jersey import AssemblyConfig, assemble_detection, assemble_numbers
from .textfile import content_lines, keeps_number_rule, number_rule_break, number_token

LOG_HEADER = (
    "Play number",
    "Quarter",
    "Start time",
    "End time",
    "Home",
    "Away",
    "Participating players of Home team",
)


class RecordError(ValueError):
    """A roster or detection record line could not be parsed."""


def load_roster(lines: Iterable[str], team_name: str = "") -> Roster:
    """Parse ``number: name[; name]...`` roster lines.

    '#' comments and blank lines are skipped.  A number may appear on
    several lines; names accumulate in source order.  Repeating an exact
    (number, name) pair is an error, as is a number outside 0..99.
    """
    entries: dict[int, list[str]] = {}
    for line_number, raw, stripped in content_lines(lines):
        head, sep, tail = stripped.partition(":")
        try:
            number = int(number_token(head))
        except ValueError:
            number = None
        if sep == "" or number is None:
            raise RecordError(f"roster line {line_number}: expected 'number: name[; name]...', got {raw!r}")
        if not 0 <= number <= 99:
            raise RecordError(f"roster line {line_number}: number {number} outside 0..99")
        names = [n.strip() for n in tail.split(";")]
        if any(n == "" for n in names):
            raise RecordError(f"roster line {line_number}: empty name")
        bucket = entries.setdefault(number, [])
        for name in names:
            if name in bucket:
                raise RecordError(f"roster line {line_number}: duplicate entry {number}: {name}")
            bucket.append(name)
    return Roster(team_name=team_name, entries={k: tuple(v) for k, v in entries.items()})


def roster_lines(roster: Roster) -> str:
    """Inverse of load_roster, numbers ascending."""
    return "".join(
        f"{number}: {'; '.join(names)}\n" for number, names in sorted(roster.entries.items())
    )


def _format_value(value: float) -> str:
    # integers stay integers so record lines round-trip byte-identically;
    # an int is written exactly, also above 2**53 where float() would round it
    if isinstance(value, int) or float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def _format_box(box: BoundingBox) -> str:
    return " ".join(_format_value(v) for v in (box.x, box.y, box.w, box.h))


def serialize_detection(detection: PlayerDetection) -> str:
    """One detection record line (no trailing newline)."""
    parts = [
        str(detection.frame_index),
        _format_box(detection.box),
        _format_value(detection.score),
        detection.team,
        "-" if detection.number is None else str(detection.number),
        str(len(detection.digits)),
    ]
    for d in detection.digits:
        parts.append(f"{d.digit} {_format_value(d.confidence)} {_format_box(d.box)}")
    return " ".join(parts)


_EXACT = 2.0 ** 53  # from here up a float no longer holds every integer


def _box_value(text: str) -> float:
    """A box field: float(text), but an integer token whose float is at least 2**53 reads as an exact int."""
    value = float(text)
    if value >= _EXACT and math.isfinite(value):
        try:
            return int(text)
        except ValueError:  # a fraction or an exponent: not an integer token
            pass
    return value


def parse_detection(line: str, line_number: int | None = None) -> PlayerDetection:
    """Inverse of serialize_detection."""
    prefix = f"record line {line_number}: " if line_number is not None else ""
    fields = line.split()
    n = len(fields)
    if n < 9:
        raise RecordError(f"{prefix}expected at least 9 fields, got {n}")
    if not keeps_number_rule(line):
        raise RecordError(f"{prefix}{number_rule_break(line)}")
    try:
        # Fields are indexed directly.  Conversions and checking constructors
        # run in a fixed order (each digit's box before its class and
        # confidence, the player's own range checks last), which decides
        # the error reported for a line with several bad fields.
        frame = int(fields[0])
        box = BoundingBox(*map(_box_value, fields[1:5]))
        score = float(fields[5])
        team = fields[6]
        number = None if fields[7] == "-" else int(fields[7])
        count = int(fields[8])
        if n - 9 != 6 * count:  # a negative count never matches
            raise ValueError(f"expected {6 * count} digit fields, got {n - 9}")
        digits = []
        for i in range(9, n, 6):
            digit_box = BoundingBox(*map(_box_value, fields[i + 2:i + 6]))
            digits.append(DigitDetection(digit_box, int(fields[i]), float(fields[i + 1])))
        return PlayerDetection(frame, box, score, tuple(digits), number, team)
    except (ValueError, InvariantError) as exc:
        raise RecordError(f"{prefix}{exc}") from None


def iter_detections(
    lines: Iterable[str], skipped: list[tuple[int, str]], strict: bool = False
) -> Iterator[tuple[int, PlayerDetection]]:
    """Lazily parse a detection record stream: ``(line number, detection)`` per record.

    Blank and '#' lines are ignored.  A malformed line is appended to
    ``skipped`` as ``(line number, diagnostic)``, or raised when strict.
    Each line is parsed when the caller asks for its record, so a caller
    that consumes records as they come never holds the whole stream.
    """
    for line_number, _, stripped in content_lines(lines):
        d = _parsed(line_number, stripped, skipped, strict)
        if d is not None:
            yield line_number, d


def _parsed(line_number: int, stripped: str, skipped: list[tuple[int, str]], strict: bool) -> PlayerDetection | None:
    # parse_detection of one content line; a malformed one is added to ``skipped`` (None), or raised when strict
    try:
        return parse_detection(stripped, line_number)
    except RecordError as exc:
        if strict:
            raise
        skipped.append((line_number, str(exc)))
        return None


def group_by_frame(detections: Iterable[PlayerDetection]) -> dict[int, tuple[PlayerDetection, ...]]:
    """Detections keyed by frame, in first-seen frame order; order within a frame is kept."""
    by_frame: dict[int, list[PlayerDetection]] = {}
    for d in detections:
        by_frame.setdefault(d.frame_index, []).append(d)
    return {f: tuple(v) for f, v in by_frame.items()}


@dataclass(frozen=True)
class DetectionLoadResult:
    """Detections grouped by frame plus one diagnostic per skipped line."""

    by_frame: Mapping[int, tuple[PlayerDetection, ...]]
    diagnostics: tuple[str, ...]


def load_detections(lines: Iterable[str], strict: bool = False) -> DetectionLoadResult:
    """Parse a detection record stream, grouping by frame.

    Order within a frame is preserved.  Malformed lines are skipped with a
    diagnostic, or raised when strict.
    """
    skipped: list[tuple[int, str]] = []
    by_frame = group_by_frame(d for _, d in iter_detections(lines, skipped, strict))
    return DetectionLoadResult(by_frame=by_frame, diagnostics=tuple(text for _, text in skipped))


def resolve_names(number: int, roster: Roster) -> str:
    """Roster names joined with " or "; unrostered numbers are labeled."""
    names = roster.entries.get(number)
    if names is None:
        return f"#{number} (unrostered)"
    return " or ".join(names)


def presence_table(detections: Iterable[PlayerDetection], side: str) -> np.ndarray:
    """The presence keys (frame times 100 plus number) of ``side``'s numbered records, in stream order, repeats kept."""
    seen = [(d.frame_index, d.number) for d in detections if d.team == side and d.number is not None]
    return _presence_keys(np.array([f for f, _ in seen], object), np.array([n for _, n in seen], np.int64))


def _presence_keys(frame: np.ndarray, number: np.ndarray) -> np.ndarray:
    # the presence key of each (frame, number): int64, or Python ints (object) once
    # a frame is past the last whose keys int64 holds, where an int64 key would wrap
    dtype = object if len(frame) and frame.max() > (np.iinfo(np.int64).max - 99) // 100 else np.int64
    return frame.astype(dtype) * 100 + number.astype(dtype)


# Record lines that read_records reads and checks together.  Blocks of
# about 1k lines are as fast as larger ones, and each larger block raises
# the peak memory.
BLOCK_LINES = 1024


# Lines of a block whose fields do not all convert are halved and parsed
# again, so that only the lines with a bad field take the scalar chain.  One
# bad line among BLOCK_LINES fails 10 parses.  Where bad lines are dense the
# failed parses cost more than the scalar parses they spare, so after this
# many failures in one block, a part that fails goes to the scalar chain whole.
FAILED_PARSES = 16


class RecordBlock(NamedTuple):
    """The records that read_records accepts from one block of lines, in line order, as array columns."""

    line: np.ndarray  # int64, (n,): the line number of each record
    frame: np.ndarray  # (n,): int64, or object (Python ints) when _read_block finds a frame past int64
    box: np.ndarray  # float64, (n, 4): x, y, w, h
    score: np.ndarray  # float64, (n,)
    team: np.ndarray  # str, (n,)
    number: np.ndarray  # int64, (n,): the jersey number, or -1 for none
    lines: Callable[[], list[str]]  # each record's serialize_detection line, made when called

    def presence(self, side: str) -> np.ndarray:
        """The presence keys of the numbered records of ``side``, in line order (see presence_table)."""
        seen = (self.number >= 0) & (self.team == side)
        return _presence_keys(self.frame[seen], self.number[seen])


def read_records(
    lines: Iterable[str], skipped: list[tuple[int, str]], strict: bool = False, assembly: AssemblyConfig | None = None
) -> Iterator[RecordBlock]:
    """A record stream read in blocks of lines checked on arrays: one RecordBlock per BLOCK_LINES content lines.

    The records, ``skipped`` and the errors are those of
    ``iter_detections(lines, skipped, strict)``, each record first given
    the number that ``assembly`` makes of its digits when ``assembly`` is
    given (``jersey.assemble_detection``; a number above 99 is raised as a
    RecordError that names its line).  The lines of a block with the same
    field count are parsed by one np.loadtxt call into a structured array
    whose fields _record_dtype names, the one declaration of the line
    layout (_columns); its int and float fields read what int() and float()
    read.  Every line is checked there, each field read by its name,
    against the checks of BoundingBox, DigitDetection and PlayerDetection:
    the arrays accept a line only if those checks accept the record
    parse_detection reads from it and every box field is below 2**53, where
    parse_detection reads each as a float.  The writer (RecordBlock.lines)
    reads the same named fields, WRITE_ROWS rows at a time.  Lines with a
    field that does not convert are halved until each such line is alone
    (but see FAILED_PARSES).  A line the arrays reject, a line with a field
    that does not convert and, with ``assembly``, a record of more than two
    digit detections (array assembly covers up to two, as a jersey shows)
    go through that scalar chain itself, in line order: so each diagnostic,
    strict error and error for an assembled number above 99 comes from the
    one scalar code path.
    Any error, also the reader's, is raised after the records on the lines
    before it are handed over.  No block is kept here once the next is
    asked for.
    """
    errors: list[Exception] = []  # the scalar chain's error first, then the reader's (a bad UTF-8 byte)
    numbered = _until_error(content_lines(lines), errors)
    blocks = iter(lambda: [] if errors else list(islice(numbered, BLOCK_LINES)), [])
    # map lets go of each block of lines once it is read, and yield from keeps no RecordBlock
    yield from map(lambda block: _read_block(block, skipped, strict, assembly, errors), blocks)
    if errors:
        raise errors[0]


def _until_error(items: Iterable, errors: list[Exception]) -> Iterator:
    # ``items`` until reading one raises an input error, which is put in ``errors``
    try:
        yield from items
    except (ValueError, OSError) as exc:
        errors.append(exc)


def _read_block(
    block: list[tuple[int, str, str]], skipped: list[tuple[int, str]], strict: bool,
    assembly: AssemblyConfig | None, errors: list[Exception],
) -> RecordBlock:
    # the records of one block of content lines; an error of the scalar chain
    # goes first in ``errors``, and the block ends before its line
    texts = [stripped for _, _, stripped in block]
    joined = "".join(texts)
    # the arrays read fields split at single spaces: a block that holds any
    # other separator of str.split(), or a run of them, is first respaced to
    # the fields str.split() gives
    spaced = texts if joined.isprintable() and "  " not in joined else [" ".join(text.split()) for text in texts]
    sizes = np.fromiter(map(str.count, spaced, repeat(" ")), np.int64, len(spaced)) + 1
    if not _array_readable(joined):
        sizes[[i for i, text in enumerate(texts) if not _array_readable(text)]] = -1
    groups = []  # per part of a field count: the positions, fields and numbers of the rows accepted
    scalar: list[int] = []  # positions of the lines that take the scalar path
    parts = [np.flatnonzero(sizes == n) for n in np.unique(sizes).tolist()]  # the positions of each field count's lines
    failures = 0  # np.loadtxt calls that raised
    while parts:
        members = parts.pop(0)  # fewest fields first: measured a lower peak memory than most fields first
        k, rest = divmod(int(sizes[members[0]]) - 9, 6)
        if k < 0 or rest or (k > 2 and assembly is not None):
            # not a record's field count, or more digits than assemble_numbers reads
            scalar.extend(members.tolist())
            continue
        try:
            fields, dashes, number = _columns([spaced[i] for i in members.tolist()], k)
        except ValueError:  # a field does not convert: halve the lines until each that holds one is alone
            failures += 1
            if len(members) > 1 and failures <= FAILED_PARSES:
                parts += np.array_split(members, 2)
            else:
                scalar.extend(members.tolist())
            continue
        number, accepted = _checked(fields, dashes, number, assembly)
        scalar.extend(members[~accepted].tolist())
        groups.append((members[accepted], fields[accepted], number[accepted]))
    detections, found = [], []  # the records that the scalar chain reads, and their positions
    end = len(block)  # records from this position on are not handed over
    try:
        for i in sorted(scalar):
            d = _parsed(block[i][0], texts[i], skipped, strict)
            if d is not None:
                try:
                    detections.append(d if assembly is None else assemble_detection(d, assembly))
                except InvariantError as exc:  # an assembled number above 99
                    raise RecordError(f"record line {block[i][0]}: {exc}") from None
                found.append(i)
    except Exception as exc:  # a strict error, a number above 99 or any other: read_records raises it after this block
        errors.insert(0, exc)
        end = i
    where = np.concatenate([*(positions for positions, _, _ in groups), np.array(found, np.int64)])
    order = np.argsort(where)
    order = order[where[order] < end]

    def column(name: str, of_records: np.ndarray) -> np.ndarray:
        # per record in line order: field ``name`` of the accepted rows, then ``of_records``, one per detection
        return np.concatenate([*(fields[name] for _, fields, _ in groups), of_records])[order]

    def lines() -> list[str]:
        # per record in line order: _record_texts of the accepted rows, then serialize_detection of each detection
        made = [*chain.from_iterable(_record_texts(f, n) for _, f, n in groups), *map(serialize_detection, detections)]
        return [made[k] for k in order.tolist()]

    frames = [d.frame_index for d in detections]  # a frame past int64 makes the block's frames Python ints
    frame = np.array(frames, object if frames and max(frames) > np.iinfo(np.int64).max else np.int64)
    values = np.array([(d.box.x, d.box.y, d.box.w, d.box.h, d.score) for d in detections], np.float64)
    values = column("box", values.reshape(-1, 5))
    number = np.array([-1 if d.number is None else d.number for d in detections], np.int64)
    return RecordBlock(
        np.array([block[i][0] for i in where[order].tolist()], np.int64),
        column("frame", frame), values[:, :4], values[:, 4],
        column("team", np.array([d.team for d in detections], str)),
        np.concatenate([*(n for _, _, n in groups), number])[order],
        lines,
    )


# Rows that _record_texts writes at once: it holds the tokens of this many
# rows, not of a whole group, before joining them into lines.
WRITE_ROWS = 256


def _record_texts(fields: np.ndarray, number: np.ndarray) -> list[str]:
    # serialize_detection's line of each row of _columns that _checked accepts: its
    # floats are finite and below 2**53, so each is integral exactly when its int64
    # equals it, and is then written as that int, else with repr(), as _format_value does
    def texts(values: np.ndarray) -> list[str]:  # of an int64 or a float64 field
        whole, exact = values.astype(np.int64).tolist(), values.tolist()
        if whole == exact:
            return list(map(str, whole))
        return [str(w) if w == v else repr(v) for w, v in zip(whole, exact)]

    lines: list[str] = []
    for start in range(0, len(fields), WRITE_ROWS):
        rows, numbers = fields[start:start + WRITE_ROWS], number[start:start + WRITE_ROWS].tolist()
        tokens = [texts(rows["frame"]), *map(texts, rows["box"].T), rows["team"].tolist(),
                  ["-" if v < 0 else str(v) for v in numbers], texts(rows["count"])]
        for digit in rows["digits"].T:  # each digit's fields, in line order
            tokens += [texts(digit["digit"]), *map(texts, digit["values"].T)]
        lines += map(" ".join, zip(*tokens))
    return lines


def _array_readable(text: str) -> bool:
    # whether the arrays may read the lines of ``text``: they keep the number-token
    # rule, and hold no NUL, which a fixed-width string field drops at a token's end
    return keeps_number_rule(text) and "\0" not in text


# A team or number token that fills its field's width may have been cut;
# the team field is one wider than the longest team, so a cut team is none.
_TEAM_WIDTH = max(map(len, VALID_TEAMS)) + 1
_NUMBER_WIDTH = 4


def with_team(line: str, team: str) -> str:
    """A serialize_detection line with its team field replaced by ``team``."""
    fields = line.split(" ", 7)  # the frame, the box's four fields and the score come before the team
    fields[6] = team
    return " ".join(fields)


def _record_dtype(k: int) -> np.dtype:
    # the fields of a record line with k digits, in line order, as np.loadtxt reads them
    return np.dtype([
        ("frame", np.int64), ("box", np.float64, (5,)), ("team", f"U{_TEAM_WIDTH}"),
        ("number", f"U{_NUMBER_WIDTH}"), ("count", np.int64),
        ("digits", [("digit", np.int64), ("values", np.float64, (5,))], (k,)),
    ])


def _columns(texts: list[str], k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fields of record lines of ``k`` digits each, 9 + 6k fields separated by single spaces, as arrays.

    One np.loadtxt call reads the lines into a structured array of
    _record_dtype(k): its int64 and float64 fields accept exactly the tokens
    that int() (inside int64) and float() accept, with equal values.  Raises
    ValueError if a line does not have 9 + 6k fields or if a field does not
    convert.  Gives that array, one row per line; whether each number field
    is "-"; and each number, -1 for "-" and for a token that fills its field
    and may have been cut, which is then neither "-" nor 0..99, so its line
    goes to the scalar chain.
    """
    fields = np.loadtxt(texts, _record_dtype(k), delimiter=" ", comments=None, quotechar=None, ndmin=1)
    numbers = fields["number"]
    dashes = numbers == "-"
    number = np.full(len(fields), -1, dtype=np.int64)
    read = ~dashes & (np.char.str_len(numbers) < _NUMBER_WIDTH)
    number[read] = numbers[read].astype(np.int64)  # int() of each token
    return fields, dashes, number


def _box_ok(x: np.ndarray, y: np.ndarray, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    # the boxes BoundingBox accepts whose fields _box_value reads as floats: with
    # no field negative, a sum below 2**53 leaves each below 2**53 and none infinite
    return (0.0 <= x) & (0.0 <= y) & (0.0 < w) & (0.0 < h) & (x + y + w + h < _EXACT)


def _checked(fields: np.ndarray, dashes: np.ndarray, number: np.ndarray, assembly: AssemblyConfig | None) -> tuple:
    """Per row of _columns: the number (-1 for none), and whether the row is accepted.

    A row is accepted when the checks of the record types accept what
    parse_detection reads from it and every box field is below 2**53
    (_box_ok).  The number is the assembled one with ``assembly``, else the
    number field.  With ``assembly`` the rows hold at most two digits, which
    assemble_numbers reads (at most 99); _read_block sends a record of more
    digits to the scalar chain.
    """
    box, digits = fields["box"], fields["digits"]
    digit, conf, digit_box = digits["digit"], digits["values"][..., 0], digits["values"][..., 1:]
    with np.errstate(over="ignore", invalid="ignore"):  # inf + -inf in a box sum, say
        accepted = (
            (fields["frame"] >= 0) & _box_ok(*box[:, :4].T) & (0.0 <= box[:, 4]) & (box[:, 4] <= 1.0)
            & np.isin(fields["team"], sorted(VALID_TEAMS))
            & (dashes | ((0 <= number) & (number <= 99))) & (fields["count"] == digits.shape[1])
            & np.all((0 <= digit) & (digit <= 9) & (0.0 <= conf) & (conf <= 1.0), axis=1)
            & np.all(_box_ok(*np.moveaxis(digit_box, -1, 0)), axis=1)
        )
    if assembly is not None:
        number = np.full(len(fields), -1, dtype=np.int64)
        number[accepted] = assemble_numbers(digit[accepted], conf[accepted], digit_box[accepted], assembly)
    return number, accepted


def check_min_appearances(min_appearances: int, owner: str = "") -> None:
    """Raise InvariantError unless ``min_appearances`` is an int of at least 1; ``owner`` prefixes its name."""
    if not (isinstance(min_appearances, int) and min_appearances >= 1):
        raise InvariantError(f"{owner}min_appearances >= 1 violated (got {min_appearances!r})")


def _check_side(side: str) -> None:
    if side not in ("home", "away"):
        raise InvariantError(f"side must be home or away (got {side!r})")


def synchronize(
    windows: Sequence[PlayWindow],
    detections_by_frame: Mapping[int, Sequence[PlayerDetection]],
    roster: Roster,
    *,
    home_team: str,
    away_team: str,
    side: str = "home",
    min_appearances: int = 1,
) -> list[GameLogEntry]:
    """Join play windows with per-frame detections into log entries.

    For each window, the participants are the jersey numbers of the chosen
    side seen (with a resolved number) in at least min_appearances frames
    of the window, resolved to names through the roster.  The roster must
    belong to the chosen side.  Each detection counts in its own
    ``frame_index``, as group_by_frame keys it.
    """
    _check_side(side)
    presence = presence_table(chain.from_iterable(detections_by_frame.values()), side)
    return synchronize_presence(
        windows, presence, roster, home_team=home_team, away_team=away_team, min_appearances=min_appearances
    )


def synchronize_presence(
    windows: Sequence[PlayWindow],
    presence: np.ndarray,
    roster: Roster,
    *,
    home_team: str,
    away_team: str,
    min_appearances: int = 1,
) -> list[GameLogEntry]:
    """synchronize over one side's presence keys (see presence_table), in any order, repeats allowed.

    The roster must belong to the side the keys were taken for.
    """
    check_min_appearances(min_appearances)
    entries: list[GameLogEntry] = []
    keys = np.sort(presence)  # each window reads its slice of the sorted keys, whatever its frame span
    # no int64 key reaches int64's maximum, so an int64 search may take a bound past it as that maximum
    top = np.iinfo(np.int64).max if keys.dtype == np.int64 else math.inf
    for w in windows:
        lo, hi = np.searchsorted(keys, [min(w.frame_start * 100, top), min(w.frame_end * 100 + 100, top)])
        seen = keys[lo:hi]
        seen = np.concatenate((seen[:1], seen[1:][seen[1:] != seen[:-1]]))  # each (frame, number) once
        counts = np.bincount((seen % 100).astype(np.int64), minlength=100)  # frames per number
        participants = {
            number: resolve_names(number, roster)
            for number in np.flatnonzero(counts >= min_appearances).tolist()
        }
        entries.append(
            GameLogEntry(
                play_number=w.play_number,
                quarter=w.quarter,
                start_time=w.start_time,
                end_time=w.end_time,
                home_team=home_team,
                away_team=away_team,
                participants=participants,
            )
        )
    return entries


def _participants_cell(entry: GameLogEntry) -> str:
    return "; ".join(f"{number}: {name}" for number, name in entry.participants.items())


def emit_game_log(entries: Sequence[GameLogEntry], format: str = "delimited", *, side: str = "home") -> str:
    """Serialize log entries of the participants of ``side``, "home" or "away".

    "delimited" is a comma-separated table with a header row, LOG_HEADER
    with "Away" in its last column for the away side; "structured" is one
    JSON object per line and round-trips through parse_game_log.
    """
    _check_side(side)
    if format == "delimited":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow((*LOG_HEADER[:-1], f"Participating players of {side.capitalize()} team"))
        for e in entries:
            writer.writerow(
                (
                    e.play_number,
                    e.quarter,
                    format_mmss(e.start_time),
                    format_mmss(e.end_time),
                    e.home_team,
                    e.away_team,
                    _participants_cell(e),
                )
            )
        return buffer.getvalue()
    if format == "structured":
        lines = []
        for e in entries:
            lines.append(
                json.dumps(
                    {
                        "play_number": e.play_number,
                        "quarter": e.quarter,
                        "start_time": format_mmss(e.start_time),
                        "end_time": format_mmss(e.end_time),
                        "home": e.home_team,
                        "away": e.away_team,
                        "participants": [
                            {"number": number, "name": name}
                            for number, name in e.participants.items()
                        ],
                    }
                )
            )
        return "".join(line + "\n" for line in lines)
    raise InvariantError(f"unknown game log format {format!r} (want delimited or structured)")


def parse_game_log(text: str) -> list[GameLogEntry]:
    """Parse the structured (JSON lines) game log form."""
    entries: list[GameLogEntry] = []
    for line_number, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if stripped == "":
            continue
        try:
            obj = json.loads(stripped)
            entries.append(
                GameLogEntry(
                    play_number=obj["play_number"],
                    quarter=obj["quarter"],
                    start_time=parse_mmss(obj["start_time"]),
                    end_time=parse_mmss(obj["end_time"]),
                    home_team=obj["home"],
                    away_team=obj["away"],
                    participants={p["number"]: p["name"] for p in obj["participants"]},
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RecordError(f"game log line {line_number}: {exc}") from None
    return entries

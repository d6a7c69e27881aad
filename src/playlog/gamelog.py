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
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from .clock import SegmenterConfig, format_mmss, parse_mmss
from .core import (
    BoundingBox,
    DigitDetection,
    GameLogEntry,
    InvariantError,
    PlayerDetection,
    PlayWindow,
    Roster,
)
from .jersey import AssemblyConfig
from .teamcolor import (
    STRIP_HEIGHT_FRACTION,
    STRIP_WIDTH_FRACTION,
    TeamColorProfile,
    require_distinct_profiles,
)
from .textfile import content_lines

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


@dataclass(frozen=True)
class GameConfig:
    """Everything one game run needs besides the input streams."""

    home_team: str
    away_team: str
    home_roster: Roster
    away_roster: Roster
    home_profile: TeamColorProfile | None = None
    away_profile: TeamColorProfile | None = None
    segmenter: SegmenterConfig = SegmenterConfig()
    assembly: AssemblyConfig = AssemblyConfig()
    strip_height_fraction: float = STRIP_HEIGHT_FRACTION
    strip_width_fraction: float = STRIP_WIDTH_FRACTION
    min_appearances: int = 1

    def __post_init__(self) -> None:
        for name in ("home_team", "away_team"):
            v = getattr(self, name)
            if not (isinstance(v, str) and v.strip() != ""):
                raise InvariantError(f"GameConfig.{name} must be non-empty text")
        if self.home_team == self.away_team:
            raise InvariantError(f"GameConfig team names must differ (both {self.home_team!r})")
        for name in ("home_roster", "away_roster"):
            if not isinstance(getattr(self, name), Roster):
                raise InvariantError(f"GameConfig.{name} must be a Roster")
        if not (isinstance(self.min_appearances, int) and self.min_appearances >= 1):
            raise InvariantError(f"GameConfig.min_appearances >= 1 violated (got {self.min_appearances!r})")
        for name in ("strip_height_fraction", "strip_width_fraction"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and 0.0 < v <= 1.0):
                raise InvariantError(f"GameConfig.{name} in (0, 1] violated (got {v!r})")
        if self.home_profile is not None and self.away_profile is not None:
            require_distinct_profiles(self.home_profile, self.away_profile)


def load_roster(lines: Iterable[str], team_name: str = "") -> Roster:
    """Parse ``number: name[; name]...`` roster lines.

    '#' comments and blank lines are skipped.  A number may appear on
    several lines; names accumulate in source order.  Repeating an exact
    (number, name) pair is an error, as is a number outside 0..99.
    """
    entries: dict[int, list[str]] = {}
    for line_number, raw, stripped in content_lines(lines):
        head, sep, tail = stripped.partition(":")
        digits = head.strip()
        # isdecimal, not isdigit: int() rejects superscripts such as '²'
        if sep == "" or not digits.isdecimal():
            raise RecordError(f"roster line {line_number}: expected 'number: name[; name]...', got {raw!r}")
        try:
            number = int(digits)
        except ValueError:  # more digits than int() converts
            raise RecordError(f"roster line {line_number}: number of {len(digits)} digits outside 0..99") from None
        if number > 99:
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
    # integers stay integers so record lines round-trip byte-identically
    if float(value) == int(value):
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


def parse_detection(line: str, line_number: int | None = None) -> PlayerDetection:
    """Inverse of serialize_detection."""
    prefix = f"record line {line_number}: " if line_number is not None else ""
    fields = line.split()
    n = len(fields)
    if n < 9:
        raise RecordError(f"{prefix}expected at least 9 fields, got {n}")
    try:
        # Fields are indexed directly.  Conversions and checking constructors
        # run in a fixed order (each digit's box before its class and
        # confidence, the player's own range checks last), which decides
        # the error reported for a line with several bad fields.
        frame = int(fields[0])
        box = BoundingBox(float(fields[1]), float(fields[2]), float(fields[3]), float(fields[4]))
        score = float(fields[5])
        team = fields[6]
        number = None if fields[7] == "-" else int(fields[7])
        count = int(fields[8])
        if n - 9 != 6 * count:  # a negative count never matches
            raise ValueError(f"expected {6 * count} digit fields, got {n - 9}")
        digits = tuple([
            DigitDetection(
                BoundingBox(float(fields[i + 2]), float(fields[i + 3]), float(fields[i + 4]), float(fields[i + 5])),
                int(fields[i]),
                float(fields[i + 1]),
            )
            for i in range(9, n, 6)
        ])
        return PlayerDetection(frame, box, score, digits, number, team)
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
        try:
            d = parse_detection(stripped, line_number)
        except RecordError as exc:
            if strict:
                raise
            skipped.append((line_number, str(exc)))
            continue
        yield line_number, d


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


def presence_table(detections: Iterable[PlayerDetection], side: str) -> dict[int, int]:
    """Frame -> the jersey numbers of ``side`` seen in it, from resolved numbers only.

    The numbers of a frame are kept as a bit mask (bit n set: number n was
    seen), one small int per frame where a set would cost hundreds of
    bytes.  Folds a record stream one record at a time; frames where the
    side has no numbered record are absent.
    """
    table: dict[int, int] = {}
    for d in detections:
        if d.team == side and d.number is not None:
            table[d.frame_index] = table.get(d.frame_index, 0) | 1 << d.number
    return table


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
    if side not in ("home", "away"):
        raise InvariantError(f"side must be home or away (got {side!r})")
    presence = presence_table(chain.from_iterable(detections_by_frame.values()), side)
    return synchronize_presence(
        windows, presence, roster, home_team=home_team, away_team=away_team, min_appearances=min_appearances
    )


def synchronize_presence(
    windows: Sequence[PlayWindow],
    presence: Mapping[int, int],
    roster: Roster,
    *,
    home_team: str,
    away_team: str,
    min_appearances: int = 1,
) -> list[GameLogEntry]:
    """synchronize over one side's presence table (see presence_table).

    The roster must belong to the side the table was built for.
    """
    if not (isinstance(min_appearances, int) and min_appearances >= 1):
        raise InvariantError(f"min_appearances >= 1 violated (got {min_appearances!r})")
    entries: list[GameLogEntry] = []
    for w in windows:
        frame_counts: dict[int, int] = {}
        for frame in range(w.frame_start, w.frame_end + 1):
            mask = presence.get(frame, 0)
            while mask:
                low = mask & -mask  # lowest set bit
                number = low.bit_length() - 1
                frame_counts[number] = frame_counts.get(number, 0) + 1
                mask ^= low
        participants = {
            number: resolve_names(number, roster)
            for number, count in sorted(frame_counts.items())
            if count >= min_appearances
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


def emit_game_log(entries: Sequence[GameLogEntry], format: str = "delimited") -> str:
    """Serialize log entries.

    "delimited" is a comma-separated table with a fixed header row;
    "structured" is one JSON object per line and round-trips through
    parse_game_log.
    """
    if format == "delimited":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(LOG_HEADER)
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

"""Clock text parsing, quarter labeling, and play segmentation.

Input is one line per frame: ``frame game_clock play_clock``, where the
game clock is mm:ss and a literal 0 stands in for a clock the OCR could
not read.  Output is one play window per line: play number, quarter,
frame range, and the mm:ss clock span.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .core import (
    GAME_CLOCK_MAX,
    PLAY_CLOCK_MAX,
    ClockReading,
    InvariantError,
    PlayWindow,
)
from .textfile import content_lines, keeps_number_rule, number_rule_break

_MMSS_RE = re.compile(r"([0-9]{1,2}):([0-9]{2})")


class ClockParseError(ValueError):
    """One clock line could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None):
        prefix = f"line {line_number}: " if line_number is not None else ""
        super().__init__(prefix + message)
        self.line_number = line_number


class ClockStreamError(ValueError):
    """The stream as a whole is unusable (ordering or quarter structure)."""


@dataclass(frozen=True)
class SegmenterConfig:
    """Play-boundary and quarter-detection thresholds."""

    play_clock_reset_jump: int = 5
    game_clock_gap: int = 40
    quarter_start: int = GAME_CLOCK_MAX
    quarter_rearm_below: int = 120
    min_play_frames: int = 2

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, int) and v >= 1):
                raise InvariantError(f"SegmenterConfig.{f.name} must be a positive integer (got {v!r})")
        # the game clock never reads above GAME_CLOCK_MAX, so a higher start never fires
        if self.quarter_start > GAME_CLOCK_MAX:
            raise InvariantError(
                f"SegmenterConfig.quarter_start must be at most {GAME_CLOCK_MAX} (got {self.quarter_start})"
            )
        if self.quarter_rearm_below >= self.quarter_start:
            raise InvariantError(
                "SegmenterConfig.quarter_rearm_below must be below quarter_start "
                f"(got {self.quarter_rearm_below} >= {self.quarter_start})"
            )


@dataclass(frozen=True)
class ClockStreamResult:
    """Accepted readings plus one diagnostic per skipped line."""

    readings: tuple[ClockReading, ...]
    diagnostics: tuple[str, ...]


def parse_mmss(text: str) -> int:
    """mm:ss to seconds: one or two ASCII digits, ':', two ASCII digits, nothing else; seconds 00..59."""
    m = _MMSS_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"bad mm:ss value {text!r}")
    minutes, seconds = int(m.group(1)), int(m.group(2))
    if seconds > 59:
        raise ValueError(f"seconds field out of range in {text!r}")
    return minutes * 60 + seconds


def format_mmss(seconds: int) -> str:
    """Seconds to zero-padded mm:ss."""
    if not (isinstance(seconds, int) and seconds >= 0):
        raise InvariantError(f"format_mmss needs a non-negative integer (got {seconds!r})")
    return f"{seconds // 60:02d}:{seconds % 60:02d}"


def parse_clock_line(line: str, line_number: int | None = None) -> ClockReading:
    """Parse one ``frame game_clock play_clock`` line.

    A literal 0 in a clock field means the scoreboard was unreadable in
    that frame, so the field parses to None.
    """
    fields = line.split()
    if len(fields) != 3:
        raise ClockParseError(f"expected 3 fields, got {len(fields)}: {line!r}", line_number)
    if not keeps_number_rule(line):
        raise ClockParseError(number_rule_break(line), line_number)
    frame_text, game_text, play_text = fields

    try:
        frame = int(frame_text)
    except ValueError:
        raise ClockParseError(f"bad frame number {frame_text!r}", line_number) from None

    game_clock: int | None = None
    if game_text != "0":
        try:
            game_clock = parse_mmss(game_text)
        except ValueError as exc:
            raise ClockParseError(str(exc), line_number) from None
        if game_clock > GAME_CLOCK_MAX:
            raise ClockParseError(f"game clock {game_text!r} above {format_mmss(GAME_CLOCK_MAX)}", line_number)

    play_clock: int | None = None
    if play_text != "0":
        try:
            play_clock = int(play_text)
        except ValueError:
            raise ClockParseError(f"bad play clock {play_text!r}", line_number) from None
        if play_clock > PLAY_CLOCK_MAX:
            raise ClockParseError(f"play clock {play_clock} above {PLAY_CLOCK_MAX}", line_number)

    try:
        return ClockReading(frame_index=frame, game_clock=game_clock, play_clock=play_clock)
    except InvariantError as exc:  # a negative frame or play clock
        raise ClockParseError(str(exc), line_number) from None


def format_clock_line(reading: ClockReading) -> str:
    """Inverse of parse_clock_line; absent clocks serialize as 0, a play clock of 0 as 00."""
    game = format_mmss(reading.game_clock) if reading.game_clock is not None else "0"
    if reading.play_clock is None:
        play = "0"
    elif reading.play_clock == 0:
        play = "00"  # "0" is the unreadable marker
    else:
        play = str(reading.play_clock)
    return f"{reading.frame_index} {game} {play}"


def parse_clock_stream(lines: Iterable[str], strict: bool = False) -> ClockStreamResult:
    """Parse a whole clock text stream.

    Blank lines and '#' comments are ignored.  Malformed lines are skipped
    and reported as diagnostics (or raised when strict).  Frame indices
    must be strictly increasing: a line whose frame is not above the last
    kept frame is skipped with a diagnostic like a malformed line, and
    raises ClockStreamError when strict.
    """
    readings: list[ClockReading] = []
    diagnostics: list[str] = []
    last_frame = -1
    for number, _, stripped in content_lines(lines):
        try:
            reading = parse_clock_line(stripped, number)
        except ClockParseError as exc:
            if strict:
                raise
            diagnostics.append(str(exc))
            continue
        if reading.frame_index <= last_frame:
            message = f"line {number}: frame {reading.frame_index} not above previous frame {last_frame}"
            if strict:
                raise ClockStreamError(message)
            diagnostics.append(message)
            continue
        last_frame = reading.frame_index
        readings.append(reading)
    return ClockStreamResult(tuple(readings), tuple(diagnostics))


def label_quarters(
    readings: Sequence[ClockReading],
    config: SegmenterConfig | None = None,
) -> list[int]:
    """Quarter label for every reading.

    The label starts at 1 and increments when the game clock rises back to
    at least quarter_start - 1 after having been seen below
    quarter_rearm_below since the last increment; the hysteresis keeps
    replays and small rewinds from faking a quarter change.  Advancing
    past quarter 4 is an error (overtime is out of scope).
    """
    cfg = config or SegmenterConfig()
    labels: list[int] = []
    quarter = 1
    armed = False
    for r in readings:
        g = r.game_clock
        if g is not None:
            if armed and g >= cfg.quarter_start - 1:
                if quarter == 4:
                    raise ClockStreamError(
                        f"frame {r.frame_index}: quarter transition past 4 (overtime unsupported)"
                    )
                quarter += 1
                armed = False
            elif g < cfg.quarter_rearm_below:
                armed = True
        labels.append(quarter)
    return labels


def segment_plays(
    readings: Sequence[ClockReading],
    config: SegmenterConfig | None = None,
) -> list[PlayWindow]:
    """Split a reading stream into play windows.

    A new play opens at a reading when any of these fires:

    (a) the play clock jumps up by at least play_clock_reset_jump,
    (b) the game clock differs from the last present value by at least
        game_clock_gap,
    (c) the quarter label changes, or
    (d) a clock becomes readable again after a run of fully absent
        readings (a scene cut in cut-together footage).

    A window's frame range and time span come from its first and last
    present game-clock readings; windows with fewer than min_play_frames
    of those are dropped, and survivors are numbered 1..n in stream order.
    Times clamp to (max, min) of the two ends, so a stray upward misread
    cannot produce an inverted span.
    """
    cfg = config or SegmenterConfig()
    if not readings:
        return []
    quarters = label_quarters(readings, cfg)

    groups: list[list[int]] = [[0]]
    last_game = readings[0].game_clock
    last_play = readings[0].play_clock
    prev_absent = readings[0].absent
    for i in range(1, len(readings)):
        r = readings[i]
        trigger = (
            (
                r.play_clock is not None
                and last_play is not None
                and r.play_clock - last_play >= cfg.play_clock_reset_jump
            )
            or (
                r.game_clock is not None
                and last_game is not None
                and abs(last_game - r.game_clock) >= cfg.game_clock_gap
            )
            or quarters[i] != quarters[i - 1]
            or (prev_absent and not r.absent)
        )
        if trigger:
            groups.append([i])
        else:
            groups[-1].append(i)
        if r.game_clock is not None:
            last_game = r.game_clock
        if r.play_clock is not None:
            last_play = r.play_clock
        prev_absent = r.absent

    windows: list[PlayWindow] = []
    for group in groups:
        present = [i for i in group if readings[i].game_clock is not None]
        if len(present) < cfg.min_play_frames:
            continue
        first = readings[present[0]]
        last = readings[present[-1]]
        windows.append(
            PlayWindow(
                play_number=len(windows) + 1,
                quarter=quarters[present[0]],
                frame_start=first.frame_index,
                frame_end=last.frame_index,
                start_time=max(first.game_clock, last.game_clock),
                end_time=min(first.game_clock, last.game_clock),
            )
        )
    return windows


def format_play_windows(windows: Sequence[PlayWindow]) -> str:
    """One line per window: number quarter frame_start frame_end start end."""
    return "".join(
        f"{w.play_number} {w.quarter} {w.frame_start} {w.frame_end} "
        f"{format_mmss(w.start_time)} {format_mmss(w.end_time)}\n"
        for w in windows
    )


def parse_play_windows(text: str) -> list[PlayWindow]:
    """Inverse of format_play_windows; blank lines and '#' comments skipped."""
    windows: list[PlayWindow] = []
    for number, raw, stripped in content_lines(text.split("\n")):
        fields = stripped.split()
        if len(fields) != 6:
            raise ClockParseError(f"expected 6 window fields, got {len(fields)}: {raw!r}", number)
        if not keeps_number_rule(stripped):
            raise ClockParseError(f"bad play window: {number_rule_break(stripped)}", number)
        try:
            windows.append(
                PlayWindow(
                    play_number=int(fields[0]),
                    quarter=int(fields[1]),
                    frame_start=int(fields[2]),
                    frame_end=int(fields[3]),
                    start_time=parse_mmss(fields[4]),
                    end_time=parse_mmss(fields[5]),
                )
            )
        except (ValueError, InvariantError) as exc:
            raise ClockParseError(f"bad play window: {exc}", number) from None
    return windows

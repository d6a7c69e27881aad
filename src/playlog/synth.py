"""Seeded synthetic games for end-to-end pipeline checks.

A generated game consists of the ground-truth log plus the raw streams
the pipeline consumes (clock text and detection records).  The layout is
built so every boundary the segmenter relies on is actually present:
plays are separated by absent-clock runs (scene cuts), each quarter after
the first opens at 15:00, and each quarter before the last runs below the
re-arm threshold.

Corruption schedules are coupled: each corruption type has its own seeded
RNG that draws exactly one uniform per event whatever the rate, so a
higher rate corrupts a strict superset of the events a lower rate does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .clock import format_clock_line
from .core import (
    GAME_CLOCK_MAX,
    BoundingBox,
    ClockReading,
    DigitDetection,
    GameLogEntry,
    PlayerDetection,
    Roster,
)
from .gamelog import resolve_names, serialize_detection

HOME_TEAM_NAME = "Redbirds"
AWAY_TEAM_NAME = "Bluejays"

_FIRST_NAMES = (
    "Avery", "Blake", "Casey", "Drew", "Ellis", "Frankie", "Gray", "Harper",
    "Indy", "Jules", "Kai", "Lane", "Micah", "Noel", "Owen", "Perry",
    "Quinn", "Reese", "Sage", "Tatum",
)
_LAST_NAMES = (
    "Abbott", "Barnes", "Cole", "Dawson", "Ellison", "Ford", "Grant", "Hayes",
    "Irving", "Jennings", "Keller", "Lowell", "Mercer", "North", "Olsen",
    "Pratt", "Quigley", "Rhodes", "Sutton", "Tillman",
)

_FRAME_W = 1280
_FRAME_H = 720

_DURATION_RANGE = (4, 10)       # seconds of game clock per play
_QUARTER_TAIL_RANGE = (5, 40)   # where the last play of a quarter ends
_CUT_FRAMES_RANGE = (2, 5)      # absent-clock frames between plays

_CORRUPT_GAME_FIELD = "9?:?7"   # never parses, so the line is skipped

_HOME_POOL_MAX = 60  # the home roster's size cap, so the most home players in one play
_AWAY_PLAYERS_PER_PLAY = (1, 3)  # drawn each play from a pool of _AWAY_POOL_SIZE away numbers
_AWAY_POOL_SIZE = 6

# side-by-side digit boxes in crop coordinates, disjoint, left = tens
_DIGIT_BOXES = (BoundingBox(4, 12, 10, 14), BoundingBox(18, 12, 10, 14))


class SynthConfigError(ValueError):
    """The synthetic game configuration cannot produce a valid game."""


@dataclass(frozen=True)
class SynthConfig:
    """Shape and noise knobs for one generated game."""

    seed: int
    quarters: int = 2
    plays_per_quarter: int = 3
    frames_per_second: int = 30
    players_per_play: tuple[int, int] = (6, 11)
    ocr_corruption_rate: float = 0.0
    digit_error_rate: float = 0.0
    detection_drop_rate: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise SynthConfigError(f"seed must be an integer (got {self.seed!r})")
        if not (isinstance(self.quarters, int) and 1 <= self.quarters <= 4):
            raise SynthConfigError(f"quarters in 1..4 violated (got {self.quarters!r})")
        if not (isinstance(self.plays_per_quarter, int) and self.plays_per_quarter >= 1):
            raise SynthConfigError(f"plays_per_quarter >= 1 violated (got {self.plays_per_quarter!r})")
        if self.quarters > 1 and self.plays_per_quarter < 2:
            # a lone play cannot both open at 15:00 and end below the
            # re-arm threshold, so quarter changes would be unobservable
            raise SynthConfigError("plays_per_quarter must be >= 2 when quarters > 1")
        if not (isinstance(self.frames_per_second, int) and self.frames_per_second >= 1):
            raise SynthConfigError(f"frames_per_second >= 1 violated (got {self.frames_per_second!r})")
        counts = self.players_per_play
        if not (
            isinstance(counts, tuple)
            and len(counts) == 2
            and all(isinstance(v, int) and v >= 0 for v in counts)
            and counts[0] <= counts[1]
        ):
            raise SynthConfigError(f"players_per_play must be a (min, max) pair of counts (got {counts!r})")
        if counts[0] < 1:
            raise SynthConfigError("players_per_play minimum must be >= 1")
        if counts[1] > _HOME_POOL_MAX:
            raise SynthConfigError(f"players_per_play maximum <= {_HOME_POOL_MAX} violated (got {counts[1]})")
        for name in ("ocr_corruption_rate", "digit_error_rate", "detection_drop_rate"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and 0.0 <= v < 1.0):
                raise SynthConfigError(f"{name} in [0, 1) violated (got {v!r})")


@dataclass(frozen=True)
class SynthGame:
    """Ground truth plus the raw streams that should reproduce it."""

    truth: tuple[GameLogEntry, ...]
    clock_lines: tuple[str, ...]
    detection_lines: tuple[str, ...]
    roster: Roster
    home_team: str = HOME_TEAM_NAME
    away_team: str = AWAY_TEAM_NAME


def _make_roster(rng: random.Random, size: int, team_name: str) -> Roster:
    numbers = rng.sample(range(100), size)
    entries: dict[int, tuple[str, ...]] = {}
    for number in numbers:
        first = rng.choice(_FIRST_NAMES)
        last = rng.choice(_LAST_NAMES)
        names = [f"{first} {last}"]
        if rng.random() < 0.25:  # offense and defense sharing a number
            while True:
                other = f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}"
                if other != names[0]:
                    names.append(other)
                    break
        entries[number] = tuple(names)
    return Roster(team_name=team_name, entries=entries)


def _quarter_schedule(rng: random.Random, cfg: SynthConfig) -> list[tuple[int, int]]:
    """(start_time, end_time) per play for one quarter, counting down."""
    n = cfg.plays_per_quarter
    durations = [rng.randint(*_DURATION_RANGE) for _ in range(n)]
    if cfg.quarters == 1 and n == 1:
        return [(GAME_CLOCK_MAX, GAME_CLOCK_MAX - durations[0])]
    tail = rng.randint(*_QUARTER_TAIL_RANGE)
    total_gap = GAME_CLOCK_MAX - tail - sum(durations)
    if total_gap < n - 1:
        raise SynthConfigError(
            f"{n} plays need {sum(durations) + n - 1} s of game clock with 1 s between plays,"
            f" but a quarter has {GAME_CLOCK_MAX - tail} s for them"
        )
    gaps = [1] * (n - 1)
    spare = total_gap - (n - 1)
    weights = [rng.uniform(1.0, 2.0) for _ in range(n - 1)]
    weight_sum = sum(weights)
    allocated = 0
    for i in range(n - 1):
        share = int(spare * weights[i] / weight_sum)
        gaps[i] += share
        allocated += share
    gaps[-1] += spare - allocated
    schedule: list[tuple[int, int]] = []
    t = GAME_CLOCK_MAX
    for i in range(n):
        schedule.append((t, t - durations[i]))
        t -= durations[i]
        if i < n - 1:
            t -= gaps[i]
    assert schedule[-1][1] == tail
    return schedule


def _digit_detections(rng: random.Random, number: int) -> tuple[DigitDetection, ...]:
    return tuple(
        DigitDetection(box=box, digit=int(ch), confidence=round(0.975 + 0.02 * rng.random(), 4))
        for box, ch in zip(_DIGIT_BOXES, str(number))
    )


def _corrupt_digits(number: int) -> tuple[DigitDetection, ...]:
    # a low-confidence misread: falls below the assembly gate, so the
    # record resolves to no number at all
    wrong = (number + 1) % 10
    return (DigitDetection(box=_DIGIT_BOXES[0], digit=wrong, confidence=0.5),)


def generate_game(cfg: SynthConfig) -> SynthGame:
    """Generate one seeded game; identical configs give identical bytes."""
    rng = random.Random(cfg.seed)
    ocr_rng = random.Random(f"{cfg.seed}:ocr")
    digit_rng = random.Random(f"{cfg.seed}:digit")
    drop_rng = random.Random(f"{cfg.seed}:drop")

    pool_size = min(_HOME_POOL_MAX, max(cfg.players_per_play[1] + 5, 16))
    roster = _make_roster(rng, pool_size, HOME_TEAM_NAME)
    home_pool = sorted(roster.entries)
    away_pool = rng.sample(range(100), _AWAY_POOL_SIZE)

    truth: list[GameLogEntry] = []
    clock_lines: list[str] = []
    detection_lines: list[str] = []

    def emit_clock_line(line: str) -> None:
        # one schedule draw per clock line, corrupted or not
        if ocr_rng.random() < cfg.ocr_corruption_rate:
            fields = line.split()
            line = " ".join((fields[0], _CORRUPT_GAME_FIELD, fields[2]))
        clock_lines.append(line)

    frame = 0
    play_number = 0
    for quarter in range(1, cfg.quarters + 1):
        for start_time, end_time in _quarter_schedule(rng, cfg):
            play_number += 1
            home_count = rng.randint(*cfg.players_per_play)
            participants = sorted(rng.sample(home_pool, home_count))
            on_field = [(n, "home") for n in participants]
            on_field += [(n, "away") for n in rng.sample(away_pool, rng.randint(*_AWAY_PLAYERS_PER_PLAY))]

            truth.append(
                GameLogEntry(
                    play_number=play_number,
                    quarter=quarter,
                    start_time=start_time,
                    end_time=end_time,
                    home_team=HOME_TEAM_NAME,
                    away_team=AWAY_TEAM_NAME,
                    participants={n: resolve_names(n, roster) for n in participants},
                )
            )

            for second in range(start_time, end_time - 1, -1):
                play_clock = 40 - (start_time - second)
                for _ in range(cfg.frames_per_second):
                    emit_clock_line(format_clock_line(ClockReading(frame, second, play_clock)))
                    for number, team in on_field:
                        # content draws are unconditional so the main RNG
                        # stream, and with it the ground truth, is identical
                        # at every corruption rate
                        box = BoundingBox(
                            rng.randint(0, _FRAME_W - 90),
                            rng.randint(0, _FRAME_H - 160),
                            rng.randint(34, 88),
                            rng.randint(40, 150),  # spans the small and large evaluation buckets
                        )
                        score = round(0.82 + 0.17 * rng.random(), 4)
                        digits = _digit_detections(rng, number)
                        dropped = drop_rng.random() < cfg.detection_drop_rate
                        if team == "home" and digit_rng.random() < cfg.digit_error_rate:
                            digits = _corrupt_digits(number)
                        if not dropped:
                            record = PlayerDetection(frame_index=frame, box=box, score=score, digits=digits, team=team)
                            detection_lines.append(serialize_detection(record))
                    frame += 1
            # scene cut before whatever comes next
            for _ in range(rng.randint(*_CUT_FRAMES_RANGE)):
                emit_clock_line(format_clock_line(ClockReading(frame)))
                frame += 1

    return SynthGame(
        truth=tuple(truth),
        clock_lines=tuple(clock_lines),
        detection_lines=tuple(detection_lines),
        roster=roster,
    )

"""Shared value types for the game-log pipeline.

Everything here is a validated, immutable value: construction checks the
type's invariants and raises :class:`InvariantError` naming the failing
field, so downstream stages never re-check.  Immutability makes the values
safe to share across threads or worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

Team = Literal["home", "away", "unknown"]

VALID_TEAMS: frozenset[str] = frozenset(("home", "away", "unknown"))

GAME_CLOCK_MAX = 900  # 15:00, seconds remaining in a quarter
PLAY_CLOCK_MAX = 40


class InvariantError(ValueError):
    """A value violates one of its type's invariants."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantError(message)


def _require_finite_number(owner: str, name: str, value: object) -> float:
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)):
        raise InvariantError(f"{owner}.{name} must be a number (got {value!r})")
    if not math.isfinite(value):
        raise InvariantError(f"{owner}.{name} must be finite (got {value!r})")
    return float(value)


def _require_int(owner: str, name: str, value: object) -> int:
    if not (isinstance(value, int) and not isinstance(value, bool)):
        raise InvariantError(f"{owner}.{name} must be an integer (got {value!r})")
    return int(value)


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box in pixel units, corner form, origin at top-left.

    ``(x, y)`` is the top-left corner; ``w`` and ``h`` extend right and
    down.  Coordinates may be fractional (detector output).
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "w", "h"):
            _require_finite_number("BoundingBox", name, getattr(self, name))
        if not self.x >= 0:
            raise InvariantError(f"BoundingBox.x >= 0 violated (got {self.x!r})")
        if not self.y >= 0:
            raise InvariantError(f"BoundingBox.y >= 0 violated (got {self.y!r})")
        if not self.w > 0:
            raise InvariantError(f"BoundingBox.w > 0 violated (got {self.w!r})")
        if not self.h > 0:
            raise InvariantError(f"BoundingBox.h > 0 violated (got {self.h!r})")

    @property
    def right(self) -> float:
        return self.x + self.w

    @property
    def bottom(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def center_x(self) -> float:
        return self.x + self.w / 2.0

    @property
    def center_y(self) -> float:
        return self.y + self.h / 2.0


@dataclass(frozen=True, slots=True)
class DigitDetection:
    """One recognized digit inside a player crop.

    The box is in crop-local coordinates, not frame coordinates.
    """

    box: BoundingBox
    digit: int
    confidence: float

    def __post_init__(self) -> None:
        if not isinstance(self.box, BoundingBox):
            raise InvariantError("DigitDetection.box must be a BoundingBox")
        d = _require_int("DigitDetection", "digit", self.digit)
        if not 0 <= d <= 9:
            raise InvariantError(f"DigitDetection.digit in 0..9 violated (got {d})")
        c = _require_finite_number("DigitDetection", "confidence", self.confidence)
        if not 0.0 <= c <= 1.0:
            raise InvariantError(f"DigitDetection.confidence in [0, 1] violated (got {c!r})")


@dataclass(frozen=True, slots=True)
class PlayerDetection:
    """One player proposal in one frame, with its digit evidence.

    ``number`` is None until jersey assembly resolves it.  ``team`` is a
    closed three-value label; "unknown" is an explicit state, never an
    absent field.
    """

    frame_index: int
    box: BoundingBox
    score: float
    digits: tuple[DigitDetection, ...] = ()
    number: int | None = None
    team: str = "unknown"

    def __post_init__(self) -> None:
        f = _require_int("PlayerDetection", "frame_index", self.frame_index)
        if not f >= 0:
            raise InvariantError(f"PlayerDetection.frame_index >= 0 violated (got {f})")
        if not isinstance(self.box, BoundingBox):
            raise InvariantError("PlayerDetection.box must be a BoundingBox")
        s = _require_finite_number("PlayerDetection", "score", self.score)
        if not 0.0 <= s <= 1.0:
            raise InvariantError(f"PlayerDetection.score in [0, 1] violated (got {s!r})")
        object.__setattr__(self, "digits", tuple(self.digits))
        for d in self.digits:
            if not isinstance(d, DigitDetection):
                raise InvariantError("PlayerDetection.digits must hold DigitDetection values")
        if self.number is not None:
            n = _require_int("PlayerDetection", "number", self.number)
            if not 0 <= n <= 99:
                raise InvariantError(f"PlayerDetection.number in 0..99 violated (got {n})")
        if self.team not in VALID_TEAMS:
            raise InvariantError(f"PlayerDetection.team must be one of {sorted(VALID_TEAMS)} (got {self.team!r})")

    def with_number(self, number: int | None) -> "PlayerDetection":
        """Copy with ``number`` replaced."""
        return replace(self, number=number)

    def with_team(self, team: str) -> "PlayerDetection":
        """Copy with ``team`` replaced."""
        return replace(self, team=team)


@dataclass(frozen=True)
class ClockReading:
    """Scoreboard state for one frame; None marks an unreadable clock."""

    frame_index: int
    game_clock: int | None = None
    play_clock: int | None = None

    def __post_init__(self) -> None:
        f = _require_int("ClockReading", "frame_index", self.frame_index)
        _require(f >= 0, f"ClockReading.frame_index >= 0 violated (got {f})")
        if self.game_clock is not None:
            g = _require_int("ClockReading", "game_clock", self.game_clock)
            _require(
                0 <= g <= GAME_CLOCK_MAX,
                f"ClockReading.game_clock in 0..{GAME_CLOCK_MAX} violated (got {g})",
            )
        if self.play_clock is not None:
            p = _require_int("ClockReading", "play_clock", self.play_clock)
            _require(
                0 <= p <= PLAY_CLOCK_MAX,
                f"ClockReading.play_clock in 0..{PLAY_CLOCK_MAX} violated (got {p})",
            )

    @property
    def absent(self) -> bool:
        """True when neither clock was readable in this frame."""
        return self.game_clock is None and self.play_clock is None


def _require_play(owner: str, play_number: object, quarter: object) -> None:
    # a play's number and quarter, as ``owner`` (PlayWindow or GameLogEntry) holds them
    n = _require_int(owner, "play_number", play_number)
    _require(n >= 1, f"{owner}.play_number >= 1 violated (got {n})")
    q = _require_int(owner, "quarter", quarter)
    _require(1 <= q <= 4, f"{owner}.quarter in 1..4 violated (got {q})")


def _require_clock_span(owner: str, start_time: object, end_time: object) -> None:
    # a play's game-clock span, as ``owner`` holds it: both times in 0..GAME_CLOCK_MAX, counting down
    for name, value in (("start_time", start_time), ("end_time", end_time)):
        t = _require_int(owner, name, value)
        _require(0 <= t <= GAME_CLOCK_MAX, f"{owner}.{name} in 0..{GAME_CLOCK_MAX} violated (got {t})")
    _require(start_time >= end_time, f"{owner}.start_time >= end_time violated (got {start_time} < {end_time})")


@dataclass(frozen=True)
class PlayWindow:
    """One play: a frame range plus its game-clock span within a quarter."""

    play_number: int
    quarter: int
    frame_start: int
    frame_end: int
    start_time: int
    end_time: int

    def __post_init__(self) -> None:
        _require_play("PlayWindow", self.play_number, self.quarter)
        fs = _require_int("PlayWindow", "frame_start", self.frame_start)
        fe = _require_int("PlayWindow", "frame_end", self.frame_end)
        _require(0 <= fs, f"PlayWindow.frame_start >= 0 violated (got {fs})")
        _require(fs <= fe, f"PlayWindow.frame_start <= frame_end violated (got {fs}..{fe})")
        _require_clock_span("PlayWindow", self.start_time, self.end_time)


@dataclass(frozen=True)
class Roster:
    """Jersey number to player names for one team.

    A number may carry several names (offense and defense share numbers);
    source order is preserved.
    """

    team_name: str
    entries: Mapping[int, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(isinstance(self.team_name, str), "Roster.team_name must be text")
        normalized: dict[int, tuple[str, ...]] = {}
        for number, names in self.entries.items():
            n = _require_int("Roster", "entries key", number)
            _require(0 <= n <= 99, f"Roster number in 0..99 violated (got {n})")
            names_t = tuple(names)
            _require(len(names_t) >= 1, f"Roster entry {n} must have at least one name")
            for name in names_t:
                _require(
                    isinstance(name, str) and name.strip() != "",
                    f"Roster entry {n} has an empty name",
                )
            normalized[n] = names_t
        object.__setattr__(self, "entries", MappingProxyType(normalized))

    def __contains__(self, number: int) -> bool:
        return number in self.entries


@dataclass(frozen=True)
class GameLogEntry:
    """One indexed play: when it happened and who was on the field.

    Times are game-clock seconds remaining; they are rendered mm:ss at the
    serialization boundary.  ``participants`` maps jersey number to the
    resolved name string, stored in ascending number order.
    """

    play_number: int
    quarter: int
    start_time: int
    end_time: int
    home_team: str
    away_team: str
    participants: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_play("GameLogEntry", self.play_number, self.quarter)
        _require_clock_span("GameLogEntry", self.start_time, self.end_time)
        for name in ("home_team", "away_team"):
            v = getattr(self, name)
            _require(isinstance(v, str) and v != "", f"GameLogEntry.{name} must be non-empty text")
        normalized: dict[int, str] = {}
        for number in sorted(self.participants):
            k = _require_int("GameLogEntry", "participants key", number)
            _require(0 <= k <= 99, f"GameLogEntry participant number in 0..99 violated (got {k})")
            v = self.participants[number]
            _require(isinstance(v, str) and v != "", f"GameLogEntry participant {k} has an empty name")
            normalized[k] = v
        object.__setattr__(self, "participants", MappingProxyType(normalized))


def _checked_pixels(
    width: object, height: object, channels: object, samples: Iterable[int] | np.ndarray | bytes
) -> np.ndarray:
    # PixelImage's checks, one field at a time: its read-only (height, width, channels) uint8 array
    w = _require_int("PixelImage", "width", width)
    h = _require_int("PixelImage", "height", height)
    c = _require_int("PixelImage", "channels", channels)
    _require(w >= 1, f"PixelImage.width >= 1 violated (got {w})")
    _require(h >= 1, f"PixelImage.height >= 1 violated (got {h})")
    _require(c in (1, 3), f"PixelImage.channels must be 1 or 3 (got {c})")
    # bytes(samples) is the caller's immutable bytes or a copy of a bytearray: the array over it needs no copy
    owned = isinstance(samples, (bytes, bytearray))
    if owned:
        arr = np.frombuffer(bytes(samples), dtype=np.uint8)
    else:
        arr = np.asarray(samples)
        if arr.dtype != np.uint8:
            _require(
                arr.size == 0 or (np.issubdtype(arr.dtype, np.integer) and arr.min() >= 0 and arr.max() <= 255),
                "PixelImage.samples must be integers in 0..255",
            )
            arr = arr.astype(np.uint8)
    arr = arr.reshape(-1)
    _require(
        arr.size == w * h * c,
        f"PixelImage.samples length {arr.size} != width*height*channels = {w * h * c}",
    )
    pixels = arr.reshape(h, w, c) if owned else arr.reshape(h, w, c).copy()
    pixels.flags.writeable = False
    return pixels


class PixelImage:
    """Immutable 8-bit raster, 1 (grayscale) or 3 (RGB) channels.

    Samples are row-major, ``width * height * channels`` values; channel
    order for color images is R, G, B.
    """

    __slots__ = ("_pixels",)

    def __init__(self, width: int, height: int, channels: int, samples: Iterable[int] | np.ndarray | bytes):
        # exact ints and bytes of the right length, as read_image gives them, are wrapped as they are;
        # anything else takes the detailed checks, which accept the same values
        if (
            type(width) is int and type(height) is int and type(channels) is int and type(samples) is bytes
            and width >= 1 and height >= 1 and (channels == 1 or channels == 3)
            and len(samples) == width * height * channels
        ):
            pixels = np.frombuffer(samples, dtype=np.uint8).reshape(height, width, channels)
        else:
            pixels = _checked_pixels(width, height, channels, samples)
        object.__setattr__(self, "_pixels", pixels)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PixelImage is immutable")

    @classmethod
    def from_array(cls, array: np.ndarray) -> "PixelImage":
        """Build from an (h, w) or (h, w, c) array of 0..255 values."""
        arr = np.asarray(array)
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        _require(arr.ndim == 3, f"PixelImage.from_array expects 2 or 3 dims (got {arr.ndim})")
        h, w, c = arr.shape
        return cls(w, h, c, arr.reshape(-1))

    @classmethod
    def full(cls, width: int, height: int, channels: int, value: int | Sequence[int]) -> "PixelImage":
        """Constant image; ``value`` is one level or one level per channel."""
        arr = np.empty((height, width, channels), dtype=np.uint8)
        arr[:] = np.asarray(value, dtype=np.uint8).reshape(1, 1, -1)
        return cls.from_array(arr)

    @property
    def width(self) -> int:
        return self._pixels.shape[1]

    @property
    def height(self) -> int:
        return self._pixels.shape[0]

    @property
    def channels(self) -> int:
        return self._pixels.shape[2]

    @property
    def pixels(self) -> np.ndarray:
        """Read-only (height, width, channels) uint8 view."""
        return self._pixels

    @property
    def samples(self) -> np.ndarray:
        """Read-only flat row-major sample view."""
        return self._pixels.reshape(-1)

    def tobytes(self) -> bytes:
        return self._pixels.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PixelImage):
            return NotImplemented
        return self._pixels.shape == other._pixels.shape and bool(
            np.array_equal(self._pixels, other._pixels)
        )

    def __hash__(self) -> int:
        return hash((self._pixels.shape, self.tobytes()))

    def __repr__(self) -> str:
        return f"PixelImage(width={self.width}, height={self.height}, channels={self.channels})"

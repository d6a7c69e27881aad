"""Home/away classification from jersey color statistics.

A centered strip of the player crop (mostly torso) is reduced to
per-channel means; a team is described either by one dominant channel or
by the absence of any dominant channel (white/grey kits).  One rule,
``team_labels``, labels an array of channel means: ``classify_team`` calls
it on one histogram's means, and ``StripBatch`` on the strips of a run of
crops, summed on arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import InvariantError, PixelImage

STRIP_HEIGHT_FRACTION = 0.2
STRIP_WIDTH_FRACTION = 0.6
DOMINANCE_MARGIN = 30.0

_CHANNEL_INDEX = {"red": 0, "green": 1, "blue": 2}
_CHANNEL_OFFSET = np.array([0, 256, 512], dtype=np.intp)
_LEVELS = np.arange(256, dtype=np.int64)


class ProfileError(ValueError):
    """The configured team color profiles cannot be told apart."""


@dataclass(frozen=True)
class TeamColorProfile:
    """What one team's jersey looks like in channel-mean terms."""

    label: Literal["home", "away"]
    mode: Literal["dominant-channel", "no-dominant"]
    channel: Literal["red", "green", "blue"] | None = None
    dominance_margin: float = DOMINANCE_MARGIN

    def __post_init__(self) -> None:
        if self.label not in ("home", "away"):
            raise InvariantError(f"TeamColorProfile.label must be home or away (got {self.label!r})")
        if self.mode not in ("dominant-channel", "no-dominant"):
            raise InvariantError(f"TeamColorProfile.mode unknown (got {self.mode!r})")
        if self.mode == "dominant-channel":
            if self.channel not in _CHANNEL_INDEX:
                raise InvariantError(
                    f"TeamColorProfile.channel required for dominant-channel mode (got {self.channel!r})"
                )
        elif self.channel is not None:
            raise InvariantError("TeamColorProfile.channel must be None in no-dominant mode")
        if not (isinstance(self.dominance_margin, (int, float)) and self.dominance_margin > 0):
            raise InvariantError(
                f"TeamColorProfile.dominance_margin > 0 violated (got {self.dominance_margin!r})"
            )


@dataclass(frozen=True, eq=False)
class ChannelHistogram:
    """Per-channel 256-bin counts and means over a strip."""

    counts: np.ndarray  # (3, 256)
    means: tuple[float, float, float]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChannelHistogram):
            return NotImplemented
        return bool(np.array_equal(self.counts, other.counts)) and self.means == other.means


def check_fractions(strip_height_fraction: float, strip_width_fraction: float, owner: str = "") -> None:
    """Raise InvariantError unless both strip fractions are numbers in (0, 1]; ``owner`` prefixes their names."""
    for name, frac in (
        ("strip_height_fraction", strip_height_fraction),
        ("strip_width_fraction", strip_width_fraction),
    ):
        if not (isinstance(frac, (int, float)) and 0.0 < frac <= 1.0):
            raise InvariantError(f"{owner}{name} in (0, 1] violated (got {frac!r})")


def _require_color_crop(crop: PixelImage) -> None:
    if crop.channels != 3:
        raise InvariantError(f"extract_strip expects a 3-channel crop (got {crop.channels})")


def _strip_bounds(
    height: int, width: int, strip_height_fraction: float, strip_width_fraction: float
) -> tuple[slice, slice]:
    # the rows and columns of a crop's centered strip, at least 1x1; an odd leftover border goes to the bottom/right
    sh = max(1, round(height * strip_height_fraction))
    sw = max(1, round(width * strip_width_fraction))
    top = (height - sh) // 2
    left = (width - sw) // 2
    return slice(top, top + sh), slice(left, left + sw)


def extract_strip(
    crop: PixelImage,
    strip_height_fraction: float = STRIP_HEIGHT_FRACTION,
    strip_width_fraction: float = STRIP_WIDTH_FRACTION,
) -> PixelImage:
    """Centered sub-image of the given fractional size, at least 1x1.

    When the leftover border is odd the extra pixel goes to the
    bottom/right side.
    """
    _require_color_crop(crop)
    check_fractions(strip_height_fraction, strip_width_fraction)
    window = crop.pixels[_strip_bounds(crop.height, crop.width, strip_height_fraction, strip_width_fraction)]
    return PixelImage(window.shape[1], window.shape[0], 3, window.tobytes())


def _channel_means(sums: np.ndarray, pixels: np.ndarray | int) -> np.ndarray:
    # exact int64 channel sums over their pixel counts: each sum is an integer below 2**53, so
    # the quotient rounds once, as ndarray.mean does with its exact float64 sum
    return sums / pixels


def channel_histogram(strip: PixelImage) -> ChannelHistogram:
    """Histogram and mean of each channel over the whole strip."""
    if strip.channels != 3:
        raise InvariantError(f"channel_histogram expects a 3-channel strip (got {strip.channels})")
    # one bincount over the samples, channel c's levels moved to c * 256 + level
    samples = strip.pixels.reshape(-1, 3) + _CHANNEL_OFFSET
    counts = np.bincount(samples.reshape(-1), minlength=3 * 256).reshape(3, 256)
    counts.flags.writeable = False
    means = tuple(_channel_means(counts @ _LEVELS, strip.width * strip.height).tolist())
    return ChannelHistogram(counts=counts, means=means)


def _matches(profile: TeamColorProfile, means: np.ndarray) -> np.ndarray:
    # which rows of an (n, 3) array of channel means the profile matches; an int margin past
    # 2**53 is capped there, within float range, as no difference of 8-bit means reaches it
    margin = profile.dominance_margin
    if not isinstance(margin, float):
        margin = float(min(margin, 2**53))
    if profile.mode == "dominant-channel":
        c = _CHANNEL_INDEX[profile.channel]
        others = means[:, [i for i in range(3) if i != c]]
        return np.all(means[:, c, np.newaxis] - others >= margin, axis=1)
    return means.max(axis=1) - means.min(axis=1) < margin


def require_distinct_profiles(home: TeamColorProfile, away: TeamColorProfile) -> None:
    """Profiles with the same mode and channel cannot be told apart."""
    if home.mode == away.mode and home.channel == away.channel:
        raise ProfileError(
            "home and away color profiles are indistinguishable "
            f"(both {home.mode}{'/' + home.channel if home.channel else ''})"
        )


def team_labels(means: np.ndarray, home: TeamColorProfile, away: TeamColorProfile) -> list[str]:
    """Label each row of an (n, 3) array of channel means home, away or unknown, as ``classify_team`` does."""
    require_distinct_profiles(home, away)
    table = ("unknown", home.label, away.label, "unknown")  # by which profiles match: neither, home, away, both
    return [table[k] for k in (_matches(home, means) + 2 * _matches(away, means)).tolist()]


def classify_team(
    histogram: ChannelHistogram,
    home: TeamColorProfile,
    away: TeamColorProfile,
) -> str:
    """Label a strip histogram as home, away, or unknown.

    Exactly one matching profile wins; zero or two matches yield
    "unknown".  Profile pairs that cannot be distinguished (same mode and
    channel) are a configuration error.
    """
    return team_labels(np.array([histogram.means], dtype=np.float64), home, away)[0]


class StripBatch:
    """Team labels for a run of crops, from the channel sums of their strips.

    ``add`` copies a crop's strip window into one reusable buffer, so the
    batch holds no crop.  The buffer is summed per strip by one
    ``np.add.reduceat`` (exact int64) once it has no room for the next
    strip, and ``labels`` labels every strip added since its last call with
    ``team_labels``.  The profiles and fractions are checked once, here.
    """

    _BUFFER_PIXELS = 1 << 13

    def __init__(
        self,
        home: TeamColorProfile,
        away: TeamColorProfile,
        strip_height_fraction: float = STRIP_HEIGHT_FRACTION,
        strip_width_fraction: float = STRIP_WIDTH_FRACTION,
    ) -> None:
        require_distinct_profiles(home, away)
        check_fractions(strip_height_fraction, strip_width_fraction)
        self._profiles = home, away
        self._fractions = strip_height_fraction, strip_width_fraction
        self._buffer = np.empty((self._BUFFER_PIXELS, 3), dtype=np.uint8)
        self._starts: list[int] = []  # each buffered strip's first pixel
        self._end = 0  # the buffer's first free pixel
        self._sums: list[np.ndarray] = []  # (k, 3) channel sums of the strips summed so far
        self._pixels: list[int] = []  # each strip's pixel count

    def add(self, crop: PixelImage) -> None:
        """Buffer the strip of a 3-channel crop; errors as ``extract_strip``'s."""
        _require_color_crop(crop)
        window = crop.pixels[_strip_bounds(crop.height, crop.width, *self._fractions)]
        rows, cols = window.shape[:2]
        n = rows * cols
        if self._end + n > len(self._buffer):
            self._sum()
            if n > len(self._buffer):
                self._buffer = np.empty((n, 3), dtype=np.uint8)
        self._buffer[self._end : self._end + n].reshape(rows, cols, 3)[...] = window
        self._starts.append(self._end)
        self._pixels.append(n)
        self._end += n

    def _sum(self) -> None:
        if self._starts:
            self._sums.append(np.add.reduceat(self._buffer[: self._end], self._starts, axis=0, dtype=np.int64))
        self._starts.clear()
        self._end = 0

    def labels(self) -> list[str]:
        """The labels of the strips added since the last call, in order."""
        self._sum()
        if not self._sums:
            return []
        means = _channel_means(np.concatenate(self._sums), np.array(self._pixels)[:, np.newaxis])
        self._sums.clear()
        self._pixels.clear()
        return team_labels(means, *self._profiles)

"""Home/away classification from jersey color statistics.

A centered strip of the player crop (mostly torso) is reduced to
per-channel means; a team is described either by one dominant channel or
by the absence of any dominant channel (white/grey kits).
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


def extract_strip(
    crop: PixelImage,
    strip_height_fraction: float = STRIP_HEIGHT_FRACTION,
    strip_width_fraction: float = STRIP_WIDTH_FRACTION,
) -> PixelImage:
    """Centered sub-image of the given fractional size, at least 1x1.

    When the leftover border is odd the extra pixel goes to the
    bottom/right side.
    """
    if crop.channels != 3:
        raise InvariantError(f"extract_strip expects a 3-channel crop (got {crop.channels})")
    for name, frac in (
        ("strip_height_fraction", strip_height_fraction),
        ("strip_width_fraction", strip_width_fraction),
    ):
        if not (isinstance(frac, (int, float)) and 0.0 < frac <= 1.0):
            raise InvariantError(f"{name} in (0, 1] violated (got {frac!r})")
    sh = max(1, round(crop.height * strip_height_fraction))
    sw = max(1, round(crop.width * strip_width_fraction))
    top = (crop.height - sh) // 2
    left = (crop.width - sw) // 2
    window = crop.pixels[top : top + sh, left : left + sw, :]
    return PixelImage(sw, sh, 3, window.tobytes())


def channel_histogram(strip: PixelImage) -> ChannelHistogram:
    """Histogram and mean of each channel over the whole strip."""
    if strip.channels != 3:
        raise InvariantError(f"channel_histogram expects a 3-channel strip (got {strip.channels})")
    # one bincount over the samples, channel c's levels moved to c * 256 + level
    samples = strip.pixels.reshape(-1, 3) + _CHANNEL_OFFSET
    counts = np.bincount(samples.reshape(-1), minlength=3 * 256).reshape(3, 256)
    counts.flags.writeable = False
    # each level sum is an exact integer below 2**53, so sum / count rounds once,
    # as ndarray.mean does with its exact float64 sum
    n = strip.width * strip.height
    means = tuple(total / n for total in (counts @ _LEVELS).tolist())
    return ChannelHistogram(counts=counts, means=means)


def _matches(profile: TeamColorProfile, means: tuple[float, float, float]) -> bool:
    if profile.mode == "dominant-channel":
        c = _CHANNEL_INDEX[profile.channel]
        others = [means[i] for i in range(3) if i != c]
        return all(means[c] - o >= profile.dominance_margin for o in others)
    return max(means) - min(means) < profile.dominance_margin


def require_distinct_profiles(home: TeamColorProfile, away: TeamColorProfile) -> None:
    """Profiles with the same mode and channel cannot be told apart."""
    if home.mode == away.mode and home.channel == away.channel:
        raise ProfileError(
            "home and away color profiles are indistinguishable "
            f"(both {home.mode}{'/' + home.channel if home.channel else ''})"
        )


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
    require_distinct_profiles(home, away)
    matches = [p.label for p in (home, away) if _matches(p, histogram.means)]
    if len(matches) == 1:
        return matches[0]
    return "unknown"

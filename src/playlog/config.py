"""Flat key-value run configuration.

Lines are ``key = value``; '#' starts a comment.  Every pipeline
threshold has a key here with its standard default, taken from the stage's
own config dataclass, so a config file only needs to name what it changes.
The file (or the defaults) is the only source of a run's thresholds.
Roster paths are resolved relative to the config file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from .clock import SegmenterConfig
from .gamelog import GameConfig, load_roster
from .jersey import AssemblyConfig
from .teamcolor import DOMINANCE_MARGIN, STRIP_HEIGHT_FRACTION, STRIP_WIDTH_FRACTION, TeamColorProfile
from .textfile import content_lines, read_lines


class ConfigError(ValueError):
    """The run configuration file is malformed or inconsistent."""


DEFAULTS: Mapping[str, str] = {
    "home_team": "Home",
    "away_team": "Away",
    "home_roster": "",
    "away_roster": "",
    "iou_suppress_threshold": str(AssemblyConfig.iou_suppress_threshold),
    "confidence_threshold": str(AssemblyConfig.confidence_threshold),
    "max_digits": str(AssemblyConfig.max_digits),
    "play_clock_reset_jump": str(SegmenterConfig.play_clock_reset_jump),
    "game_clock_gap": str(SegmenterConfig.game_clock_gap),
    "quarter_start": str(SegmenterConfig.quarter_start),
    "quarter_rearm_below": str(SegmenterConfig.quarter_rearm_below),
    "min_play_frames": str(SegmenterConfig.min_play_frames),
    "min_appearances": str(GameConfig.min_appearances),
    "strip_height_fraction": str(STRIP_HEIGHT_FRACTION),
    "strip_width_fraction": str(STRIP_WIDTH_FRACTION),
    "dominance_margin": str(DOMINANCE_MARGIN),
    "home_color_mode": "dominant-channel",
    "home_color_channel": "red",
    "away_color_mode": "no-dominant",
    "away_color_channel": "",
}


def parse_config_text(text: str) -> dict[str, str]:
    """Key-value lines to a dict over the defaults; unknown keys fail."""
    values = dict(DEFAULTS)
    for line_number, raw, stripped in content_lines(text.split("\n")):
        key, sep, value = stripped.partition("=")
        if sep == "":
            raise ConfigError(f"config line {line_number}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"config line {line_number}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _int_value(values: Mapping[str, str], key: str) -> int:
    try:
        return int(values[key])
    except ValueError:
        raise ConfigError(f"config key {key} must be an integer (got {values[key]!r})") from None


def _float_value(values: Mapping[str, str], key: str) -> float:
    try:
        return float(values[key])
    except ValueError:
        raise ConfigError(f"config key {key} must be a number (got {values[key]!r})") from None


def _profile(values: Mapping[str, str], label: str) -> TeamColorProfile:
    mode = values[f"{label}_color_mode"]
    channel = values[f"{label}_color_channel"] or None
    if mode == "no-dominant":
        channel = None
    return TeamColorProfile(
        label=label,
        mode=mode,
        channel=channel,
        dominance_margin=_float_value(values, "dominance_margin"),
    )


def _read_text(path: Path) -> str:
    # the reader of every text input: only "\n" ends a line, and a bad
    # UTF-8 byte is reported with the file and line
    return "".join(read_lines(path))


def build_game_config(values: Mapping[str, str], base_dir: Path | None = None) -> GameConfig:
    """Typed GameConfig from parsed key-value pairs.

    Roster keys, when set, are file paths resolved against base_dir; when
    empty, the roster is empty (every number reports as unrostered).
    """
    base = base_dir or Path(".")
    rosters = {}
    for side in ("home", "away"):
        path_text = values[f"{side}_roster"]
        lines: list[str] = []
        if path_text:
            path = Path(path_text)
            if not path.is_absolute():
                path = base / path
            try:
                lines = _read_text(path).split("\n")
            except OSError as exc:
                raise ConfigError(f"cannot read {side} roster {path}: {exc}") from None
        rosters[side] = load_roster(lines, team_name=values[f"{side}_team"])
    try:
        return GameConfig(
            home_team=values["home_team"],
            away_team=values["away_team"],
            home_roster=rosters["home"],
            away_roster=rosters["away"],
            home_profile=_profile(values, "home"),
            away_profile=_profile(values, "away"),
            segmenter=SegmenterConfig(
                play_clock_reset_jump=_int_value(values, "play_clock_reset_jump"),
                game_clock_gap=_int_value(values, "game_clock_gap"),
                quarter_start=_int_value(values, "quarter_start"),
                quarter_rearm_below=_int_value(values, "quarter_rearm_below"),
                min_play_frames=_int_value(values, "min_play_frames"),
            ),
            assembly=AssemblyConfig(
                iou_suppress_threshold=_float_value(values, "iou_suppress_threshold"),
                confidence_threshold=_float_value(values, "confidence_threshold"),
                max_digits=_int_value(values, "max_digits"),
            ),
            strip_height_fraction=_float_value(values, "strip_height_fraction"),
            strip_width_fraction=_float_value(values, "strip_width_fraction"),
            min_appearances=_int_value(values, "min_appearances"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str | Path | None = None) -> GameConfig:
    """The run configuration: a config file, or the defaults when path is None.

    Roster paths are resolved against the config file's directory.
    """
    if path is None:
        return build_game_config(DEFAULTS)
    p = Path(path)
    try:
        text = _read_text(p)
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from None
    return build_game_config(parse_config_text(text), p.parent)


def format_config(values: Mapping[str, str]) -> str:
    """Write key-value pairs back out in a stable order."""
    merged = dict(DEFAULTS)
    merged.update(values)
    unknown = set(values) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return "".join(f"{key} = {merged[key]}\n" for key in DEFAULTS)

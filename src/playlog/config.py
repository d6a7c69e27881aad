"""Flat key-value run configuration.

Lines are ``key = value``; '#' starts a comment.  Every pipeline
threshold has a key here with its standard default, so a config file only
needs to name what it changes.  Each field of a stage config
(``AssemblyConfig``, ``SegmenterConfig``) is a key of the same name, typed
and defaulted by the field, so a stage threshold is declared once, in its
dataclass.  The file (or the defaults) is the only source of a run's
thresholds.  Roster paths are resolved relative to the config file.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

from .clock import SegmenterConfig
from .core import InvariantError, Roster
from .gamelog import check_min_appearances, load_roster
from .jersey import AssemblyConfig
from .teamcolor import (
    DOMINANCE_MARGIN, STRIP_HEIGHT_FRACTION, STRIP_WIDTH_FRACTION, TeamColorProfile, check_fractions,
    require_distinct_profiles,
)
from .textfile import content_lines, number_token, read_lines


class ConfigError(ValueError):
    """The run configuration file is malformed or inconsistent."""


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
        check_min_appearances(self.min_appearances, "GameConfig.")
        check_fractions(self.strip_height_fraction, self.strip_width_fraction, "GameConfig.")
        if self.home_profile is not None and self.away_profile is not None:
            require_distinct_profiles(self.home_profile, self.away_profile)


DEFAULTS: Mapping[str, str] = {
    "home_team": "Home",
    "away_team": "Away",
    "home_roster": "",
    "away_roster": "",
    **{f.name: str(f.default) for stage in (AssemblyConfig, SegmenterConfig) for f in fields(stage)},
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
    """Key-value lines to a dict over the defaults; an unknown key, or a key set twice, fails."""
    values = dict(DEFAULTS)
    set_on: dict[str, int] = {}  # the line that set each key
    for line_number, raw, stripped in content_lines(text.split("\n")):
        key, sep, value = stripped.partition("=")
        if sep == "":
            raise ConfigError(f"config line {line_number}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"config line {line_number}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"config line {line_number}: key {key} already set on line {set_on[key]}")
        set_on[key] = line_number
        values[key] = value.strip()
    return values


def _number(values: Mapping[str, str], key: str, default: int | float) -> int | float:
    # the value of ``key`` read as the type of its default, an int or a float
    kind = type(default)
    try:
        return kind(number_token(values[key]))
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"config key {key} must be {what} (got {values[key]!r})") from None


def _stage(values: Mapping[str, str], stage: type) -> AssemblyConfig | SegmenterConfig:
    # a stage config whose every field is read from the key of its name
    return stage(**{f.name: _number(values, f.name, f.default) for f in fields(stage)})


def _profile(values: Mapping[str, str], label: str) -> TeamColorProfile:
    mode = values[f"{label}_color_mode"]
    channel = values[f"{label}_color_channel"] or None
    if mode == "no-dominant":
        channel = None
    return TeamColorProfile(
        label=label,
        mode=mode,
        channel=channel,
        dominance_margin=_number(values, "dominance_margin", DOMINANCE_MARGIN),
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
            segmenter=_stage(values, SegmenterConfig),
            assembly=_stage(values, AssemblyConfig),
            strip_height_fraction=_number(values, "strip_height_fraction", STRIP_HEIGHT_FRACTION),
            strip_width_fraction=_number(values, "strip_width_fraction", STRIP_WIDTH_FRACTION),
            min_appearances=_number(values, "min_appearances", GameConfig.min_appearances),
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
    """Write key-value pairs back out in a stable order; a value that would not read back as itself fails."""
    merged = dict(DEFAULTS)
    merged.update(values)
    unknown = set(values) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in values.items():
        if "\n" in value or "\r" in value:
            raise ConfigError(f"config key {key}: value {value!r} holds a line break")
        if value != value.strip():
            raise ConfigError(f"config key {key}: value {value!r} has leading or trailing whitespace")
    return "".join(f"{key} = {merged[key]}\n" for key in DEFAULTS)

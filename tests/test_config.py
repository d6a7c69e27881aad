"""Run configuration parsing and typed building."""

import pytest

from playlog import (
    ConfigError,
    DEFAULTS,
    build_game_config,
    format_config,
    load_config,
    parse_config_text,
)


class TestParse:
    def test_empty_text_is_all_defaults(self):
        assert parse_config_text("") == dict(DEFAULTS)

    def test_overrides_and_comments(self):
        values = parse_config_text("# game setup\nhome_team = Alabama\n\nmax_digits=1\n")
        assert values["home_team"] == "Alabama"
        assert values["max_digits"] == "1"
        assert values["away_team"] == "Away"

    def test_value_may_contain_equals(self):
        assert parse_config_text("home_team = A = B")["home_team"] == "A = B"

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("velocity = 9")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("home_team Alabama")

    def test_format_round_trip(self):
        values = parse_config_text("home_team = Alabama\ndominance_margin = 12.5\n")
        assert parse_config_text(format_config(values)) == values

    def test_focal_gamma_is_not_a_key(self):
        # no stage reads a focusing power; focal_loss takes it per ClassDistribution
        with pytest.raises(ConfigError, match=r"^config line 2: unknown key 'focal_gamma'$"):
            parse_config_text("home_team = Alabama\nfocal_gamma = 2\n")

    def test_lines_break_at_newline_only(self):
        # a form feed inside a comment starts no new line; "\r\n" still ends one
        text = "# page \x0c break\r\nhome_team = Alabama\r\n"
        assert parse_config_text(text)["home_team"] == "Alabama"
        with pytest.raises(ConfigError, match="^config line 3: "):
            parse_config_text(text + "not a pair\r\n")

    def test_format_rejects_unknown(self):
        with pytest.raises(ConfigError):
            format_config({"velocity": "9"})


class TestBuild:
    def test_defaults_build(self):
        cfg = load_config(None)
        assert cfg.home_team == "Home"
        assert cfg.away_team == "Away"
        assert cfg.assembly.confidence_threshold == 0.97
        assert cfg.segmenter.play_clock_reset_jump == 5
        assert cfg.home_profile.mode == "dominant-channel"
        assert cfg.home_profile.channel == "red"
        assert cfg.away_profile.mode == "no-dominant"
        assert cfg.away_profile.channel is None
        assert cfg.home_roster.entries == {}

    def test_typed_overrides(self):
        values = parse_config_text(
            "home_team = Alabama\naway_team = Michigan State\n"
            "min_appearances = 3\ngame_clock_gap = 25\ndominance_margin = 12\n"
        )
        cfg = build_game_config(values)
        assert cfg.min_appearances == 3
        assert cfg.segmenter.game_clock_gap == 25
        assert cfg.home_profile.dominance_margin == 12.0

    def test_bad_numeric_value(self):
        with pytest.raises(ConfigError, match="max_digits"):
            build_game_config(parse_config_text("max_digits = two"))

    def test_constraint_violation_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            build_game_config(parse_config_text("quarter_rearm_below = 900"))
        with pytest.raises(ConfigError):
            build_game_config(parse_config_text("home_team = Same\naway_team = Same"))

    def test_bad_profile(self):
        with pytest.raises(ConfigError):
            build_game_config(parse_config_text("home_color_mode = brightest"))

    def test_roster_paths_resolve_relative_to_config(self, tmp_path):
        (tmp_path / "home.txt").write_text("3: Calvin Ridley; Bradley Sylve\n", encoding="utf-8")
        (tmp_path / "game.cfg").write_text(
            "home_team = Alabama\nhome_roster = home.txt\n", encoding="utf-8"
        )
        cfg = load_config(tmp_path / "game.cfg")
        assert cfg.home_roster.entries[3] == ("Calvin Ridley", "Bradley Sylve")
        assert cfg.home_roster.team_name == "Alabama"
        assert cfg.away_roster.entries == {}

    def test_missing_roster_file(self, tmp_path):
        (tmp_path / "game.cfg").write_text("home_roster = nowhere.txt\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="roster"):
            load_config(tmp_path / "game.cfg")

    def test_bad_override_names_its_key(self, tmp_path):
        (tmp_path / "game.cfg").write_text("max_digits = two\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^config key max_digits must be an integer \(got 'two'\)$"):
            load_config(tmp_path / "game.cfg")
        (tmp_path / "game.cfg").write_text("max_digits = 1\nvelocity = 9\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^config line 2: unknown key 'velocity'$"):
            load_config(tmp_path / "game.cfg")

    def test_strip_fractions_and_profiles_are_checked(self):
        with pytest.raises(ConfigError, match=r"^config key strip_width_fraction must be a number"):
            build_game_config(parse_config_text("strip_width_fraction = wide"))
        with pytest.raises(ConfigError, match=r"^GameConfig.strip_height_fraction in \(0, 1\] violated"):
            build_game_config(parse_config_text("strip_height_fraction = 1.5"))
        with pytest.raises(ConfigError, match="indistinguishable"):
            build_game_config(parse_config_text("home_color_mode = no-dominant"))

    def test_quarter_start_above_the_clock_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"^SegmenterConfig.quarter_start must be at most 900 \(got 1200\)$"):
            build_game_config(parse_config_text("quarter_start = 1200"))

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config"):
            load_config(tmp_path / "nope.cfg")


# One non-default setting per key, plus any key it needs first.  A key
# missing here fails its case, so a new key must show that a stage reads it.
_AWAY_BLUE = "away_color_mode = dominant-channel\naway_color_channel = blue\n"
KEY_CHANGES = {
    "home_team": ("", "Alabama"),
    "away_team": ("", "Auburn"),
    "home_roster": ("", "roster.txt"),
    "away_roster": ("", "roster.txt"),
    "iou_suppress_threshold": ("", "0.3"),
    "confidence_threshold": ("", "0.5"),
    "max_digits": ("", "1"),
    "play_clock_reset_jump": ("", "8"),
    "game_clock_gap": ("", "20"),
    "quarter_start": ("", "880"),
    "quarter_rearm_below": ("", "200"),
    "min_play_frames": ("", "3"),
    "min_appearances": ("", "2"),
    "strip_height_fraction": ("", "0.5"),
    "strip_width_fraction": ("", "0.5"),
    "dominance_margin": ("", "10"),
    "home_color_mode": (_AWAY_BLUE, "no-dominant"),
    "home_color_channel": ("", "green"),
    "away_color_mode": ("away_color_channel = blue\n", "dominant-channel"),
    "away_color_channel": (_AWAY_BLUE, "green"),
}


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_no_config_key_is_dead(key, tmp_path):
    prerequisite, value = KEY_CHANGES[key]
    assert value != DEFAULTS[key]
    (tmp_path / "roster.txt").write_text("3: A Player\n", encoding="utf-8")
    (tmp_path / "base.cfg").write_text(prerequisite, encoding="utf-8")
    (tmp_path / "changed.cfg").write_text(f"{prerequisite}{key} = {value}\n", encoding="utf-8")
    assert load_config(tmp_path / "changed.cfg") != load_config(tmp_path / "base.cfg")

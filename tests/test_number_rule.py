"""The number-token rule shared by every text reader.

A number token is what int() or float() reads, restricted to ASCII
characters without '_'.  Each reader (record lines, clock lines, play
windows, rosters and run configuration) rejects a token with '_' between
two digits or with a non-ASCII digit in any number field, and reads every
ASCII token to the value int() or float() gives it.  The numeric command
line options follow the same rule.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from playlog import (
    DEFAULTS,
    BoundingBox,
    ClockParseError,
    ClockReading,
    ConfigError,
    DigitDetection,
    PlayerDetection,
    PlayWindow,
    RecordError,
    build_game_config,
    format_clock_line,
    format_play_windows,
    load_roster,
    parse_clock_line,
    parse_clock_stream,
    parse_config_text,
    parse_detection,
    parse_play_windows,
    serialize_detection,
)
from playlog.cli import build_parser, run
from playlog.gamelog import iter_detections
from playlog.textfile import keeps_number_rule, number_rule_break, number_token

ASCII_DIGITS = "0123456789"
RULE = "breaks the number-token rule (ASCII only, no '_')"

# decimal digits of other scripts: int() and float() read every one of them
non_ascii_digits = st.characters(categories=("Nd",)).filter(lambda c: not c.isascii())


@st.composite
def broken(draw, token):
    """``token`` with '_' put between two of its digits, or one digit swapped for a non-ASCII one."""
    digits = [k for k, c in enumerate(token) if c in ASCII_DIGITS]
    k = draw(st.sampled_from(digits))
    if k + 1 < len(token) and token[k + 1] in ASCII_DIGITS and draw(st.booleans()):
        return token[:k + 1] + "_" + token[k + 1:]
    return token[:k] + draw(non_ascii_digits) + token[k + 1:]


def replaced(line, index, token):
    fields = line.split(" ")
    fields[index] = token
    return " ".join(fields)


def number_fields(line):
    """Indices of the space-separated fields of ``line`` that hold a digit."""
    return [i for i, field in enumerate(line.split(" ")) if any(c in ASCII_DIGITS for c in field)]


def int_spellings(value):
    """ASCII spellings of ``value`` that int() reads: a '+' sign and leading zeros."""
    return st.builds(lambda sign, zeros: sign + "0" * zeros + str(value), st.sampled_from(["", "+"]), st.integers(0, 3))


# -- the rule itself ---------------------------------------------------------------

ascii_text = st.text(st.characters(max_codepoint=127).filter(lambda c: c != "_"), max_size=12)
number_like = st.from_regex(r"\s*[+-]?[0-9]{0,4}(\.[0-9]{0,3})?([eE][+-]?[0-9]{1,3})?\s*", fullmatch=True).filter(
    lambda t: "_" not in t and t.isascii()
)


def outcome(convert, text):
    try:
        return ("ok", repr(convert(text)))
    except ValueError:
        return ("error",)


class TestRule:
    @settings(deadline=None)
    @given(ascii_text | number_like)
    def test_ascii_text_converts_as_int_and_float_do(self, text):
        assert keeps_number_rule(text)
        assert number_token(text) == text
        assert outcome(lambda t: int(number_token(t)), text) == outcome(int, text)
        assert outcome(lambda t: float(number_token(t)), text) == outcome(float, text)

    @settings(deadline=None)
    @given(st.integers(0, 10**6).map(str).flatmap(broken))
    def test_broken_token_is_refused(self, token):
        assert int(token) >= 0  # int() alone reads it
        assert not keeps_number_rule(token)
        with pytest.raises(ValueError, match=f"^token {re.escape(repr(token))} breaks"):
            number_token(token)

    def test_the_diagnostic_names_a_token_or_a_separator(self):
        assert number_rule_break("1 2_0 ٣") == f"token '2_0' {RULE}"
        assert number_rule_break("1\xa02") == f"separator '\\xa0' {RULE}"


# -- record lines ------------------------------------------------------------------

coords = st.integers(0, 2000) | st.floats(0, 2000).map(lambda v: round(v, 2))
sizes = st.integers(1, 500) | st.floats(0.5, 500).map(lambda v: round(v, 2))
boxes = st.builds(BoundingBox, coords, coords, sizes, sizes)
unit = st.floats(0, 1)
record_lines = st.builds(
    PlayerDetection,
    st.integers(0, 10**6), boxes, unit,
    st.lists(st.builds(DigitDetection, boxes, st.integers(0, 9), unit), max_size=2).map(tuple),
    st.none() | st.integers(0, 99), st.sampled_from(["home", "away", "unknown"]),
).map(serialize_detection)


class TestRecordLines:
    @settings(deadline=None)
    @given(record_lines, st.data())
    def test_every_number_field_refuses_a_broken_token(self, line, data):
        for index in number_fields(line):
            token = data.draw(broken(line.split(" ")[index]))
            bad = replaced(line, index, token)
            with pytest.raises(RecordError, match=f"^record line 4: token {re.escape(repr(token))} breaks"):
                parse_detection(bad, 4)
            skipped = []
            assert list(iter_detections([line, bad], skipped)) == [(1, parse_detection(line))]
            assert skipped == [(2, f"record line 2: token {token!r} {RULE}")]

    @settings(deadline=None)
    @given(record_lines, st.sampled_from(["\xa0", "\u2003", "\u3000"]))
    def test_a_unicode_space_between_fields_is_refused(self, line, space):
        with pytest.raises(RecordError, match=f"^separator {re.escape(repr(space))} breaks"):
            parse_detection(line.replace(" ", space, 1))

    @settings(deadline=None)
    @given(record_lines, st.data())
    def test_ascii_spellings_read_as_int_and_float_do(self, line, data):
        fields = line.split(" ")
        frame = data.draw(int_spellings(int(fields[0])))
        x = data.draw(st.sampled_from(["+", "0", ""])) + fields[1] + data.draw(st.sampled_from(["", "e0", "E+00"]))
        d = parse_detection(replaced(replaced(line, 0, frame), 1, x))
        assert d.frame_index == int(frame)
        assert d.box.x == float(x)


# -- clock lines and play windows ------------------------------------------------

clock_lines = st.builds(
    ClockReading, st.integers(0, 10**6), st.none() | st.integers(0, 900), st.none() | st.integers(0, 40)
).map(format_clock_line)
window_lines = st.builds(
    lambda start, length, end_time, run: format_play_windows([
        PlayWindow(play_number=1 + start % 50, quarter=1 + start % 4, frame_start=start, frame_end=start + length,
                   start_time=end_time + run, end_time=end_time)
    ]).rstrip("\n"),
    st.integers(0, 10**6), st.integers(0, 900), st.integers(0, 800), st.integers(0, 100),
)


class TestClockAndWindows:
    @settings(deadline=None)
    @given(clock_lines, st.data())
    def test_every_clock_field_refuses_a_broken_token(self, line, data):
        for index in number_fields(line):
            token = data.draw(broken(line.split(" ")[index]))
            bad = replaced(line, index, token)
            with pytest.raises(ClockParseError, match=f"^line 3: token {re.escape(repr(token))} breaks"):
                parse_clock_line(bad, 3)
            result = parse_clock_stream([bad])
            assert result.readings == ()
            assert result.diagnostics == (f"line 1: token {token!r} {RULE}",)

    @settings(deadline=None)
    @given(window_lines, st.data())
    def test_every_window_field_refuses_a_broken_token(self, line, data):
        for index in number_fields(line):
            token = data.draw(broken(line.split(" ")[index]))
            message = f"^line 1: bad play window: token {re.escape(repr(token))} breaks"
            with pytest.raises(ClockParseError, match=message):
                parse_play_windows(replaced(line, index, token))

    @settings(deadline=None)
    @given(clock_lines, window_lines, st.data())
    def test_ascii_spellings_read_as_int_does(self, clock_line, window_line, data):
        frame = data.draw(int_spellings(int(clock_line.split(" ")[0])))
        assert parse_clock_line(replaced(clock_line, 0, frame)).frame_index == int(frame)
        start = data.draw(int_spellings(int(window_line.split(" ")[2])))
        assert parse_play_windows(replaced(window_line, 2, start))[0].frame_start == int(start)


# -- rosters and run configuration --------------------------------------------------

INT_KEYS = {
    "max_digits": lambda c: c.assembly.max_digits,
    "play_clock_reset_jump": lambda c: c.segmenter.play_clock_reset_jump,
    "game_clock_gap": lambda c: c.segmenter.game_clock_gap,
    "quarter_start": lambda c: c.segmenter.quarter_start,
    "quarter_rearm_below": lambda c: c.segmenter.quarter_rearm_below,
    "min_play_frames": lambda c: c.segmenter.min_play_frames,
    "min_appearances": lambda c: c.min_appearances,
}
FLOAT_KEYS = {
    "iou_suppress_threshold": lambda c: c.assembly.iou_suppress_threshold,
    "confidence_threshold": lambda c: c.assembly.confidence_threshold,
    "strip_height_fraction": lambda c: c.strip_height_fraction,
    "strip_width_fraction": lambda c: c.strip_width_fraction,
    "dominance_margin": lambda c: c.home_profile.dominance_margin,
}


class TestRosterAndConfig:
    @settings(deadline=None)
    @given(st.integers(0, 99).map(str).flatmap(broken))
    def test_roster_number_refuses_a_broken_token(self, token):
        with pytest.raises(RecordError, match=r"^roster line 1: expected 'number: name\[; name\]\.\.\.'"):
            load_roster([f"{token}: Ann Ávila"])

    @settings(deadline=None)
    @given(st.integers(0, 99).flatmap(int_spellings))
    def test_roster_number_reads_as_int_does(self, token):
        assert load_roster([f"{token}: Ann Ávila"]).entries == {int(token): ("Ann Ávila",)}

    @settings(deadline=None)
    @given(st.sampled_from(sorted(INT_KEYS) + sorted(FLOAT_KEYS)), st.data())
    def test_every_config_number_refuses_a_broken_token(self, key, data):
        token = data.draw(broken(DEFAULTS[key]))
        kind = "an integer" if key in INT_KEYS else "a number"
        with pytest.raises(ConfigError, match=f"^config key {key} must be {kind} \\(got {re.escape(repr(token))}\\)$"):
            build_game_config(parse_config_text(f"home_team = Ñandúes\n{key} = {token}\n"))

    @settings(deadline=None)
    @given(st.sampled_from(sorted(INT_KEYS)), st.data())
    def test_config_integers_read_as_int_does(self, key, data):
        token = data.draw(int_spellings(int(DEFAULTS[key])))
        assert INT_KEYS[key](build_game_config(parse_config_text(f"{key} = {token}"))) == int(token)

    @settings(deadline=None)
    @given(st.sampled_from(sorted(FLOAT_KEYS)), st.sampled_from(["+", "0", ""]), st.sampled_from(["", "0", "e0"]))
    def test_config_numbers_read_as_float_does(self, key, head, tail):
        token = head + DEFAULTS[key] + tail
        assert FLOAT_KEYS[key](build_game_config(parse_config_text(f"{key} = {token}"))) == float(token)


# -- numeric command line options ---------------------------------------------------

SYNTH_ARGV = ["synth", "--seed", "3", "--quarters", "1", "--plays-per-quarter", "1", "--fps", "2"]
# (subcommand argv, option, a token that int() or float() reads but the rule refuses)
OPTION_CASES = [
    (SYNTH_ARGV, "--seed", "٣"),
    (SYNTH_ARGV, "--quarters", "1_0"),
    (SYNTH_ARGV, "--plays-per-quarter", "١"),
    (SYNTH_ARGV, "--fps", "1_0"),
    (SYNTH_ARGV, "--players-min", "٦"),
    (SYNTH_ARGV, "--players-max", "1_1"),
    (SYNTH_ARGV, "--ocr-corruption", "0.0_1"),
    (SYNTH_ARGV, "--digit-error", "0.١"),
    (SYNTH_ARGV, "--detection-drop", "0.0_1"),
    (["preprocess", "--input", "crop.ppm"], "--threshold", "1_28"),
    (["augment", "--input", "crop.ppm"], "--sigma", "١.5"),
    (["augment", "--input", "crop.ppm"], "--factors", "0.5,2_0"),
]


class TestCommandLineOptions:
    @pytest.mark.parametrize("argv, option, value", OPTION_CASES, ids=[case[1] for case in OPTION_CASES])
    def test_option_refuses_a_broken_token(self, argv, option, value, tmp_path, capsys):
        out = tmp_path / "out"
        output = ["--output-dir" if argv[0] == "augment" else "--output", str(out)]
        assert run([*argv, *output, option, value]) == 1
        token = value.split(",")[-1]
        err = capsys.readouterr().err
        assert err.startswith(f"playlog {argv[0]}: error: argument {option}: token {token!r} {RULE}\n")
        assert not out.exists()

    def test_ascii_spellings_read_as_int_and_float_do(self, tmp_path):
        args = build_parser().parse_args(
            ["synth", "--seed", "+03", "--output", str(tmp_path), "--fps", "0030", "--digit-error", "5e-2"]
        )
        assert (args.seed, args.fps, args.digit_error) == (3, 30, 0.05)
        args = build_parser().parse_args(["augment", "--input", "a", "--output-dir", "b", "--factors", "0.5, 2e0,"])
        assert args.factors == [0.5, 2.0]

"""Clock text parsing, quarter hysteresis, play segmentation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from playlog import (
    ClockParseError,
    ClockReading,
    ClockStreamError,
    InvariantError,
    PlayWindow,
    SegmenterConfig,
    format_clock_line,
    format_mmss,
    format_play_windows,
    label_quarters,
    parse_clock_line,
    parse_clock_stream,
    parse_mmss,
    parse_play_windows,
    segment_plays,
)
from playlog.core import GAME_CLOCK_MAX, PLAY_CLOCK_MAX
from playlog.synth import SynthConfig, generate_game


def reading(frame, game, play=None):
    return ClockReading(frame_index=frame, game_clock=game, play_clock=play)


class TestMmss:
    @pytest.mark.parametrize("text,seconds", [
        ("15:00", 900),
        ("12:41", 761),
        ("00:00", 0),
        ("0:59", 59),
        ("13:24", 804),
    ])
    def test_parse(self, text, seconds):
        assert parse_mmss(text) == seconds

    @pytest.mark.parametrize("bad", [
        "1241", "12:4", "12:456", "12:60", "-1:00", "aa:bb", "103:00", "",
        "12:34\n", " 12:34", "1\u0663:53", "12:3\u0664", "1_2:34",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_mmss(bad)

    @pytest.mark.parametrize("seconds,text", [(900, "15:00"), (761, "12:41"), (0, "00:00"), (59, "00:59")])
    def test_format(self, seconds, text):
        assert format_mmss(seconds) == text

    def test_round_trip(self):
        for s in range(0, 901):
            assert parse_mmss(format_mmss(s)) == s


class TestClockLine:
    def test_full_reading(self):
        r = parse_clock_line("1520 12:41 25")
        assert r == ClockReading(frame_index=1520, game_clock=761, play_clock=25)

    def test_zero_means_absent(self):
        r = parse_clock_line("30 0 0")
        assert r.game_clock is None
        assert r.play_clock is None
        assert r.absent

    def test_partial_absence(self):
        r = parse_clock_line("7 14:59 0")
        assert r.game_clock == 899
        assert r.play_clock is None

    @pytest.mark.parametrize("bad", [
        "12 14:59",            # missing field
        "12 14:59 25 9",       # extra field
        "x 14:59 25",          # bad frame
        "-3 14:59 25",
        "12 16:00 25",         # above 15:00
        "12 14:59 41",         # above play clock cap
        "12 14:59 2.5",
        "12 1499 25",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ClockParseError):
            parse_clock_line(bad)

    def test_error_carries_line_number(self):
        with pytest.raises(ClockParseError, match="^line 3: ") as info:
            parse_clock_line("junk", 3)
        assert info.value.line_number == 3

    def test_format_round_trip(self):
        for line in ("1520 12:41 25", "30 0 0", "7 14:59 0", "9 0 12"):
            assert format_clock_line(parse_clock_line(line)) == line


readings = st.builds(
    ClockReading,
    frame_index=st.integers(0, 10**9),
    game_clock=st.none() | st.integers(0, GAME_CLOCK_MAX),
    play_clock=st.none() | st.integers(0, PLAY_CLOCK_MAX),
)


@st.composite
def clock_lines(draw):
    """A line in the form format_clock_line writes: no leading zeros, mm:ss with two-digit fields."""
    frame = str(draw(st.integers(0, 10**9)))
    game = draw(st.just("0") | st.integers(0, GAME_CLOCK_MAX).map(lambda s: f"{s // 60:02d}:{s % 60:02d}"))
    play = str(draw(st.integers(0, PLAY_CLOCK_MAX)))
    return f"{frame} {game} {play}"


class TestClockLineRoundTrip:
    @settings(deadline=None)
    @given(readings)
    def test_reading_round_trip(self, r):
        assert parse_clock_line(format_clock_line(r)) == r

    @settings(deadline=None)
    @given(clock_lines())
    def test_text_round_trip(self, line):
        assert format_clock_line(parse_clock_line(line)) == line

    def test_play_clock_zero_round_trip(self):
        r = ClockReading(frame_index=5, game_clock=10, play_clock=0)
        assert parse_clock_line(format_clock_line(r)) == r


class TestClockStream:
    def test_comments_and_blanks_skipped(self):
        result = parse_clock_stream(["# header", "", "10 15:00 40", "  ", "11 14:59 39"])
        assert len(result.readings) == 2
        assert result.diagnostics == ()

    def test_malformed_line_becomes_diagnostic(self):
        result = parse_clock_stream(["10 15:00 40", "junk line here", "12 14:59 39"])
        assert [r.frame_index for r in result.readings] == [10, 12]
        assert len(result.diagnostics) == 1
        assert "line 2" in result.diagnostics[0]

    def test_strict_raises_instead(self):
        with pytest.raises(ClockParseError):
            parse_clock_stream(["10 15:00 40", "junk line here"], strict=True)

    @pytest.mark.parametrize("line, message", [
        ("1" * 4301 + " 14:59 39", "bad frame number '" + "1" * 4301 + "'"),
        ("11 14:59 " + "1" * 4301, "bad play clock '" + "1" * 4301 + "'"),
    ], ids=["frame", "play-clock"])
    def test_field_too_long_for_int_is_a_bad_line(self, line, message):
        # int() refuses more than 4,300 digits; the line is malformed, not fatal
        result = parse_clock_stream(["10 15:00 40", line, "12 14:58 38"])
        assert [r.frame_index for r in result.readings] == [10, 12]
        assert result.diagnostics == (f"line 2: {message}",)
        with pytest.raises(ClockParseError, match="^line 2: bad "):
            parse_clock_stream(["10 15:00 40", line], strict=True)

    @pytest.mark.parametrize("second", ["10 14:59 39", "9 14:59 39"])
    def test_frame_order_skipped_when_lenient(self, second):
        # the out-of-order line is skipped like a malformed one; later lines are kept
        result = parse_clock_stream(["10 15:00 40", "junk", second, "11 14:58 38"])
        assert [r.frame_index for r in result.readings] == [10, 11]
        frame = second.split()[0]
        assert result.diagnostics == (
            "line 2: expected 3 fields, got 1: 'junk'",
            f"line 3: frame {frame} not above previous frame 10",
        )

    @pytest.mark.parametrize("second", ["10 14:59 39", "9 14:59 39"])
    def test_frame_order_fatal_when_strict(self, second):
        frame = second.split()[0]
        with pytest.raises(ClockStreamError, match=f"^line 2: frame {frame} not above previous frame 10$"):
            parse_clock_stream(["10 15:00 40", second, "11 14:58 38"], strict=True)


class TestLabelQuarters:
    def test_all_first_quarter(self):
        rs = [reading(i, 900 - i) for i in range(5)]
        assert label_quarters(rs) == [1, 1, 1, 1, 1]

    def test_arm_then_fire(self):
        rs = [reading(0, 500), reading(1, 119), reading(2, 899)]
        assert label_quarters(rs) == [1, 1, 2]

    def test_fire_requires_arming(self):
        # a replay showing 15:00 without the clock having run down first
        rs = [reading(0, 500), reading(1, 899), reading(2, 400)]
        assert label_quarters(rs) == [1, 1, 1]

    def test_arm_boundary(self):
        # 120 does not arm, 119 does
        assert label_quarters([reading(0, 120), reading(1, 899)]) == [1, 1]
        assert label_quarters([reading(0, 119), reading(1, 899)]) == [1, 2]

    def test_fire_boundary(self):
        # 14:58 is not a quarter open, 14:59 is
        assert label_quarters([reading(0, 100), reading(1, 898)]) == [1, 1]
        assert label_quarters([reading(0, 100), reading(1, 899)]) == [1, 2]

    def test_absent_readings_keep_label(self):
        rs = [reading(0, 100), reading(1, None), reading(2, 900)]
        assert label_quarters(rs) == [1, 1, 2]

    def test_four_quarters(self):
        rs = []
        f = 0
        for _ in range(4):
            rs.append(reading(f, 900))
            rs.append(reading(f + 1, 90))
            f += 2
        assert label_quarters(rs) == [1, 1, 2, 2, 3, 3, 4, 4]

    def test_fifth_transition_is_fatal(self):
        rs = []
        f = 0
        for _ in range(5):
            rs.append(reading(f, 900))
            rs.append(reading(f + 1, 90))
            f += 2
        with pytest.raises(ClockStreamError, match="overtime"):
            label_quarters(rs)

    def test_rearm_must_stay_below_start(self):
        with pytest.raises(InvariantError):
            SegmenterConfig(quarter_rearm_below=900)

    def test_start_above_the_game_clock_maximum_is_rejected(self):
        # the game clock never reads above 15:00, so a later start could never fire
        assert SegmenterConfig(quarter_start=900).quarter_start == 900
        with pytest.raises(
            InvariantError, match=r"^SegmenterConfig.quarter_start must be at most 900 \(got 901\)$"
        ):
            SegmenterConfig(quarter_start=901)


def stream(*lines):
    return parse_clock_stream(lines).readings


class TestSegmentPlays:
    def test_golden_two_play_stream(self):
        readings = stream(
            "100 15:00 40",
            "150 14:58 38",
            "200 14:56 36",
            "250 14:54 34",
            "260 0 0",
            "270 0 0",
            "300 13:53 40",
            "350 13:40 27",
            "400 13:24 11",
        )
        windows = segment_plays(readings)
        assert windows == [
            PlayWindow(play_number=1, quarter=1, frame_start=100, frame_end=250,
                       start_time=900, end_time=894),
            PlayWindow(play_number=2, quarter=1, frame_start=300, frame_end=400,
                       start_time=parse_mmss("13:53"), end_time=parse_mmss("13:24")),
        ]
        assert format_play_windows(windows) == (
            "1 1 100 250 15:00 14:54\n"
            "2 1 300 400 13:53 13:24\n"
        )

    def test_play_clock_jump_boundary(self):
        # 34 -> 38 is a jump of 4: same play; 34 -> 39 is 5: new play
        same = segment_plays(stream("0 14:50 35", "1 14:49 34", "2 14:48 38", "3 14:47 37"))
        assert len(same) == 1
        split = segment_plays(stream("0 14:50 35", "1 14:49 34", "2 14:48 39", "3 14:47 38"))
        assert len(split) == 2

    def test_game_gap_boundary(self):
        # consecutive readings 14:49 -> 14:10 differ by 39: same play;
        # 14:49 -> 14:09 differ by 40: new play
        same = segment_plays(stream("0 14:50 0", "1 14:49 0", "2 14:10 0", "3 14:09 0"))
        assert len(same) == 1
        split = segment_plays(stream("0 14:50 0", "1 14:49 0", "2 14:09 0", "3 14:08 0"))
        assert len(split) == 2

    def test_gap_is_bidirectional(self):
        # the clock jumping up by 40 also opens a play
        split = segment_plays(stream("0 13:00 0", "1 12:59 0", "2 13:40 0", "3 13:39 0"))
        assert len(split) == 2

    def test_quarter_change_opens_play(self):
        windows = segment_plays(stream("0 01:30 0", "1 01:28 0", "2 15:00 0", "3 14:58 0"))
        assert [w.quarter for w in windows] == [1, 2]
        # and the quarter boundary also trips the big-gap rule; numbers restart per stream
        assert [w.play_number for w in windows] == [1, 2]

    def test_reappearance_after_absence(self):
        windows = segment_plays(stream(
            "0 14:30 40", "1 14:29 39",
            "2 0 0", "3 0 0",
            "4 14:20 40", "5 14:19 39",
        ))
        assert len(windows) == 2
        assert windows[1].frame_start == 4

    def test_short_group_dropped_and_numbering_closes_up(self):
        windows = segment_plays(stream(
            "0 14:30 40", "1 14:29 39",
            "2 0 0", "3 0 0",
            "4 14:20 40",                      # lone frame, dropped
            "5 0 0", "6 0 0",
            "7 14:00 40", "8 13:59 39",
        ))
        assert [w.play_number for w in windows] == [1, 2]
        assert windows[1].frame_start == 7

    def test_absent_only_group_dropped(self):
        windows = segment_plays(stream("0 14:30 40", "1 14:29 39", "2 0 0", "3 0 0"))
        assert len(windows) == 1
        # the trailing cut frames do not stretch the window
        assert windows[0].frame_end == 1

    def test_lone_misread_between_cuts_is_dropped(self):
        windows = segment_plays(stream(
            "0 14:30 40", "1 14:29 39",
            "2 0 0", "3 14:20 0", "4 0 0",  # single-frame glitch window
            "5 14:00 40", "6 13:59 39",
        ))
        assert [w.play_number for w in windows] == [1, 2]
        assert windows[1].frame_start == 5

    def test_play_clock_only_group_dropped(self):
        # readable play clock but never a game clock: no usable span
        windows = segment_plays(stream("0 0 40", "1 0 39", "2 0 38"))
        assert windows == []

    def test_span_clamps_upward_misread(self):
        # last present reading is above the first; the span must not invert
        windows = segment_plays(stream("0 14:30 0", "1 14:29 0", "2 14:31 0"))
        assert windows[0].start_time == parse_mmss("14:31")
        assert windows[0].end_time == parse_mmss("14:30")

    def test_interior_absence_tolerated(self):
        windows = segment_plays(stream("0 14:30 40", "1 0 39", "2 14:28 38"))
        assert len(windows) == 1
        assert windows[0].start_time == parse_mmss("14:30")
        assert windows[0].end_time == parse_mmss("14:28")

    def test_empty_stream(self):
        assert segment_plays([]) == []


@st.composite
def reading_streams(draw):
    """Readings with rising frames and any mix of clock values and gaps."""
    steps = draw(st.lists(st.tuples(
        st.integers(1, 3),
        st.none() | st.integers(0, GAME_CLOCK_MAX) | st.sampled_from([0, 119, 120, 899, 900]),
        st.none() | st.integers(0, PLAY_CLOCK_MAX),
    ), max_size=50))
    out, frame = [], draw(st.integers(0, 5))
    for step, game, play in steps:
        out.append(ClockReading(frame_index=frame, game_clock=game, play_clock=play))
        frame += step
    return out


segmenter_configs = st.builds(
    SegmenterConfig,
    play_clock_reset_jump=st.integers(1, 10),
    game_clock_gap=st.integers(1, 60),
    quarter_start=st.sampled_from([GAME_CLOCK_MAX, 600]),
    quarter_rearm_below=st.sampled_from([60, 120]),
    min_play_frames=st.integers(1, 3),
)


class TestSegmenterInvariants:
    @settings(deadline=None, max_examples=200)
    @given(reading_streams(), segmenter_configs)
    def test_windows_are_numbered_disjoint_and_ordered(self, stream_readings, cfg):
        try:
            windows = segment_plays(stream_readings, cfg)
        except ClockStreamError:
            return  # a fifth quarter: overtime is rejected, not segmented
        assert [w.play_number for w in windows] == list(range(1, len(windows) + 1))
        for earlier, later in zip(windows, windows[1:]):
            assert earlier.frame_end < later.frame_start
            assert earlier.quarter <= later.quarter
        present = {r.frame_index for r in stream_readings if r.game_clock is not None}
        for w in windows:
            assert w.start_time >= w.end_time
            assert 1 <= w.quarter <= 4
            assert w.frame_start in present and w.frame_end in present

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(2, 5), st.integers(1, 5))
    def test_clean_synth_streams_segment_to_the_truth(self, seed, quarters, plays, fps):
        game = generate_game(SynthConfig(seed=seed, quarters=quarters, plays_per_quarter=plays,
                                         frames_per_second=fps))
        windows = segment_plays(parse_clock_stream(game.clock_lines, strict=True).readings)
        assert [(w.play_number, w.quarter, w.start_time, w.end_time) for w in windows] == [
            (e.play_number, e.quarter, e.start_time, e.end_time) for e in game.truth
        ]


@st.composite
def play_windows(draw):
    start = draw(st.integers(0, 10**7))
    start_time = draw(st.integers(0, 900))
    return PlayWindow(
        play_number=draw(st.integers(1, 10**6)),
        quarter=draw(st.integers(1, 4)),
        frame_start=start,
        frame_end=draw(st.integers(start, start + 10**5)),
        start_time=start_time,
        end_time=draw(st.integers(0, start_time)),
    )


class TestWindowText:
    @settings(deadline=None)
    @given(st.lists(play_windows(), max_size=5))
    def test_round_trip_property(self, windows):
        assert parse_play_windows(format_play_windows(windows)) == windows

    def test_round_trip(self):
        windows = [
            PlayWindow(play_number=1, quarter=1, frame_start=100, frame_end=250,
                       start_time=900, end_time=894),
            PlayWindow(play_number=2, quarter=3, frame_start=300, frame_end=400,
                       start_time=833, end_time=804),
        ]
        assert parse_play_windows(format_play_windows(windows)) == windows

    def test_comments_skipped(self):
        text = "# windows\n1 1 0 10 15:00 14:54\n\n"
        assert len(parse_play_windows(text)) == 1

    @pytest.mark.parametrize("bad", [
        "1 1 0 10 15:00",                # missing field
        "1 1 0 10 15:00 14:54 extra",
        "0 1 0 10 15:00 14:54",          # play number below 1
        "1 5 0 10 15:00 14:54",          # quarter out of range
        "1 1 10 0 15:00 14:54",          # inverted frames
        "1 1 0 10 14:54 15:00",          # inverted span
        "1 1 0 10 junk 14:54",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ClockParseError):
            parse_play_windows(bad)

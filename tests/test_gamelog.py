"""Rosters, record lines, synchronization, log emission."""

import math
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import ref_participants
from test_core import edited_record_lines

import playlog.gamelog
from playlog import (
    AssemblyConfig,
    BoundingBox,
    DigitDetection,
    GameConfig,
    GameLogEntry,
    InvariantError,
    PlayWindow,
    PlayerDetection,
    RecordError,
    Roster,
    emit_game_log,
    group_by_frame,
    iter_detections,
    load_detections,
    load_roster,
    parse_detection,
    parse_game_log,
    presence_table,
    read_records,
    resolve_names,
    roster_lines,
    serialize_detection,
    synchronize,
    synchronize_presence,
)
from playlog.gamelog import BLOCK_LINES, FAILED_PARSES, WRITE_ROWS
from playlog.jersey import assemble_detection
from playlog.textfile import read_lines


class TestRoster:
    def test_basic_lines(self):
        r = load_roster(["3: Calvin Ridley; Bradley Sylve", "10: A Player"], team_name="Alabama")
        assert r.team_name == "Alabama"
        assert r.entries[3] == ("Calvin Ridley", "Bradley Sylve")
        assert r.entries[10] == ("A Player",)

    def test_comments_and_blanks(self):
        r = load_roster(["# squad", "", "5: X"])
        assert list(r.entries) == [5]

    def test_number_repeats_accumulate(self):
        r = load_roster(["7: Offense Guy", "7: Defense Guy"])
        assert r.entries[7] == ("Offense Guy", "Defense Guy")

    def test_exact_duplicate_rejected(self):
        with pytest.raises(RecordError):
            load_roster(["7: Same Guy", "7: Same Guy"])

    @pytest.mark.parametrize("bad", [
        "100: Too High",
        "x: No Number",
        "5 Missing Colon",
        "5: ",
        "5: A;;B",
    ])
    def test_rejects(self, bad):
        with pytest.raises(RecordError):
            load_roster([bad])

    def test_lines_round_trip(self):
        rng = random.Random(55)
        entries = {}
        for number in rng.sample(range(100), 12):
            entries[number] = tuple(f"Player {number}{suffix}" for suffix in ("", " Jr")[: rng.randint(1, 2)])
        r = Roster(team_name="T", entries=entries)
        assert load_roster(roster_lines(r).splitlines(), team_name="T") == r

    def test_error_names_line(self):
        with pytest.raises(RecordError, match="roster line 2"):
            load_roster(["1: A", "bad"])

    def test_non_decimal_digit_is_a_record_error(self):
        # '²' passes str.isdigit() but int() rejects it; int() reads '١٢', the number-token rule does not
        for head in ("²", "١٢"):
            with pytest.raises(
                RecordError, match=rf"^roster line 2: expected 'number: name\[; name\]\.\.\.', got '{head}: Bob'$"
            ):
                load_roster(["1: A", f"{head}: Bob"])

    def test_number_too_long_for_int_is_a_record_error(self):
        # int() refuses more than 4,300 digits
        with pytest.raises(RecordError, match=r"^roster line 2: expected 'number: name\[; name\]\.\.\.', got '1111"):
            load_roster(["1: A", "1" * 4301 + ": Bob"])

    @pytest.mark.parametrize("head", ["٣", "1_0", "5\u2003", "5.0"])
    def test_number_outside_the_token_rule_is_a_record_error(self, head):
        with pytest.raises(RecordError, match=r"^roster line 1: expected 'number: name\[; name\]\.\.\.', got "):
            load_roster([f"{head}: Bob"])

    def test_number_is_read_as_int_reads_it(self):
        assert load_roster(["+07 : A", " 0: B"]).entries == {7: ("A",), 0: ("B",)}
        with pytest.raises(RecordError, match=r"^roster line 1: number -5 outside 0\.\.99$"):
            load_roster(["-5: A"])


class TestResolveNames:
    ROSTER = Roster(team_name="Alabama", entries={3: ("Calvin Ridley", "Bradley Sylve"), 10: ("Solo",)})

    def test_single(self):
        assert resolve_names(10, self.ROSTER) == "Solo"

    def test_shared_number_joined(self):
        assert resolve_names(3, self.ROSTER) == "Calvin Ridley or Bradley Sylve"

    def test_unrostered(self):
        assert resolve_names(44, self.ROSTER) == "#44 (unrostered)"


def detection(frame=0, x=10, y=20, w=40, h=60, score=0.9, team="home", number=None, digits=()):
    return PlayerDetection(frame_index=frame, box=BoundingBox(x, y, w, h), score=score,
                           digits=digits, number=number, team=team)


def digit(value, conf, x):
    return DigitDetection(box=BoundingBox(x, 12, 10, 14), digit=value, confidence=conf)


coordinates = st.floats(min_value=0, allow_nan=False, allow_infinity=False) | st.integers(0, 10**6)
extents = st.floats(min_value=0, exclude_min=True, allow_nan=False, allow_infinity=False) | st.integers(1, 10**6)
unit = st.floats(min_value=0, max_value=1) | st.sampled_from([0, 1])
boxes = st.builds(BoundingBox, coordinates, coordinates, extents, extents)
# every finite float, and every int a float holds exactly (up to 2**53)
exact_coordinates = st.floats(min_value=0, allow_nan=False, allow_infinity=False) | st.integers(0, 2**53)
exact_extents = st.floats(min_value=0, exclude_min=True, allow_nan=False, allow_infinity=False) | st.integers(1, 2**53)
valid_detections = st.builds(
    PlayerDetection,
    frame_index=st.integers(0, 10**7),
    box=boxes,
    score=unit,
    digits=st.lists(st.builds(DigitDetection, box=boxes, digit=st.integers(0, 9), confidence=unit), max_size=3),
    number=st.none() | st.integers(0, 99),
    team=st.sampled_from(["home", "away", "unknown"]),
)


class TestRecordLines:
    @settings(deadline=None)
    @given(valid_detections)
    def test_round_trip_property(self, d):
        line = serialize_detection(d)
        assert parse_detection(line) == d
        assert serialize_detection(parse_detection(line)) == line

    @settings(deadline=None, max_examples=300)
    @given(st.builds(
        PlayerDetection,
        frame_index=st.integers(0, 10**12),
        box=st.builds(BoundingBox, exact_coordinates, exact_coordinates, exact_extents, exact_extents),
        score=unit,
        digits=st.lists(st.builds(DigitDetection, box=st.builds(BoundingBox, exact_coordinates, exact_coordinates,
                                                                exact_extents, exact_extents),
                                  digit=st.integers(0, 9), confidence=unit), max_size=3),
        number=st.none() | st.integers(0, 99),
        team=st.sampled_from(["home", "away", "unknown"]),
    ))
    def test_text_round_trip_property(self, d):
        # every line the writer produces reads back to a value the writer turns into the same line
        line = serialize_detection(d)
        assert serialize_detection(parse_detection(line)) == line

    def test_text_round_trip_of_an_int_above_float_precision(self):
        line = serialize_detection(detection(w=2**53 + 1))
        assert line == "0 10 20 9007199254740993 60 0.9 home - 0"
        assert serialize_detection(parse_detection(line)) == line
        assert parse_detection(line).box.w == 2**53 + 1

    def test_bare_record(self):
        line = serialize_detection(detection())
        assert line == "0 10 20 40 60 0.9 home - 0"
        assert parse_detection(line) == detection()

    def test_record_with_digits_and_number(self):
        d = detection(frame=17, number=51, digits=(digit(5, 0.99, 4), digit(1, 0.98, 18)))
        line = serialize_detection(d)
        assert line.split()[:9] == ["17", "10", "20", "40", "60", "0.9", "home", "51", "2"]
        assert parse_detection(line) == d

    def test_float_geometry_round_trips(self):
        d = detection(x=10.25, score=0.8125)
        assert parse_detection(serialize_detection(d)) == d

    def test_round_trip_sweep(self):
        rng = random.Random(300)
        for _ in range(200):
            digits = tuple(
                digit(rng.randrange(10), round(rng.uniform(0.5, 1.0), 4), 4 + 14 * i)
                for i in range(rng.randint(0, 3))
            )
            d = detection(
                frame=rng.randrange(10000),
                x=rng.choice([rng.randrange(500), round(rng.uniform(0, 500), 2)]),
                score=round(rng.random(), 4),
                team=rng.choice(["home", "away", "unknown"]),
                number=rng.choice([None, rng.randrange(100)]),
                digits=digits,
            )
            assert parse_detection(serialize_detection(d)) == d

    @pytest.mark.parametrize("bad", [
        "0 10 20 40 60 0.9 home -",          # missing digit count
        "0 10 20 40 60 0.9 home - 1",        # count says 1, no digit fields
        "0 10 20 40 60 0.9 home - 1 5 0.99 4 12 10",  # short digit chunk
        "0 10 20 40 60 1.5 home - 0",        # score out of range
        "0 10 20 40 60 0.9 blue - 0",        # unknown team
        "0 10 20 40 60 0.9 home 104 0",      # number out of range
        "x 10 20 40 60 0.9 home - 0",
    ])
    def test_rejects(self, bad):
        with pytest.raises(RecordError):
            parse_detection(bad)

    def test_error_names_line(self):
        with pytest.raises(RecordError, match="record line 7"):
            parse_detection("junk", 7)


class TestIterDetections:
    def test_keeps_input_order_and_line_numbers(self):
        lines = [
            "# header",
            serialize_detection(detection(frame=2, x=1)),
            "",
            "garbage",
            serialize_detection(detection(frame=1)),
            serialize_detection(detection(frame=2, x=2)),
        ]
        skipped = []
        pairs = list(iter_detections(lines, skipped))
        assert [(d.frame_index, d.box.x) for _, d in pairs] == [(2, 1), (1, 10), (2, 2)]
        assert [n for n, _ in pairs] == [2, 5, 6]
        assert skipped == [(4, "record line 4: expected at least 9 fields, got 1")]
        assert load_detections(lines).diagnostics == ("record line 4: expected at least 9 fields, got 1",)

    def test_group_by_frame_matches_load_detections(self):
        lines = [serialize_detection(detection(frame=f, x=f)) for f in (3, 1, 3, 2)]
        by_frame = group_by_frame(d for _, d in iter_detections(lines, []))
        assert by_frame == load_detections(lines).by_frame
        assert list(by_frame) == [3, 1, 2]


class TestLoadDetections:
    def test_groups_by_frame_preserving_order(self):
        lines = [
            serialize_detection(detection(frame=2, x=1)),
            serialize_detection(detection(frame=1)),
            serialize_detection(detection(frame=2, x=2)),
        ]
        result = load_detections(lines)
        assert sorted(result.by_frame) == [1, 2]
        assert [d.box.x for d in result.by_frame[2]] == [1, 2]

    def test_malformed_line_becomes_diagnostic(self):
        lines = [serialize_detection(detection()), "garbage", "# comment", ""]
        result = load_detections(lines)
        assert len(result.by_frame[0]) == 1
        assert len(result.diagnostics) == 1
        assert "line 2" in result.diagnostics[0]

    def test_strict_raises(self):
        with pytest.raises(RecordError):
            load_detections(["garbage"], strict=True)

    def test_serialize_round_trip(self):
        ds = [detection(frame=f, x=f) for f in (3, 1, 3)]
        text = "".join(serialize_detection(d) + "\n" for d in ds)
        result = load_detections(text.splitlines())
        assert len(result.by_frame[3]) == 2


WINDOW = PlayWindow(play_number=1, quarter=1, frame_start=10, frame_end=12,
                    start_time=900, end_time=894)
ROSTER = Roster(team_name="Alabama", entries={3: ("Calvin Ridley", "Bradley Sylve"), 5: ("Someone",)})


class TestSynchronize:
    def entry(self, **kwargs):
        base = dict(windows=[WINDOW], roster=ROSTER, home_team="Alabama",
                    away_team="Michigan State")
        base.update(kwargs)
        windows = base.pop("windows")
        detections = base.pop("detections", {})
        return synchronize(windows, detections, base.pop("roster"), **base)

    def test_collects_home_numbers_in_window(self):
        detections = {
            10: [detection(frame=10, number=3), detection(frame=10, number=44)],
            11: [detection(frame=11, number=5, team="home")],
        }
        entries = self.entry(detections=detections)
        assert entries[0].participants == {
            3: "Calvin Ridley or Bradley Sylve",
            5: "Someone",
            44: "#44 (unrostered)",
        }
        assert entries[0].play_number == 1
        assert entries[0].home_team == "Alabama"

    def test_ignores_away_unknown_and_unnumbered(self):
        detections = {
            10: [
                detection(frame=10, number=9, team="away"),
                detection(frame=10, number=8, team="unknown"),
                detection(frame=10, number=None, team="home"),
            ],
        }
        assert self.entry(detections=detections)[0].participants == {}

    def test_frames_outside_window_ignored(self):
        detections = {
            9: [detection(frame=9, number=3)],
            13: [detection(frame=13, number=5)],
        }
        assert self.entry(detections=detections)[0].participants == {}

    def test_min_appearances_counts_frames_not_records(self):
        detections = {
            # number 3 twice in one frame: one appearance
            10: [detection(frame=10, number=3, x=1), detection(frame=10, number=3, x=2)],
            11: [detection(frame=11, number=5)],
            12: [detection(frame=12, number=5)],
        }
        entries = synchronize([WINDOW], detections, ROSTER, home_team="A", away_team="B",
                              min_appearances=2)
        assert list(entries[0].participants) == [5]

    def test_away_side_uses_away_records(self):
        away_roster = Roster(team_name="Michigan State", entries={9: ("MSU Guy",)})
        detections = {10: [detection(frame=10, number=9, team="away"),
                           detection(frame=10, number=3, team="home")]}
        entries = synchronize([WINDOW], detections, away_roster, home_team="A", away_team="B",
                              side="away")
        assert entries[0].participants == {9: "MSU Guy"}

    def test_bad_side(self):
        with pytest.raises(InvariantError):
            synchronize([], {}, ROSTER, home_team="A", away_team="B", side="offense")

    def test_one_entry_per_window_in_order(self):
        w2 = PlayWindow(play_number=2, quarter=1, frame_start=20, frame_end=21,
                        start_time=833, end_time=804)
        entries = self.entry(windows=[WINDOW, w2])
        assert [e.play_number for e in entries] == [1, 2]


# small pools so that numbers repeat within a frame and frames fall
# outside every window (windows stop at frame 25, records reach 30)
stream_detections = st.lists(
    st.builds(
        detection,
        frame=st.integers(0, 30),
        x=st.integers(0, 5),
        team=st.sampled_from(["home", "away", "unknown"]),
        number=st.none() | st.sampled_from([0, 3, 5, 44, 99]),
    ),
    max_size=40,
)


@st.composite
def play_windows(draw):
    windows = []
    for n in range(1, draw(st.integers(0, 4)) + 1):
        start = draw(st.integers(0, 25))
        windows.append(PlayWindow(play_number=n, quarter=1, frame_start=start,
                                  frame_end=draw(st.integers(start, 25)), start_time=900, end_time=890))
    return windows


class TestStreamingFold:
    @settings(deadline=None)
    @given(stream_detections, play_windows(), st.integers(1, 3), st.sampled_from(["home", "away"]))
    @example([detection(frame=f, number=3) for f in (10, 11, 12)], [WINDOW], 2**70, "home")  # a count past int64
    def test_presence_core_over_the_stream_equals_synchronize(self, detections, windows, min_appearances, side):
        roster = Roster(team_name="T", entries={3: ("Three",), 44: ("Forty", "Four")})
        teams = dict(home_team="Alabama", away_team="Michigan State", min_appearances=min_appearances)
        expected = synchronize(windows, group_by_frame(detections), roster, side=side, **teams)
        skipped = []
        lines = (serialize_detection(d) for d in detections)
        streamed = (d for _, d in iter_detections(lines, skipped))
        assert synchronize_presence(windows, presence_table(streamed, side), roster, **teams) == expected
        assert skipped == []
        reference = ref_participants([(w.frame_start, w.frame_end) for w in windows],
                                     [(d.frame_index, d.team, d.number) for d in detections],
                                     side, min_appearances)
        assert [list(e.participants) for e in expected] == reference

    def test_presence_table_masks_the_side_numbers_per_frame(self):
        detections = [detection(frame=4, number=3), detection(frame=4, number=3, x=1),
                      detection(frame=4, number=9, team="away"), detection(frame=5, number=None),
                      detection(frame=6, number=5, team="unknown"), detection(frame=2, number=7)]
        # one key, frame * 100 + number, per numbered record of the side, in stream order
        assert presence_table(detections, "home").tolist() == [403, 403, 207]
        assert presence_table(detections, "away").tolist() == [409]

    def test_iter_detections_parses_one_line_per_record_asked_for(self):
        consumed = []

        def lines():
            for i, line in enumerate(["# header", record_line(0), "bad", record_line(1), record_line(2)]):
                consumed.append(i)
                yield line

        skipped = []
        stream = iter_detections(lines(), skipped)
        assert next(stream)[0] == 2
        assert consumed == [0, 1]
        assert next(stream)[0] == 4
        assert consumed == [0, 1, 2, 3]
        assert skipped == [(3, "record line 3: expected at least 9 fields, got 1")]

    def test_iter_detections_strict_raises_at_the_bad_line(self):
        stream = iter_detections([record_line(0), "bad", record_line(1)], [], strict=True)
        assert next(stream)[0] == 1
        with pytest.raises(RecordError, match="record line 2"):
            next(stream)

    def test_min_appearances_checked_by_the_core(self):
        with pytest.raises(InvariantError, match="min_appearances"):
            synchronize_presence([WINDOW], np.empty(0, np.int64), ROSTER, home_team="A", away_team="B",
                                 min_appearances=0)


def record_line(frame):
    return serialize_detection(detection(frame=frame, number=3))


names = st.text(min_size=1, max_size=12)
log_entries = st.builds(
    lambda play, quarter, times, home, away, participants: GameLogEntry(
        play_number=play, quarter=quarter, start_time=max(times), end_time=min(times),
        home_team=home, away_team=away, participants=participants,
    ),
    st.integers(1, 10**6),
    st.integers(1, 4),
    st.tuples(st.integers(0, 900), st.integers(0, 900)),
    names,
    names,
    st.dictionaries(st.integers(0, 99), names, max_size=5),
)


def sample_entries():
    return [
        GameLogEntry(play_number=1, quarter=1, start_time=900, end_time=894,
                     home_team="Alabama", away_team="Michigan State",
                     participants={3: "Calvin Ridley or Bradley Sylve", 44: "#44 (unrostered)"}),
        GameLogEntry(play_number=2, quarter=1, start_time=833, end_time=804,
                     home_team="Alabama", away_team="Michigan State", participants={}),
    ]


class TestEmitGameLog:
    def test_delimited_layout(self):
        text = emit_game_log(sample_entries(), format="delimited")
        lines = text.splitlines()
        assert lines[0] == (
            "Play number,Quarter,Start time,End time,Home,Away,"
            "Participating players of Home team"
        )
        assert lines[1].startswith("1,1,15:00,14:54,Alabama,Michigan State,")
        assert "3: Calvin Ridley or Bradley Sylve; 44: #44 (unrostered)" in lines[1]
        assert lines[2] == "2,1,13:53,13:24,Alabama,Michigan State,"

    def test_the_away_side_names_its_team_in_the_header_only(self):
        home, away = (emit_game_log(sample_entries(), format="delimited", side=side) for side in ("home", "away"))
        assert away.splitlines()[0] == (
            "Play number,Quarter,Start time,End time,Home,Away,"
            "Participating players of Away team"
        )
        assert away.splitlines()[1:] == home.splitlines()[1:]
        structured = (emit_game_log(sample_entries(), "structured", side=side) for side in ("home", "away"))
        assert len(set(structured)) == 1
        with pytest.raises(InvariantError, match="side must be home or away"):
            emit_game_log([], side="visitors")

    def test_participant_cell_is_quoted_when_needed(self):
        # the cell is a "; " join, so csv quoting only kicks in when a
        # name itself carries a comma
        entry = GameLogEntry(play_number=1, quarter=1, start_time=900, end_time=894,
                             home_team="A", away_team="B",
                             participants={1: "Last, First"})
        quoted = emit_game_log([entry], format="delimited").splitlines()[1]
        assert quoted.endswith('"1: Last, First"')

    def test_structured_round_trip(self):
        entries = sample_entries()
        assert parse_game_log(emit_game_log(entries, format="structured")) == entries

    @settings(deadline=None)
    @given(st.lists(log_entries, max_size=5))
    def test_structured_round_trip_property(self, entries):
        assert parse_game_log(emit_game_log(entries, format="structured")) == entries

    def test_structured_is_json_lines(self):
        import json

        text = emit_game_log(sample_entries(), format="structured")
        rows = [json.loads(line) for line in text.splitlines()]
        assert rows[0]["play_number"] == 1
        assert rows[0]["start_time"] == "15:00"
        assert rows[0]["participants"][0] == {"number": 3, "name": "Calvin Ridley or Bradley Sylve"}

    def test_unknown_format(self):
        with pytest.raises(InvariantError):
            emit_game_log([], format="tsv")

    def test_parse_rejects_bad_line(self):
        with pytest.raises(RecordError, match="game log line 1"):
            parse_game_log('{"play_number": 1}')

    def test_parse_rejects_a_clock_with_a_trailing_newline(self):
        line = emit_game_log(sample_entries()[:1], format="structured").replace('"15:00"', '"00:10\\n"')
        assert '"00:10\\n"' in line
        with pytest.raises(RecordError, match=r"^game log line 1: bad mm:ss value '00:10\\n'$"):
            parse_game_log(line)


class TestGameConfig:
    def test_defaults(self):
        cfg = GameConfig(home_team="A", away_team="B",
                         home_roster=Roster(team_name="A"), away_roster=Roster(team_name="B"))
        assert cfg.min_appearances == 1
        assert cfg.segmenter.quarter_start == 900

    def test_team_names_must_differ(self):
        with pytest.raises(InvariantError):
            GameConfig(home_team="A", away_team="A",
                       home_roster=Roster(team_name="A"), away_roster=Roster(team_name="A"))

    def test_rosters_required(self):
        with pytest.raises(InvariantError):
            GameConfig(home_team="A", away_team="B", home_roster={}, away_roster={})


# lines the arrays reject besides test_core's edited ones: a frame past int64,
# a box field past 2**53, a count mismatch, a number past 99 and a team
# outside the three labels, then one line per accept test and a number token
# that int() reads but the rule refuses
REJECTED_LINES = [
    f"{2**63} 10 20 40 60 0.9 home 7 0",
    f"3 10 20 {2**53 + 1} 60 0.9 home 7 0",
    "3 10 20 40 60 0.9 home 7 1",
    "3 10 20 40 60 0.9 home 100 0",
    "3 10 20 40 60 0.9 visitors 7 0",
    "-1 10 20 40 60 0.9 home 7 0",
    "3 inf 20 40 60 0.9 home 7 0",
    "3 10 20 0 60 0.9 home 7 0",
    "3 10 20 40 60 1.5 home 7 0",
    "3 10 20 40 60 0.9 home 7 1 10 0.99 0 0 5 5",
    "3 10 20 40 60 0.9 home 7 1 1 1.5 0 0 5 5",
    "3 10 20 40 60 0.9 home 7 1 1 0.99 0 0 5 -5",
    "3 10 20 40 60 0.9 home 1_0 0",
    # team tokens that start with a label, one of them cut to the width of the team field
    "3 10 20 40 60 0.9 homeland 7 0",
    "3 10 20 40 60 0.9 unknownx 7 0",
    "3 10 20 40 60 0.9 homelands 7 0",
    # number tokens that fill the number field or are wider: the scalar chain reads 42
    "3 10 20 40 60 0.9 home 0042 0",
    "3 10 20 40 60 0.9 home 0000000042 0",
    # a trailing comment, and a NUL at the end of a team or number token
    "3 10 20 40 60 0.9 home 7 0 # note",
    "3 10 20 40 60 0.9 home\x00 7 0",
    "3 10 20 40 60 0.9 home 7\x00 0",
]
# spellings that int() and float() read and the writer must give back as
# serialize_detection writes them
SPELLED_LINES = [
    "+5 10 20 40 60 0.50 home 007 0",
    "007 4e1 -0.0 1e-05 1.0 1.0 away - 1 +5 0.50 -0.0 0 4e1 1e-05",
    "3 1.0 0.50 4e1 60 -0.0 unknown +5 2 007 1.0 10 20 1e-05 5 1 -0.0 4e1 0 1.0 1.0",
]
# lines whose fields str.split() finds at separators other than one space:
# tab, vertical tab, form feed, file separator, two spaces, a lone carriage return
RESPACED_LINES = [
    "3\t10 20 40 60 0.9 home 7 0",
    "3 10\x0b20 40 60 0.9 away - 1 4 0.99 0 0 5 5",
    "3 10 20\x0c40 60 0.9 unknown 7 0",
    "3 10 20 40\x1c60 0.9 home 7 0",
    "3 10 20 40 60  0.9 home 7 0",
    "3 10 20 40 60 0.9\rhome 7 0",
]
stream_lines = st.lists(
    edited_record_lines()
    | valid_detections.map(serialize_detection)
    | st.sampled_from(REJECTED_LINES + SPELLED_LINES + RESPACED_LINES + ["# comment", ""]),
    max_size=12,
)
assemblies = st.none() | st.builds(
    AssemblyConfig, confidence_threshold=st.sampled_from([0.1, 0.5, 0.97]), max_digits=st.integers(1, 3)
)


class ReaderError(ValueError):
    pass


def reader(lines, fail_at):
    """The lines, then a reader error in place of line ``fail_at`` (None: no error)."""
    for i, line in enumerate(lines):
        if i == fail_at:
            raise ReaderError(f"line {i + 1}: invalid UTF-8 byte")
        yield line


def handed_over(read):
    """What ``read(records, skipped)`` hands over: its records, up to the error's type and text (None if none), and ``skipped``."""
    records, skipped = [], []
    try:
        read(records, skipped)
        error = None
    except Exception as exc:  # any error, not only an input error
        error = (type(exc), str(exc))
    return records, error, skipped


def scalar_read(lines, strict, assembly):
    """iter_detections, each record given assemble_detection when ``assembly`` is set, as rows of
    (line number, frame, box, score, team, number or -1, serialize_detection line).  A number
    above 99 is raised as the RecordError of its line."""
    def read(records, skipped):
        for line_number, d in iter_detections(lines, skipped, strict):
            if assembly is not None:
                try:
                    d = assemble_detection(d, assembly)
                except InvariantError as exc:
                    raise RecordError(f"record line {line_number}: {exc}") from None
            box = tuple(float(v) for v in (d.box.x, d.box.y, d.box.w, d.box.h))
            number = -1 if d.number is None else d.number
            records.append((line_number, d.frame_index, box, d.score, d.team, number, serialize_detection(d)))
    return read


def block_read(lines, strict, assembly, keys=None):
    """read_records' blocks as scalar_read's rows; ``keys`` maps a side to a list that gets the blocks' keys."""
    def read(records, skipped):
        for block in read_records(lines, skipped, strict, assembly):
            records.extend(zip(block.line, block.frame, map(tuple, block.box.tolist()), block.score.tolist(),
                               block.team, block.number.tolist(), block.lines()))
            for side, side_keys in (keys or {}).items():
                side_keys.extend(block.presence(side).tolist())
    return read


class TestFoldPresence:
    """read_records against the scalar chain: records, lines, presence keys, skipped lines and errors."""

    @settings(max_examples=300, deadline=None)
    @given(stream_lines, st.booleans(), assemblies, st.none() | st.integers(0, 12))
    def test_equals_presence_table_over_iter_detections(self, lines, strict, assembly, fail_at):
        expected = handed_over(scalar_read(reader(lines, fail_at), strict, assembly))
        records = expected[0]
        for size in (1, 2, 3, BLOCK_LINES):
            keys = {"home": [], "away": []}
            with patch.object(playlog.gamelog, "BLOCK_LINES", size):
                got = handed_over(block_read(reader(lines, fail_at), strict, assembly, keys))
            assert got == expected, size
            for side, side_keys in keys.items():
                # the records on the lines before an error give their keys too
                assert side_keys == presence_table((detection_of(r) for r in records), side).tolist(), size

    def test_writer_gives_serialize_detection_spellings_from_the_arrays(self, monkeypatch):
        calls = []
        monkeypatch.setattr(playlog.gamelog, "parse_detection", lambda *a: calls.append(a))
        (block,) = read_records(SPELLED_LINES, [])
        assert calls == []
        assert block.lines() == [
            "5 10 20 40 60 0.5 home 7 0",
            "7 40 0 1e-05 1 1 away - 1 5 0.5 0 0 40 1e-05",
            "3 1 0.5 40 60 0 unknown 5 2 7 1 10 20 1e-05 5 1 0 40 0 1 1",
        ]
        monkeypatch.undo()
        assert block.lines() == [serialize_detection(parse_detection(line)) for line in SPELLED_LINES]

    @pytest.mark.parametrize("size", [1, 2, 3, BLOCK_LINES])
    def test_a_bad_byte_after_a_strict_error_in_the_block(self, size, tmp_path):
        good = record_line(4)
        path = tmp_path / "records.txt"
        path.write_bytes(f"{good}\ngarbage\n".encode() + b"\xff\n" + f"{good}\n".encode())
        with patch.object(playlog.gamelog, "BLOCK_LINES", size):
            records, error, _ = handed_over(block_read(read_lines(path), True, None))
            assert error == (RecordError, "record line 2: expected at least 9 fields, got 1")
            assert [r[-1] for r in records] == [good]
            records, error, skipped = handed_over(block_read(read_lines(path), False, None))
        assert error[0] is ValueError and "line 3: invalid UTF-8 byte 0xff" in error[1]
        assert [r[-1] for r in records] == [good]
        assert skipped == [(2, "record line 2: expected at least 9 fields, got 1")]

    def test_digit_boxes_past_2_53_are_read_exactly(self):
        # read exactly, the second box overlaps the first at IoU E (1.1102230246251557e-16)
        # and is suppressed at that threshold; as floats their IoU falls just below it
        e = 2**53
        line = f"3 10 20 40 60 0.9 home - 2 1 0.99 {e} 2 {e} {e} 2 0.99 {e + 3} {e + 1} {e + 3} {e + 3}"
        at_overlap = AssemblyConfig(iou_suppress_threshold=1.1102230246251557e-16)
        expected = handed_over(scalar_read([line], False, at_overlap))
        assert [r[5] for r in expected[0]] == [1]
        assert handed_over(block_read([line], False, at_overlap)) == expected

    def test_assembled_number_past_99_is_fatal_after_earlier_skips(self):
        three = AssemblyConfig(max_digits=3)
        digits = tuple(digit(v, 0.99, 14 * i) for i, v in enumerate((1, 2, 3)))
        lines = [record_line(1), "garbage", serialize_detection(detection(frame=2, digits=digits)), record_line(3)]
        for strict in (False, True):
            expected = handed_over(scalar_read(lines, strict, three))
            assert handed_over(block_read(lines, strict, three)) == expected
        # line 1's record comes before the strict error; assembly finds no number in it
        assert expected[:2] == (
            [(1, 1, (10.0, 20.0, 40.0, 60.0), 0.9, "home", -1, "1 10 20 40 60 0.9 home - 0")],
            (RecordError, "record line 2: expected at least 9 fields, got 1"),
        )
        records, error, skipped = handed_over(block_read(lines, False, three))
        assert [r[-1] for r in records] == ["1 10 20 40 60 0.9 home - 0"]
        assert error == (RecordError, "record line 3: PlayerDetection.number in 0..99 violated (got 123)")
        assert skipped == [(2, "record line 2: expected at least 9 fields, got 1")]

    def test_any_error_of_the_scalar_chain_comes_after_the_records_before_it(self, monkeypatch):
        # not only the ValueErrors of a strict run and a number past 99: any other, an OverflowError, say
        def failing(d, assembly):
            raise OverflowError("int too large to convert to float")

        monkeypatch.setattr(playlog.gamelog, "assemble_detection", failing)
        # the arrays read lines 1 and 3, and the scalar chain line 2
        good = [serialize_detection(detection(frame=f, digits=(digit(3, 0.99, 0),))) for f in (1, 3)]
        lines = [good[0], f"{2**63} 10 20 40 60 0.9 home 7 0", good[1]]
        for size in (1, BLOCK_LINES):
            with patch.object(playlog.gamelog, "BLOCK_LINES", size):
                records, error, _ = handed_over(block_read(lines, False, AssemblyConfig()))
            assert [r[-1] for r in records] == ["1 10 20 40 60 0.9 home 3 1 3 0.99 0 12 10 14"], size
            assert error == (OverflowError, "int too large to convert to float"), size


def detection_of(row):
    """A record with scalar_read's row's frame, team and number, for presence_table."""
    _, frame, _, _, team, number, _ = row
    return detection(frame=frame, team=team, number=None if number < 0 else number)


# tokens as str.split() gives them from an ASCII line without '_': any such
# text, and spellings near what int() and float() read
TOKEN_CHARS = "".join(c for c in map(chr, range(128)) if not c.isspace() and c != "_")
number_tokens = (
    st.text(TOKEN_CHARS, min_size=1, max_size=8)
    | st.from_regex(r"\A[+-]?([0-9]{0,22}\.?[0-9]{0,4}([eE][+-]?[0-9]{0,4})?|(?i:inf|infinity|nan))\Z").filter(bool)
    | st.integers(-2**64, 2**64).map(str)
    | st.floats().map(repr)
)


def python_value(kind, token):
    """int() or float() of ``token``, or None where it raises or an int falls outside int64."""
    try:
        value = kind(token)
    except ValueError:
        return None
    return value if kind is float or -2**63 <= value < 2**63 else None


def field_value(line, name):
    """The first value the arrays read for field ``name`` of a one-line group; None if the line does not convert."""
    try:
        fields = playlog.gamelog._columns([line], 0)[0]
    except ValueError:
        return None
    return fields[name].flat[0].item()


def same_float(a, b):
    """Equal floats of the same sign, nan equal to nan, or both None."""
    if a is None or b is None:
        return a is b
    return (a != a and b != b) or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


def counted_parses(monkeypatch):
    """The line number of each parse_detection call of the reader from here on."""
    calls = []

    def counted(line, line_number=None):
        calls.append(line_number)
        return parse_detection(line, line_number)

    monkeypatch.setattr(playlog.gamelog, "parse_detection", counted)
    return calls


def digits_line(frame, values):
    """A record line whose digit detections read ``values`` left to right, each apart from the others."""
    digits = tuple(digit(v, 0.99, 14 * i) for i, v in enumerate(values))
    return serialize_detection(detection(frame=frame, digits=digits))


class TestBlockReaderEdges:
    """Where the arrays' reading of a line could part from the scalar chain's."""

    def test_a_field_that_does_not_convert_sends_only_its_line_to_the_scalar_chain(self, monkeypatch):
        lines = [record_line(frame) for frame in range(100)]
        lines[41] += ".0"  # line 42's digit count, written as a float
        expected = handed_over(scalar_read(lines, False, None))
        calls = counted_parses(monkeypatch)
        got = handed_over(block_read(lines, False, None))
        assert got == expected
        assert calls == [42]
        assert len(got[0]) == 99
        assert got[2] == [(42, "record line 42: invalid literal for int() with base 10: '0.0'")]

    def test_a_block_of_bad_lines_is_halved_only_until_its_parses_have_failed_often(self, monkeypatch):
        # each of FAILED_PARSES failed parses halves its lines; the parts after them go to the scalar chain whole
        lines = [record_line(frame) + ".0" for frame in range(BLOCK_LINES)]
        expected = handed_over(scalar_read(lines, False, None))
        failed = []
        columns = playlog.gamelog._columns

        def counted(texts, k):
            try:
                return columns(texts, k)
            except ValueError:
                failed.append(len(texts))
                raise

        monkeypatch.setattr(playlog.gamelog, "_columns", counted)
        assert handed_over(block_read(lines, False, None)) == expected
        assert len(failed) == 1 + 2 * FAILED_PARSES

    @pytest.mark.parametrize("max_digits", [3, 4])
    def test_records_of_more_than_two_digits_take_the_scalar_chain(self, max_digits, monkeypatch):
        # array assembly reads at most two digits, as a jersey shows; each record of more is parsed once, by the
        # scalar chain, which raises the error of a number above 99 for its line
        assembly = AssemblyConfig(max_digits=max_digits)
        lines = [record_line(1), digits_line(2, (0, 4, 2)), digits_line(3, (0, 0, 7)), digits_line(4, (0, 0, 0, 7)),
                 digits_line(5, (5, 1)), digits_line(6, (1, 4, 2)), record_line(7)]
        expected = handed_over(scalar_read(lines, False, assembly))
        calls = counted_parses(monkeypatch)
        got = handed_over(block_read(lines, False, assembly))
        assert got == expected
        assert calls == [2, 3, 4, 6]
        records, error, skipped = got
        assert [r[5] for r in records] == [-1, 42, 7, 7 if max_digits == 4 else 0, 51]
        assert error == (RecordError, "record line 6: PlayerDetection.number in 0..99 violated (got 142)")
        assert skipped == []

    @pytest.mark.parametrize("assembly", [None, AssemblyConfig()])
    def test_groups_of_more_rows_than_a_writer_slice(self, assembly, monkeypatch):
        # each group of 0, 1 and 2 digits holds more rows than the writer joins at once, and lines that the
        # scalar chain reads stand between its rows: a box field of 2**53 and, with assembly, three digits
        rng = random.Random(26)

        def random_line(frame, count):
            digits = tuple(
                digit(rng.randrange(10), rng.choice([0.99, rng.random()]), rng.choice([14 * j, rng.random()]))
                for j in range(count)
            )
            return serialize_detection(detection(
                frame=frame, x=rng.choice([10, rng.uniform(0, 99)]), score=rng.random(),
                team=rng.choice(["home", "away"]), number=rng.choice([None, rng.randrange(100)]), digits=digits,
            ))

        lines, scalar = [], []  # the lines, and the line numbers the scalar chain parses
        for i in range(3 * (WRITE_ROWS + 10)):
            lines.append(random_line(i, i % 3))
            if i % 7 == 0:
                lines.append(random_line(i, 3))
                scalar += [len(lines)] if assembly is not None else []
            if i % 97 == 0:
                lines.append(f"{i} {2**53} 20 40 60 0.9 home 7 0")
                scalar.append(len(lines))
        assert len(lines) <= BLOCK_LINES
        expected = handed_over(scalar_read(lines, False, assembly))
        calls = counted_parses(monkeypatch)
        got = handed_over(block_read(lines, False, assembly))
        assert got == expected
        assert calls == scalar
        if assembly is None:
            assert [r[-1] for r in got[0]] == [serialize_detection(parse_detection(line)) for line in lines]

    def test_other_separators_are_read_by_the_arrays(self, monkeypatch):
        expected = [serialize_detection(parse_detection(line)) for line in RESPACED_LINES]
        calls = []
        monkeypatch.setattr(playlog.gamelog, "parse_detection", lambda *a: calls.append(a))
        (block,) = read_records(RESPACED_LINES, [])
        assert calls == []
        assert block.lines() == expected

    @pytest.mark.parametrize("assembly", [None, AssemblyConfig()])
    def test_every_listed_line_equals_the_scalar_chain(self, assembly):
        lines = [record_line(1), *REJECTED_LINES, *SPELLED_LINES, *RESPACED_LINES, record_line(2)]
        expected = handed_over(scalar_read(lines, False, assembly))
        for size in (1, 2, 3, BLOCK_LINES):
            with patch.object(playlog.gamelog, "BLOCK_LINES", size):
                assert handed_over(block_read(lines, False, assembly)) == expected, size

    @settings(max_examples=300, deadline=None)
    @given(st.lists(number_tokens, min_size=1, max_size=8))
    def test_int_and_float_fields_read_what_int_and_float_read(self, tokens):
        # the parse contract of the arrays: a frame field (int64) and a box field
        # (float64) read a token exactly when int() inside int64 and float() do
        for token in tokens:
            assert field_value(f"{token} 1 1 1 1 0.5 home - 0", "frame") == python_value(int, token), token
            assert same_float(field_value(f"1 {token} 1 1 1 0.5 home - 0", "box"), python_value(float, token)), token


class TestRecordColumns:
    """Every RecordBlock column is an array; the reader alone decides the frame dtype."""

    def test_ordinary_lines_give_int64_lines_and_frames_and_str_teams(self):
        lines = [record_line(4), "# a comment", serialize_detection(detection(frame=9, team="away"))]
        (block,) = read_records(lines, [])
        assert block.line.dtype == np.int64 and block.line.tolist() == [1, 3]
        assert block.frame.dtype == np.int64 and block.frame.tolist() == [4, 9]
        assert block.team.dtype.kind == "U" and block.team.tolist() == ["home", "away"]

    def test_a_frame_past_int64_gives_the_frames_as_python_ints(self):
        lines = [record_line(4), record_line(2**63), record_line(2**70), record_line(2)]
        detections = [d for _, d in iter_detections(lines, [])]
        (block,) = read_records(lines, [])
        assert block.frame.dtype == object
        assert [(type(f), f) for f in block.frame] == [(int, d.frame_index) for d in detections]
        # each record's presence key, frame * 100 + number, as a Python int
        assert [(type(k), k) for k in block.presence("home")] == [(int, d.frame_index * 100 + 3) for d in detections]
        for side in ("home", "away"):
            assert block.presence(side).tolist() == presence_table(detections, side).tolist()

    def test_with_team_replaces_the_team_field_of_a_written_line(self):
        for d in (detection(frame=5, number=3), detection(frame=7, digits=(digit(4, 0.9, 1), digit(2, 0.5, 12)))):
            assert playlog.gamelog.with_team(serialize_detection(d), "away") == serialize_detection(d.with_team("away"))

"""Rosters, record lines, synchronization, log emission."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ref_participants

from playlog import (
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
    resolve_names,
    roster_lines,
    serialize_detection,
    synchronize,
    synchronize_presence,
)


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
        # '²' passes str.isdigit() but int() rejects it
        with pytest.raises(
            RecordError, match=r"^roster line 2: expected 'number: name\[; name\]\.\.\.', got '²: Bob'$"
        ):
            load_roster(["1: A", "²: Bob"])
        assert load_roster(["١٢: Arabic-Indic Digits"]).entries == {12: ("Arabic-Indic Digits",)}

    def test_number_too_long_for_int_is_a_record_error(self):
        # int() refuses more than 4,300 digits
        with pytest.raises(RecordError, match=r"^roster line 2: number of 4301 digits outside 0\.\.99$"):
            load_roster(["1: A", "1" * 4301 + ": Bob"])


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

    @pytest.mark.xfail(strict=True, reason="an int box field above 2**53 is written as a rounded float")
    def test_text_round_trip_of_an_int_above_float_precision(self):
        line = serialize_detection(detection(w=2**53 + 1))
        assert serialize_detection(parse_detection(line)) == line

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
        assert presence_table(detections, "home") == {4: 1 << 3, 2: 1 << 7}
        assert presence_table(detections, "away") == {4: 1 << 9}

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
            synchronize_presence([WINDOW], {}, ROSTER, home_team="A", away_team="B", min_appearances=0)


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

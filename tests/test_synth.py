"""Synthetic game generator: determinism, structure, coupled corruption."""

import hashlib
from collections import Counter

import pytest

from playlog import (
    SynthConfig,
    SynthConfigError,
    generate_game,
    parse_clock_stream,
    parse_detection,
    resolve_names,
)
from playlog.cli import run

BASE = dict(quarters=2, plays_per_quarter=3, frames_per_second=3)


def game(seed=11, **kwargs):
    merged = {**BASE, **kwargs}
    return generate_game(SynthConfig(seed=seed, **merged))


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(quarters=0),
        dict(quarters=5),
        dict(plays_per_quarter=0),
        dict(quarters=2, plays_per_quarter=1),
        dict(frames_per_second=0),
        dict(players_per_play=(0, 3)),
        dict(players_per_play=(5, 2)),
        dict(players_per_play=(1, 2, 3)),
        dict(ocr_corruption_rate=1.0),
        dict(digit_error_rate=-0.1),
        dict(detection_drop_rate=2.0),
    ])
    def test_rejections(self, kwargs):
        merged = {**BASE, **kwargs}
        with pytest.raises(SynthConfigError):
            SynthConfig(seed=1, **merged)

    @pytest.mark.parametrize("name, counts, message", [
        ("players_per_play", (61, 61), "players_per_play maximum <= 60 violated (got 61)"),
        ("players_per_play", (6, 61), "players_per_play maximum <= 60 violated (got 61)"),
    ])
    def test_player_counts_beyond_the_number_pools(self, name, counts, message):
        with pytest.raises(SynthConfigError) as info:
            SynthConfig(seed=1, **{**BASE, name: counts})
        assert str(info.value) == message

    @pytest.mark.parametrize("name, counts", [("players_per_play", (60, 60))])
    def test_player_counts_at_the_limit_generate(self, name, counts):
        g = game(seed=1, quarters=1, plays_per_quarter=1, frames_per_second=1, **{name: counts})
        per_frame = Counter(line.split()[0] for line in g.detection_lines if line.split()[6] == "home")
        assert per_frame and set(per_frame.values()) == {counts[0]}

    def test_overfull_quarter_rejected_at_generation(self):
        with pytest.raises(SynthConfigError):
            generate_game(SynthConfig(seed=1, quarters=1, plays_per_quarter=200,
                                      frames_per_second=1))

    def test_overfull_quarter_message_is_short(self):
        # the play count and the seconds needed and available, not every drawn duration
        with pytest.raises(SynthConfigError) as info:
            generate_game(SynthConfig(seed=3, quarters=2, plays_per_quarter=400, frames_per_second=30))
        assert "400" in str(info.value)
        assert len(str(info.value)) < 200


class TestDeterminism:
    def test_identical_configs_identical_games(self):
        a = game(seed=5)
        b = game(seed=5)
        assert a.truth == b.truth
        assert a.clock_lines == b.clock_lines
        assert a.detection_lines == b.detection_lines
        assert a.roster == b.roster

    def test_seed_changes_the_game(self):
        assert game(seed=5).clock_lines != game(seed=6).clock_lines

    # sha256 of every file `playlog synth` writes; a change here changes the games every
    # closed-loop check and the benchmark's truth logs are built from
    @pytest.mark.parametrize("argv, digests", [
        (
            # the benchmark's game shape and noise
            "--seed 3 --quarters 4 --plays-per-quarter 4 --fps 30"
            " --ocr-corruption 0.02 --digit-error 0.05 --detection-drop 0.05",
            {
                "clock.txt": "2efb7bb1002e5d1bd417955cbcbf03540e74e5c1cf10ff404e94711464772126",
                "detections.txt": "4fe3da2da3af877bb0029339c9b92f8d13414efff2117b211f756e91dec72bf8",
                "game.cfg": "da5a6cf0264a76441655670b57a1038ca7834fd1decef0c8257564bdb0f679b1",
                "roster_home.txt": "bb935c4ebb441ac0442d78ec4e169cb5954aa7ad1cf87661f9909f1dffb312b7",
                "truth_log.csv": "2e651eea2f8cecd05bc6395641ac66218f5bf59233d2eab3209cd0e26522eb4e",
                "truth_log.jsonl": "5c414bebebc3df2002545bc2b05fc512e50c5ff62ef408a533498881302f36b1",
            },
        ),
        (
            # a small game at high rates of every corruption
            "--seed 7 --quarters 2 --plays-per-quarter 3 --fps 3"
            " --ocr-corruption 0.3 --digit-error 0.5 --detection-drop 0.7",
            {
                "clock.txt": "f07bf03fd18f53a3b41159fff345e9fb7bbe1e20ca28b31ee41e6c6816cbd309",
                "detections.txt": "4ab562917456bdb0f7b36ab091aa8451c418f561504a66b15506db53da628720",
                "game.cfg": "da5a6cf0264a76441655670b57a1038ca7834fd1decef0c8257564bdb0f679b1",
                "roster_home.txt": "b8bd6c5b5d4bba7ca1b62cf4ed893630ff9f88da5bd5cac205e276283165b59c",
                "truth_log.csv": "54fc5677e87d912b6685faa4bd1f24a82cd38a8e29d1b808ab45b9347875a58c",
                "truth_log.jsonl": "b8ed6e03c724f16212596e8caebcc80e6d967dd326561c09d866d8d97c6c5a04",
            },
        ),
    ], ids=["benchmark-game", "high-rates"])
    def test_synth_files_are_pinned(self, argv, digests, tmp_path, capsys):
        assert run(["synth", *argv.split(), "--output", str(tmp_path)]) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert written == digests


class TestStructure:
    def test_truth_shape(self):
        g = game(quarters=3, plays_per_quarter=2)
        assert [e.play_number for e in g.truth] == list(range(1, 7))
        assert [e.quarter for e in g.truth] == [1, 1, 2, 2, 3, 3]
        for e in g.truth:
            assert e.start_time > e.end_time

    def test_each_quarter_opens_at_full_clock(self):
        g = game(quarters=4, plays_per_quarter=2)
        for quarter in (1, 2, 3, 4):
            first = next(e for e in g.truth if e.quarter == quarter)
            assert first.start_time == 900

    def test_times_decrease_within_a_quarter(self):
        g = game(quarters=2, plays_per_quarter=3)
        for quarter in (1, 2):
            plays = [e for e in g.truth if e.quarter == quarter]
            for a, b in zip(plays, plays[1:]):
                assert a.end_time > b.start_time

    def test_quarter_ends_below_rearm_threshold(self):
        g = game(quarters=2, plays_per_quarter=2)
        last_of_q1 = [e for e in g.truth if e.quarter == 1][-1]
        assert last_of_q1.end_time < 120

    def test_participants_resolved_through_roster(self):
        g = game()
        for e in g.truth:
            for number, name in e.participants.items():
                assert number in g.roster
                assert name == resolve_names(number, g.roster)

    def test_clean_clock_stream_parses_without_diagnostics(self):
        g = game()
        result = parse_clock_stream(g.clock_lines)
        assert result.diagnostics == ()
        frames = [r.frame_index for r in result.readings]
        assert frames == sorted(set(frames))
        assert len(frames) == len(g.clock_lines)

    def test_play_clock_counts_down_from_forty(self):
        g = game(plays_per_quarter=2, frames_per_second=2)
        readings = parse_clock_stream(g.clock_lines).readings
        assert readings[0].play_clock == 40
        # within the first play's first second both frames show 40
        assert readings[1].play_clock == 40
        assert readings[2].play_clock == 39

    def test_detection_lines_parse_and_cover_both_teams(self):
        g = game()
        teams = set()
        for line in g.detection_lines:
            d = parse_detection(line)
            assert d.number is None  # assembly has not run yet
            assert d.digits
            teams.add(d.team)
        assert teams == {"home", "away"}


class TestCoupledCorruption:
    def test_truth_is_rate_invariant(self):
        base = game()
        for kwargs in (
            dict(ocr_corruption_rate=0.3),
            dict(digit_error_rate=0.4),
            dict(detection_drop_rate=0.5),
            dict(ocr_corruption_rate=0.2, digit_error_rate=0.2, detection_drop_rate=0.2),
        ):
            assert game(**kwargs).truth == base.truth

    def test_ocr_corruption_is_a_superset_chain(self):
        low = game(ocr_corruption_rate=0.1)
        high = game(ocr_corruption_rate=0.3)
        assert len(low.clock_lines) == len(high.clock_lines)
        low_bad = {i for i, line in enumerate(low.clock_lines) if "?" in line}
        high_bad = {i for i, line in enumerate(high.clock_lines) if "?" in line}
        assert low_bad <= high_bad
        assert len(high_bad) > len(low_bad)
        for i, line in enumerate(low.clock_lines):
            if i not in high_bad:
                assert line == high.clock_lines[i]

    def test_corrupted_clock_lines_never_parse(self):
        g = game(ocr_corruption_rate=0.5)
        result = parse_clock_stream(g.clock_lines)
        bad = sum(1 for line in g.clock_lines if "?" in line)
        assert len(result.diagnostics) == bad
        assert len(result.readings) == len(g.clock_lines) - bad

    def test_dropped_detections_are_a_superset_chain(self):
        none = Counter(game().detection_lines)
        low = Counter(game(detection_drop_rate=0.2).detection_lines)
        high = Counter(game(detection_drop_rate=0.6).detection_lines)
        assert low <= none
        assert high <= low
        assert sum(high.values()) < sum(low.values()) < sum(none.values())

    def test_digit_errors_touch_only_home_digit_fields(self):
        clean = game().detection_lines
        noisy = game(digit_error_rate=0.5).detection_lines
        assert len(clean) == len(noisy)
        changed = 0
        for a, b in zip(clean, noisy):
            fa, fb = a.split(), b.split()
            assert fa[:8] == fb[:8]  # frame, box, score, team, number slot
            if a != b:
                changed += 1
                assert fa[6] == "home"
                # the corrupted read is a single digit below any sane gate
                assert fb[8] == "1"
                assert float(fb[10]) == 0.5
        assert changed > 0

    def test_rates_compose_without_interference(self):
        # drops at a fixed rate remove the same events whatever the
        # digit rate is doing
        a = game(detection_drop_rate=0.4)
        b = game(detection_drop_rate=0.4, digit_error_rate=0.5)
        assert len(a.detection_lines) == len(b.detection_lines)
        for la, lb in zip(a.detection_lines, b.detection_lines):
            assert la.split()[:8] == lb.split()[:8]


def test_a_seed_given_as_text_is_rejected():
    with pytest.raises(SynthConfigError, match=r"^seed must be an integer \(got '3'\)$"):
        SynthConfig(seed="3")

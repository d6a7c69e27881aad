"""Command line behavior: exit codes, diagnostics, and stage chaining."""

import csv
import errno
import os
import random
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import pytest
from oracles import ref_confusion, ref_evaluate, ref_greedy_match

import playlog.cli
import playlog.gamelog
from playlog import (
    BoundingBox,
    DigitDetection,
    PixelImage,
    PlayerDetection,
    channel_histogram,
    classify_team,
    extract_strip,
    format_config,
    iter_detections,
    load_config,
    parse_config_text,
    parse_game_log,
    read_image,
    serialize_detection,
    write_image,
)
from playlog.cli import run
from playlog.jersey import assemble_detection
from playlog.textfile import content_lines, read_lines

SUBCOMMANDS = (
    "parse-clock",
    "assemble",
    "classify-team",
    "log",
    "evaluate",
    "preprocess",
    "augment",
    "synth",
    "pipeline",
)

CLOCK_TEXT = (
    "0 15:00 40\n"
    "10 14:58 38\n"
    "20 14:56 36\n"
    "30 0 0\n"
    "40 14:20 40\n"
    "50 14:18 38\n"
    "60 14:16 36\n"
)


def record(frame, x=10, y=20, w=40, h=60, score=0.9, digits=(), team="unknown"):
    d = PlayerDetection(
        frame_index=frame,
        box=BoundingBox(x, y, w, h),
        score=score,
        digits=digits,
        team=team,
    )
    return serialize_detection(d)


def solid_image(width, height, rgb):
    return PixelImage(width, height, 3, list(rgb) * (width * height))


TEAM_RGB = {"home": (200, 40, 40), "away": (100, 100, 100), "unknown": (40, 40, 200)}  # under the default profiles


def ppm(width, height, rgb, header="P6\n{w} {h}\n255\n"):
    """A P6 crop of one colour, its header spelled by ``header``."""
    return header.format(w=width, h=height).encode("ascii") + bytes(rgb) * (width * height)


def paint_crops(records, crops):
    """A 4x4 crop in the colour of its record's team for each record of ``records``, named as classify-team
    looks it up."""
    crops.mkdir(exist_ok=True)
    counters = {}
    for _, d in iter_detections(read_lines(records), []):
        index = counters.get(d.frame_index, 0)
        counters[d.frame_index] = index + 1
        (crops / f"{d.frame_index}_{index}.ppm").write_bytes(ppm(4, 4, TEAM_RGB[d.team]))


def scalar_classify_team(records, crops, strict):
    """classify-team's stdout, stderr and exit code by the library's scalar chain, under the default config."""
    config = load_config()
    out, messages, notes, counters = [], [], 0, {}
    try:
        for line_number, d in iter_detections(read_lines(records), messages, strict):
            index = counters.get(d.frame_index, 0)
            counters[d.frame_index] = index + 1
            crop = crops / f"{d.frame_index}_{index}.ppm"
            if crop.exists():
                strip = extract_strip(read_image(crop), config.strip_height_fraction, config.strip_width_fraction)
                d = d.with_team(classify_team(channel_histogram(strip), config.home_profile, config.away_profile))
            else:
                messages.append((line_number, f"record line {line_number}: no crop {crop.name}, team kept"))
                notes += 1
            out.append(serialize_detection(d) + "\n")
    except (ValueError, OSError) as exc:
        return "".join(out), f"error: {exc}\n", 1
    skipped = len(messages) - notes
    err = "".join(m + "\n" for _, m in messages) + (f"{skipped} malformed line(s) skipped\n" if skipped else "")
    return "".join(out), err, 0


class TestUsage:
    def test_bare_help(self, capsys):
        assert run(["--help"]) == 0
        assert "playlog" in capsys.readouterr().out

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help(self, command, capsys):
        assert run([command, "--help"]) == 0
        assert command in capsys.readouterr().out

    def test_no_arguments(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_argument(self, capsys):
        assert run(["parse-clock"]) == 1
        assert "required" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        assert run(["parse-clock", "--input", str(tmp_path / "nope.txt")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestParseClock:
    def test_windows_to_stdout(self, tmp_path, capsys):
        clock = tmp_path / "clock.txt"
        clock.write_text(CLOCK_TEXT, encoding="utf-8")
        assert run(["parse-clock", "--input", str(clock)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "1 1 0 20 15:00 14:56\n2 1 40 60 14:20 14:16\n"
        assert captured.err == ""

    def test_output_file(self, tmp_path, capsys):
        clock = tmp_path / "clock.txt"
        clock.write_text(CLOCK_TEXT, encoding="utf-8")
        out = tmp_path / "windows.txt"
        assert run(["parse-clock", "--input", str(clock), "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("1 1 0 20")
        assert capsys.readouterr().out == ""

    def test_output_through_a_symlink_replaces_its_target(self, tmp_path, capsys):
        clock = tmp_path / "clock.txt"
        clock.write_text(CLOCK_TEXT, encoding="utf-8")
        target = tmp_path / "target.txt"
        target.write_text("stale\n", encoding="utf-8")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        assert run(["parse-clock", "--input", str(clock), "--output", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == "1 1 0 20 15:00 14:56\n2 1 40 60 14:20 14:16\n"
        assert not list(tmp_path.glob("*.partial"))

    def test_output_to_a_device_is_written_in_place(self, tmp_path, capsys):
        clock = tmp_path / "clock.txt"
        clock.write_text(CLOCK_TEXT, encoding="utf-8")
        assert run(["parse-clock", "--input", str(clock), "--output", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    def test_malformed_lines_are_counted_on_stderr(self, tmp_path, capsys):
        clock = tmp_path / "clock.txt"
        clock.write_text(CLOCK_TEXT + "70 9?:?2 34\n80 bogus\n", encoding="utf-8")
        assert run(["parse-clock", "--input", str(clock)]) == 0
        err = capsys.readouterr().err
        assert "2 malformed line(s) skipped" in err
        assert "line 8" in err

    def test_strict_makes_malformed_fatal(self, tmp_path, capsys):
        clock = tmp_path / "clock.txt"
        clock.write_text(CLOCK_TEXT + "70 9?:?2 34\n", encoding="utf-8")
        assert run(["parse-clock", "--input", str(clock), "--strict"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_out_of_order_line_is_skipped_unless_strict(self, tmp_path, capsys):
        # a repeated frame is skipped and counted like a malformed line
        lines = CLOCK_TEXT.splitlines()
        clock = tmp_path / "clock.txt"
        clock.write_text("\n".join(lines[:3] + [lines[2]] + lines[3:]) + "\n", encoding="utf-8")
        assert run(["parse-clock", "--input", str(clock)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "1 1 0 20 15:00 14:56\n2 1 40 60 14:20 14:16\n"
        assert captured.err == "line 4: frame 20 not above previous frame 20\n1 malformed line(s) skipped\n"
        assert run(["parse-clock", "--input", str(clock), "--strict"]) == 1
        assert capsys.readouterr().err == "error: line 4: frame 20 not above previous frame 20\n"

    def test_min_play_frames_override(self, tmp_path, capsys):
        # lone reading after a gap: dropped by default, kept at 1
        clock = tmp_path / "clock.txt"
        clock.write_text(CLOCK_TEXT + "70 0 0\n80 13:00 12\n", encoding="utf-8")
        assert run(["parse-clock", "--input", str(clock)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        cfg = tmp_path / "t.cfg"
        cfg.write_text("min_play_frames = 1\n", encoding="utf-8")
        assert run(["parse-clock", "--input", str(clock), "--config", str(cfg)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_quarter_start_above_the_clock_is_fatal(self, tmp_path, capsys):
        clock = tmp_path / "clock.txt"
        clock.write_text(CLOCK_TEXT, encoding="utf-8")
        cfg = tmp_path / "t.cfg"
        cfg.write_text("quarter_start = 1200\n", encoding="utf-8")
        assert run(["parse-clock", "--input", str(clock), "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: SegmenterConfig.quarter_start must be at most 900 (got 1200)\n"


class TestAssemble:
    def test_fills_numbers(self, tmp_path, capsys):
        digits = (
            DigitDetection(digit=5, confidence=0.99, box=BoundingBox(0, 0, 10, 20)),
            DigitDetection(digit=1, confidence=0.98, box=BoundingBox(12, 0, 10, 20)),
        )
        records = tmp_path / "records.txt"
        records.write_text(record(0, digits=digits) + "\n" + record(1) + "\n", encoding="utf-8")
        assert run(["assemble", "--input", str(records)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[7] == "51"
        assert lines[1].split()[7] == "-"

    def test_confidence_gate_override(self, tmp_path, capsys):
        digits = (DigitDetection(digit=7, confidence=0.5, box=BoundingBox(0, 0, 10, 20)),)
        records = tmp_path / "records.txt"
        records.write_text(record(0, digits=digits) + "\n", encoding="utf-8")
        assert run(["assemble", "--input", str(records)]) == 0
        assert capsys.readouterr().out.split()[7] == "-"
        cfg = tmp_path / "t.cfg"
        cfg.write_text("confidence_threshold = 0.5\n", encoding="utf-8")
        assert run(["assemble", "--input", str(records), "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.split()[7] == "7"

    def test_digit_box_beyond_the_float_range(self, tmp_path, capsys):
        # a box field at or above 2**53 is read as an exact int, and each first digit box's area is
        # beyond the float range; line 2's digits overlap by an exact IoU of 1 / (big * 2**53),
        # which rounds to 0, and line 3's by (2**53 - 2) / 2**53, which suppresses the less confident
        big = int(1.7e308)
        assert float(Fraction(1, big * 2**53)) == 0.0
        lines = [
            "0 0 1 1 11 0.5 home - 0",
            f"2 0 1 1 11 0.5 home - 2 1 0.99 0 0 {big} {2**53} 2 0.99 0 0 1 1",
            f"3 0 1 1 11 0.5 home - 2 1 0.99 0 0 {big} {2**53} 2 0.98 0 0 {big} {2**53 - 2}",
        ]
        records = tmp_path / "records.txt"
        records.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert run(["assemble", "--input", str(records)]) == 0
        captured = capsys.readouterr()
        numbers = ["-", "21", "1"]  # line 2: digit 2's center is left of digit 1's
        assert captured.out == "".join(line.replace(" - ", f" {n} ", 1) + "\n" for line, n in zip(lines, numbers))
        assert captured.err == ""

    def test_out_of_range_number_is_fatal(self, tmp_path, capsys):
        digits = tuple(
            DigitDetection(digit=v, confidence=0.99, box=BoundingBox(14 * i, 0, 10, 20))
            for i, v in enumerate((1, 2, 3))
        )
        records = tmp_path / "records.txt"
        records.write_text(record(0, digits=digits) + "\n", encoding="utf-8")
        cfg = tmp_path / "t.cfg"
        cfg.write_text("max_digits = 3\n", encoding="utf-8")
        assert run(["assemble", "--input", str(records), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: record line 1: PlayerDetection.number in 0..99 violated (got 123)\n"


class TestClassifyTeam:
    def test_labels_from_crops(self, tmp_path, capsys):
        crops = tmp_path / "crops"
        crops.mkdir()
        write_image(solid_image(10, 10, (200, 40, 40)), crops / "0_0.ppm")
        write_image(solid_image(10, 10, (100, 100, 100)), crops / "0_1.ppm")
        records = tmp_path / "records.txt"
        records.write_text(
            record(0) + "\n" + record(0, x=200) + "\n" + record(3) + "\n", encoding="utf-8"
        )
        assert run(["classify-team", "--input", str(records), "--crops", str(crops)]) == 0
        captured = capsys.readouterr()
        teams = [line.split()[6] for line in captured.out.splitlines()]
        assert teams == ["home", "away", "unknown"]
        assert captured.err == "record line 3: no crop 3_0.ppm, team kept\n"

    def test_only_skipped_lines_are_counted(self, tmp_path, capsys):
        crops = tmp_path / "crops"
        crops.mkdir()
        write_image(solid_image(10, 10, (200, 40, 40)), crops / "0_0.ppm")
        records = tmp_path / "records.txt"
        records.write_text(record(0) + "\ngarbage\n" + record(3) + "\n", encoding="utf-8")
        assert run(["classify-team", "--input", str(records), "--crops", str(crops)]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2
        assert captured.err.splitlines() == [
            "record line 2: expected at least 9 fields, got 1",
            "record line 3: no crop 3_0.ppm, team kept",
            "1 malformed line(s) skipped",
        ]

    def test_a_bad_crop_is_named(self, tmp_path, capsys):
        crops = tmp_path / "crops"
        crops.mkdir()
        write_image(solid_image(10, 10, (200, 40, 40)), crops / "0_0.ppm")
        (crops / "0_1.ppm").write_bytes(b"P6\n8 8\n255\n" + bytes(10))
        records = tmp_path / "records.txt"
        records.write_text(record(0) + "\n" + record(0, x=200) + "\n", encoding="utf-8")
        assert run(["classify-team", "--input", str(records), "--crops", str(crops)]) == 1
        captured = capsys.readouterr()
        assert captured.out == record(0, team="home") + "\n"
        assert captured.err == f"error: {crops / '0_1.ppm'}: image data truncated: want 192 bytes, got 10\n"


class TestClassifyTeamChain:
    """classify-team against the scalar chain run here: iter_detections, read_image, extract_strip,
    channel_histogram, classify_team and serialize_detection, notes and skips printed as the CLI prints them."""

    BAD_CROPS = {
        "P5 crop": b"P5\n2 2\n255\n\0\0\0\0",
        "truncated crop": b"P6\n4 4\n255\n" + bytes(10),
        "bad magic": b"XX\n1 1\n255\n\0\0\0",
    }

    @staticmethod
    def long_inputs(tmp_path):
        """Over 1,024 content lines: malformed, blank and '#' lines on both sides of the first block boundary,
        rejected lines in the frame of the records after them, missing crops, crops of every team and of
        headers with a comment or tabs, a frame past 2**63 and a box field of 2**53 + 1."""
        rng = random.Random(17)
        crops = tmp_path / "crops"
        crops.mkdir()
        headers = ["P6\n{w} {h}\n255\n", "P6\n# crop\n{w} {h}\n255\n", "P6\t{w}\t{h}\t255\t"]
        lines, content, counters = [], 0, {}

        def add(frame, text):
            nonlocal content
            lines.append(text)
            content += 1
            index = counters.get(frame, 0)
            counters[frame] = index + 1
            if rng.random() < 0.85:  # else its crop is missing
                rgb = TEAM_RGB[rng.choice(list(TEAM_RGB))]
                crop = ppm(rng.randint(1, 9), rng.randint(1, 9), rgb, rng.choice(headers))
                (crops / f"{frame}_{index}.ppm").write_bytes(crop)

        for frame in range(170):
            for _ in range(rng.randint(5, 8)):
                if 1016 <= content <= 1032 and rng.random() < 0.5:
                    lines.append(rng.choice(["", "   ", "# note"]))
                    rejected = rng.choice([
                        "garbage", f"{frame} 10 20 40 60 0.9 Home - 0", f"{frame} 10 20 40 60 1.5 home - 0",
                        f"{frame} 10 20 40 60 0.9 home - 1",
                    ])
                    lines.append(rejected)
                    content += 1
                digits = (DigitDetection(BoundingBox(1, 2, 5, 9), rng.randint(0, 9), 0.99),)[:rng.randint(0, 1)]
                add(frame, record(frame, x=rng.randint(0, 50), team=rng.choice(list(TEAM_RGB)), digits=digits))
        add(2**63 + 5, f"{2**63 + 5} 10 20 40 60 0.9 home - 0")
        add(7, f"7 {2**53 + 1} 20 40 60 0.9 unknown - 0")
        records = tmp_path / "records.txt"
        records.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert content > 1100
        return records, crops

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    @pytest.mark.parametrize("case", ["long", *BAD_CROPS, "bad byte after a bad crop"])
    def test_equals_the_scalar_chain(self, case, strict, tmp_path, capsys):
        if case == "long":
            records, crops = self.long_inputs(tmp_path)
        else:
            # a bad crop in frame 1 after a labelled record and a missing crop, and before a malformed line
            crops = tmp_path / "crops"
            crops.mkdir()
            (crops / "0_0.ppm").write_bytes(ppm(3, 5, TEAM_RGB["home"]))
            (crops / "1_0.ppm").write_bytes(self.BAD_CROPS.get(case, self.BAD_CROPS["bad magic"]))
            (crops / "1_1.ppm").write_bytes(ppm(3, 5, TEAM_RGB["away"]))
            records = tmp_path / "records.txt"
            text = "\n".join([record(0), record(0), record(1), "garbage", record(1), ""]).encode()
            records.write_bytes(text + (b"# caf\xc3(\n" + record(2).encode() if case.startswith("bad byte") else b""))
        expected = scalar_classify_team(records, crops, strict)
        argv = ["classify-team", "--input", str(records), "--crops", str(crops)]
        code = run(argv + ["--strict"] * strict)
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == expected
        if case == "long" and not strict:
            labels = {line.split()[6] for line in captured.out.splitlines()}
            assert labels == set(TEAM_RGB) and "team kept" in captured.err and "malformed" in captured.err

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    @pytest.mark.parametrize("bad", ["truncated crop", "P5 crop", "crop is a directory"])
    @pytest.mark.parametrize(
        "where", [500, 1024, 1025], ids=["mid-block", "first after a boundary", "second after a boundary"]
    )
    def test_a_bad_crop_inside_a_block(self, where, bad, strict, tmp_path, capsys):
        # 1,100 records, four to a frame, each with a crop of its team but the one just before the bad crop;
        # a malformed line follows the bad crop.  Every line before the bad crop is written, its block's too
        crops = tmp_path / "crops"
        crops.mkdir()
        teams = list(TEAM_RGB)
        lines = []
        for k in range(1100):
            frame, index = divmod(k, 4)
            lines.append(record(frame, x=k % 50, team=teams[k % 3]))
            crop = crops / f"{frame}_{index}.ppm"
            if k == where:
                if bad == "crop is a directory":
                    crop.mkdir()
                else:
                    crop.write_bytes(self.BAD_CROPS[bad])
            elif k != where - 1:
                crop.write_bytes(ppm(1 + k % 7, 1 + k % 5, TEAM_RGB[teams[(k + 1) % 3]]))
        lines.insert(where + 1, "garbage")
        records = tmp_path / "records.txt"
        records.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = scalar_classify_team(records, crops, strict)
        code = run(["classify-team", "--input", str(records), "--crops", str(crops)] + ["--strict"] * strict)
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == expected
        written = captured.out.splitlines()
        assert code == 1 and len(written) == where and written[-1] == lines[where - 1]  # the missing crop's team kept

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_a_crop_name_too_long_is_an_error_not_a_missing_crop(self, strict, tmp_path, capsys):
        # frame 10**300 is a valid record whose crop name is longer than a file name may be
        crops = tmp_path / "crops"
        crops.mkdir()
        (crops / "0_0.ppm").write_bytes(ppm(3, 5, TEAM_RGB["home"]))
        records = tmp_path / "records.txt"
        records.write_text("\n".join([record(0), record(1), record(10**300), "garbage"]) + "\n", encoding="utf-8")
        expected = scalar_classify_team(records, crops, strict)
        assert expected[2] == 1 and expected[1].startswith(f"error: [Errno {errno.ENAMETOOLONG}]")
        code = run(["classify-team", "--input", str(records), "--crops", str(crops)] + ["--strict"] * strict)
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == expected

    @pytest.mark.parametrize("case", ["crop is a directory", "crops is a file"])
    def test_only_a_missing_file_is_a_missing_crop(self, case, tmp_path, capsys):
        # a crop that cannot be read is an error; a crops path that is no directory holds no crop
        crops = tmp_path / "crops"
        if case == "crops is a file":
            crops.write_bytes(b"")
        else:
            (crops / "0_0.ppm").mkdir(parents=True)
        records = tmp_path / "records.txt"
        records.write_text(record(0) + "\n", encoding="utf-8")
        expected = scalar_classify_team(records, crops, False)
        code = run(["classify-team", "--input", str(records), "--crops", str(crops)])
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == expected
        if case == "crops is a file":
            assert (captured.err, code) == ("record line 1: no crop 0_0.ppm, team kept\n", 0)
        else:
            assert code == 1 and captured.err.startswith(f"error: [Errno {errno.EISDIR}]")


class TestEvaluate:
    def test_perfect_predictions(self, tmp_path, capsys):
        text = record(0, x=0, y=0, w=50, h=50) + "\n" + record(0, x=100, y=0, w=120, h=120) + "\n"
        preds = tmp_path / "preds.txt"
        truth = tmp_path / "truth.txt"
        preds.write_text(text, encoding="utf-8")
        truth.write_text(text, encoding="utf-8")
        assert run(["evaluate", "--preds", str(preds), "--truth", str(truth)]) == 0
        out = capsys.readouterr().out
        assert "AP_{0.5:0.95} 1.000000\n" in out
        assert "AR_large 1.000000\n" in out

    @pytest.mark.filterwarnings("ignore::playlog.DegenerateMetricWarning")
    def test_confusion_appended(self, tmp_path, capsys):
        # boxes below the excluded-area floor: AP/AR degenerate by design,
        # the point here is the digit confusion block
        digits = (DigitDetection(digit=8, confidence=0.99, box=BoundingBox(0, 0, 10, 20)),)
        truth_digits = (DigitDetection(digit=6, confidence=0.99, box=BoundingBox(0, 0, 10, 20)),)
        preds = tmp_path / "preds.txt"
        truth = tmp_path / "truth.txt"
        preds.write_text(record(0, digits=digits) + "\n", encoding="utf-8")
        truth.write_text(record(0, digits=truth_digits) + "\n", encoding="utf-8")
        # numbers come from assembly, chained exactly as a user would
        assembled_preds = tmp_path / "preds_a.txt"
        assembled_truth = tmp_path / "truth_a.txt"
        assert run(["assemble", "--input", str(preds), "--output", str(assembled_preds)]) == 0
        assert run(["assemble", "--input", str(truth), "--output", str(assembled_truth)]) == 0
        assert run(
            ["evaluate", "--preds", str(assembled_preds), "--truth", str(assembled_truth), "--confusion"]
        ) == 0
        out = capsys.readouterr().out
        assert "confusion_counts\n" in out
        assert "confusion_normalized\n" in out
        counts_block = out.split("confusion_counts\n")[1].split("confusion_normalized\n")[0]
        row6 = counts_block.splitlines()[6].split()
        assert row6[8] == "1"
        normalized_block = out.split("confusion_normalized\n")[1]
        assert normalized_block.splitlines()[6].split()[8] == "1.0000"

    # (x, w, h) per record: one small and one large ground-truth box per frame
    TRUTH_BOXES = ((10, 40, 60), (200, 120, 150))
    REPORT_KEYS = {
        "AP_{0.5:0.95}": "ap_range", "AP_{0.50}": "ap_50", "AP_{0.75}": "ap_75",
        "AP_small": "ap_small", "AP_large": "ap_large",
        "AR_small": "ar_small", "AR_large": "ar_large",
    }

    def frames_of_records(self, frames, jitter, score):
        return "".join(
            record(f, x=x + jitter, w=w, h=h, score=score - 0.1 * i) + "\n"
            for f in frames
            for i, (x, w, h) in enumerate(self.TRUTH_BOXES)
        )

    def test_degenerate_metrics_are_one_plain_line_each(self, tmp_path, capsys):
        # no path, line number or source line; shown again on every run in one process
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        for _ in range(2):
            assert run(["evaluate", "--preds", str(empty), "--truth", str(empty)]) == 0
            assert capsys.readouterr().err == (
                "warning: AP with num_gt = 0 pinned to 0\n"
                "warning: AR over an empty size bucket pinned to 0\n"
            )

    def test_box_area_beyond_the_float_range_warns_nothing_more(self, tmp_path, capsys):
        # 1.7e308 * 60 overflows to an infinite area: a large box, scored without a RuntimeWarning
        preds = tmp_path / "preds.txt"
        truth = tmp_path / "truth.txt"
        preds.write_text("0 10 20 1.7e308 60 0.9 home - 0\n0 100 100 40 60 0.8 home - 0\n", encoding="utf-8")
        truth.write_text("0 100 100 40 60 1 home - 0\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            assert run(["evaluate", "--preds", str(preds), "--truth", str(truth)]) == 0
        assert [w.message for w in shown if issubclass(w.category, RuntimeWarning)] == []
        captured = capsys.readouterr()
        assert captured.out == (
            "AP_{0.5:0.95} 0.500000\nAP_{0.50} 0.500000\nAP_{0.75} 0.500000\n"
            "AP_small 1.000000\nAP_large 0.000000\nAR_small 1.000000\nAR_large 0.000000\n"
        )
        assert captured.err == (
            "warning: AP with num_gt = 0 pinned to 0\n"
            "warning: AR over an empty size bucket pinned to 0\n"
        )

    def test_truth_frame_without_predictions_scores_empty(self, tmp_path, capsys):
        truth = tmp_path / "truth.txt"
        preds = tmp_path / "preds.txt"
        truth.write_text(self.frames_of_records(range(5), 0, 1.0), encoding="utf-8")
        preds.write_text(self.frames_of_records((0, 1, 3, 4), 3, 0.9), encoding="utf-8")
        assert run(["evaluate", "--preds", str(preds), "--truth", str(truth)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""

        gts = {f: [(x, 20, w, h) for x, w, h in self.TRUTH_BOXES] for f in range(5)}
        scored = {
            f: [] if f == 2 else [((x + 3, 20, w, h), 0.9 - 0.1 * i)
                                  for i, (x, w, h) in enumerate(self.TRUTH_BOXES)]
            for f in range(5)
        }
        expected = ref_evaluate(scored, gts)
        assert expected["ap_range"] < 1.0  # the missed frame counts against recall
        rows = dict(line.split() for line in captured.out.splitlines())
        assert set(rows) == set(self.REPORT_KEYS)
        for name, key in self.REPORT_KEYS.items():
            assert float(rows[name]) == pytest.approx(expected[key], abs=1e-6), name

    @pytest.mark.filterwarnings("ignore::playlog.DegenerateMetricWarning")
    def test_digit_count_notes_are_not_counted_as_skipped(self, tmp_path, capsys):
        def numbered(number):
            d = PlayerDetection(frame_index=0, box=BoundingBox(10, 20, 40, 60), score=0.9, number=number)
            return serialize_detection(d) + "\n"

        preds = tmp_path / "preds.txt"
        truth = tmp_path / "truth.txt"
        preds.write_text(numbered(4), encoding="utf-8")
        truth.write_text(numbered(35), encoding="utf-8")
        assert run(["evaluate", "--preds", str(preds), "--truth", str(truth), "--confusion"]) == 0
        assert capsys.readouterr().err == "frame 0: digit counts differ (35 vs 4), pair skipped\n"
        preds.write_text(numbered(4) + "garbage\n", encoding="utf-8")
        assert run(["evaluate", "--preds", str(preds), "--truth", str(truth), "--confusion"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "record line 2: expected at least 9 fields, got 1",
            "frame 0: digit counts differ (35 vs 4), pair skipped",
            "1 malformed line(s) skipped",
        ]

    def test_confusion_on_frames_past_int64(self, tmp_path, capsys):
        # a first block of small frames only, then one that mixes small frames with frames past
        # int64, which is read as Python ints: the output is that of the same records with those
        # frames renumbered to small ints above the others, in the same order
        pad = playlog.gamelog.BLOCK_LINES
        preds = [(0, 10, 7, 0.9), (0, 100, 35, 0.8), ("b", 10, 5, 0.7), ("b", 100, 12, 0.9), ("a", 10, 9, 0.9)]
        truth = [(0, 10, 7, 1), (0, 100, 3, 1), ("b", 10, 34, 1), ("b", 100, 17, 1), ("a", 10, 19, 1), ("c", 10, 1, 1)]

        def run_with(late):
            paths = []
            for name, rows in (("preds", preds), ("truth", truth)):
                path = tmp_path / f"{name}.txt"
                path.write_text("".join(
                    serialize_detection(PlayerDetection(
                        frame_index=late.get(f, f), box=BoundingBox(x, 20, 40, 60), score=score, number=number
                    )) + "\n"
                    for f, x, number, score in [(f, 10, 4, 1) for f in range(1, pad + 1)] + rows
                ), encoding="utf-8")
                paths.append(str(path))
            assert run(["evaluate", "--preds", paths[0], "--truth", paths[1], "--confusion"]) == 0
            return capsys.readouterr()

        big = run_with({"a": 2**63 + 1, "b": 2**63 + 5, "c": 2**64 + 1})
        small = run_with({"a": pad + 1, "b": pad + 2, "c": pad + 3})
        assert big.out == small.out
        counts = big.out.split("confusion_counts\n")[1].splitlines()[:10]
        assert [counts[1], counts[4], counts[7]] == [  # 17 read as 12 and 7 as 7, past the padding's 4s
            "0 1 0 0 0 0 0 0 0 0", f"0 0 0 0 {pad} 0 0 0 0 0", "0 0 1 0 0 0 0 1 0 0"
        ]
        notes = [
            "frame 0: digit counts differ (3 vs 35), pair skipped",
            "frame 9223372036854775809: digit counts differ (19 vs 9), pair skipped",
            "frame 9223372036854775813: digit counts differ (34 vs 5), pair skipped",
        ]
        assert big.err.splitlines()[-3:] == notes
        assert big.err.replace(f"frame {2**63 + 1}:", f"frame {pad + 1}:").replace(
            f"frame {2**63 + 5}:", f"frame {pad + 2}:") == small.err

    def test_confusion_pairs_truth_below_the_area_floor(self, tmp_path, capsys):
        # AP drops truth boxes under 32x32; the confusion block pairs digits
        # over every truth box, so the two passes match against different lists
        rng = random.Random(17)
        truth_rows, pred_rows = {}, {}
        for f in range(6):
            # (x, y, w, h): one box under the floor, one small, one large
            truth_rows[f] = [((x, 30, w, h), rng.randrange(100))
                             for x, w, h in ((5, 20, 30), (60, 40, 60), (150, 120, 150))]
            pred_rows[f] = []
            for (x, y, w, h), number in truth_rows[f]:
                if rng.random() < 0.8:
                    number = int("".join(str(rng.randrange(10)) for _ in str(number)))
                elif rng.random() < 0.5:
                    number = rng.randrange(100)
                box = (x + rng.randrange(3), y + rng.randrange(3), w, h)
                pred_rows[f].append((box, round(rng.uniform(0.3, 0.99), 2), number))
            rng.shuffle(pred_rows[f])

        def write(path, rows):
            path.write_text("".join(
                serialize_detection(PlayerDetection(frame_index=f, box=BoundingBox(*b), score=score, number=n)) + "\n"
                for f in sorted(rows) for b, score, n in rows[f]
            ), encoding="utf-8")

        preds = tmp_path / "preds.txt"
        truth = tmp_path / "truth.txt"
        write(preds, pred_rows)
        write(truth, {f: [(b, 1.0, n) for b, n in rows] for f, rows in truth_rows.items()})
        assert run(["evaluate", "--preds", str(preds), "--truth", str(truth), "--confusion"]) == 0
        captured = capsys.readouterr()

        scored = {f: [(b, score) for b, score, _ in rows] for f, rows in pred_rows.items()}
        gts = {f: [b for b, _ in rows] for f, rows in truth_rows.items()}
        assert sum(ref_greedy_match(scored[f], gts[f], 0.50).count(0) for f in gts) == 6  # pairs below the floor
        counts, normalized, notes = ref_confusion(pred_rows, truth_rows)
        assert captured.out.split("confusion_counts\n")[1] == (
            "".join(" ".join(str(v) for v in row) + "\n" for row in counts)
            + "confusion_normalized\n"
            + "".join(" ".join("%.4f" % v for v in row) + "\n" for row in normalized)
        )
        assert captured.err == "".join(note + "\n" for note in notes)

        expected = ref_evaluate(scored, gts)
        rows = dict(line.split() for line in captured.out.split("confusion_counts\n")[0].splitlines())
        for name, key in self.REPORT_KEYS.items():
            assert float(rows[name]) == pytest.approx(expected[key], abs=1e-6), name

    def test_match_iou_flag_is_gone(self, tmp_path, capsys):
        truth = tmp_path / "truth.txt"
        truth.write_text(self.frames_of_records((0,), 0, 1.0), encoding="utf-8")
        argv = ["evaluate", "--preds", str(truth), "--truth", str(truth), "--confusion"]
        assert run(argv + ["--match-iou", "0.5"]) == 1
        assert "unrecognized arguments: --match-iou" in capsys.readouterr().err

    def test_prediction_frame_absent_from_truth_scores_false_positives(self, tmp_path, capsys):
        # a frame with nobody in view (a crowd or sideline shot) has no truth record
        truth = tmp_path / "truth.txt"
        preds = tmp_path / "preds.txt"
        truth.write_text(self.frames_of_records((0, 1), 0, 1.0), encoding="utf-8")
        preds.write_text(self.frames_of_records((0, 1, 7), 3, 0.9), encoding="utf-8")
        assert run(["evaluate", "--preds", str(preds), "--truth", str(truth)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""

        gts = {f: [] if f == 7 else [(x, 20, w, h) for x, w, h in self.TRUTH_BOXES] for f in (0, 1, 7)}
        scored = {
            f: [((x + 3, 20, w, h), 0.9 - 0.1 * i) for i, (x, w, h) in enumerate(self.TRUTH_BOXES)]
            for f in (0, 1, 7)
        }
        expected = ref_evaluate(scored, gts)
        assert expected["ap_range"] < 1.0  # the frame's predictions count as false positives
        rows = dict(line.split() for line in captured.out.splitlines())
        assert set(rows) == set(self.REPORT_KEYS)
        for name, key in self.REPORT_KEYS.items():
            assert float(rows[name]) == pytest.approx(expected[key], abs=1e-6), name


class TestImages:
    def test_preprocess(self, tmp_path):
        src = tmp_path / "crop.ppm"
        out = tmp_path / "ocr.pgm"
        image = PixelImage(2, 2, 3, [250, 250, 250, 5, 5, 5, 250, 250, 250, 5, 5, 5])
        write_image(image, src)
        assert run(["preprocess", "--input", str(src), "--output", str(out)]) == 0
        result = read_image(out)
        assert result.channels == 1
        assert list(result.samples) == [0, 255, 0, 255]

    def test_preprocess_pad(self, tmp_path):
        src = tmp_path / "crop.ppm"
        out = tmp_path / "ocr.pgm"
        write_image(solid_image(4, 2, (255, 255, 255)), src)
        assert run(["preprocess", "--input", str(src), "--output", str(out), "--pad"]) == 0
        result = read_image(out)
        assert (result.width, result.height) == (4, 4)

    def test_augment_writes_named_copies(self, tmp_path, capsys):
        src = tmp_path / "crop.ppm"
        write_image(solid_image(6, 6, (10, 20, 30)), src)
        out_dir = tmp_path / "aug"
        assert run(["augment", "--input", str(src), "--output-dir", str(out_dir)]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["crop_blur.ppm", "crop_x0.5.ppm", "crop_x2.ppm"]
        assert read_image(out_dir / "crop_x2.ppm").width == 12
        assert capsys.readouterr().err.count("wrote") == 3

    def test_augment_bad_factors(self, tmp_path, capsys):
        src = tmp_path / "crop.ppm"
        write_image(solid_image(4, 4, (0, 0, 0)), src)
        assert run(
            ["augment", "--input", str(src), "--output-dir", str(tmp_path / "aug"), "--factors", "0.5,fast"]
        ) == 1
        assert "--factors" in capsys.readouterr().err


class TestSynth:
    def test_writes_expected_files(self, tmp_path, capsys):
        out = tmp_path / "game"
        assert run(["synth", "--seed", "7", "--output", str(out), "--quarters", "1", "--fps", "2"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "clock.txt",
            "detections.txt",
            "game.cfg",
            "roster_home.txt",
            "truth_log.csv",
            "truth_log.jsonl",
        ]
        assert "wrote 6 files" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        args = ["synth", "--seed", "11", "--quarters", "1", "--fps", "2"]
        assert run(args + ["--output", str(tmp_path / "a")]) == 0
        assert run(args + ["--output", str(tmp_path / "b")]) == 0
        for name in ("clock.txt", "detections.txt", "truth_log.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_impossible_schedule(self, tmp_path, capsys):
        assert run(
            ["synth", "--seed", "1", "--output", str(tmp_path / "g"), "--plays-per-quarter", "500"]
        ) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_more_players_than_the_roster_holds(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert run(["synth", "--seed", "1", "--output", str(out), "--players-min", "61", "--players-max", "61",
                    "--quarters", "1", "--plays-per-quarter", "1"]) == 1
        assert capsys.readouterr().err == "error: players_per_play maximum <= 60 violated (got 61)\n"
        assert not out.exists()


class TestPipeline:
    @pytest.fixture()
    def game_dir(self, tmp_path):
        out = tmp_path / "game"
        assert run(
            ["synth", "--seed", "3", "--output", str(out), "--quarters", "2",
             "--plays-per-quarter", "2", "--fps", "3"]
        ) == 0
        return out

    def test_recovers_truth_log(self, game_dir, tmp_path, capsys):
        out = tmp_path / "log.csv"
        assert run(
            ["pipeline", "--config", str(game_dir / "game.cfg"),
             "--clock", str(game_dir / "clock.txt"),
             "--records", str(game_dir / "detections.txt"),
             "--output", str(out)]
        ) == 0
        assert out.read_bytes() == (game_dir / "truth_log.csv").read_bytes()

    def test_structured_recovers_truth_log(self, game_dir, tmp_path):
        out = tmp_path / "log.jsonl"
        assert run(
            ["pipeline", "--config", str(game_dir / "game.cfg"),
             "--clock", str(game_dir / "clock.txt"),
             "--records", str(game_dir / "detections.txt"),
             "--format", "structured", "--output", str(out)]
        ) == 0
        assert out.read_bytes() == (game_dir / "truth_log.jsonl").read_bytes()

    @staticmethod
    def staged_and_chained(game_dir, tmp_path, config, fmt="delimited", side="home"):
        """The log of ``side`` from parse-clock -> assemble -> log and from pipeline, as bytes."""
        cfg = ["--config", str(config)]
        windows = tmp_path / "windows.txt"
        assembled = tmp_path / "assembled.txt"
        staged = tmp_path / "staged.log"
        chained = tmp_path / "chained.log"
        assert run(["parse-clock", "--input", str(game_dir / "clock.txt"),
                    "--output", str(windows)] + cfg) == 0
        assert run(["assemble", "--input", str(game_dir / "detections.txt"),
                    "--output", str(assembled)] + cfg) == 0
        assert run(["log", "--windows", str(windows), "--records", str(assembled),
                    "--format", fmt, "--side", side, "--output", str(staged)] + cfg) == 0
        assert run(["pipeline", "--clock", str(game_dir / "clock.txt"),
                    "--records", str(game_dir / "detections.txt"),
                    "--format", fmt, "--side", side, "--output", str(chained)] + cfg) == 0
        return staged.read_bytes(), chained.read_bytes()

    def test_matches_staged_subcommands(self, game_dir, tmp_path):
        staged, chained = self.staged_and_chained(game_dir, tmp_path, game_dir / "game.cfg")
        assert staged == chained

    @pytest.mark.parametrize("fmt, truth", [("delimited", "truth_log.csv"), ("structured", "truth_log.jsonl")])
    def test_matches_staged_subcommands_under_a_changed_config(self, game_dir, tmp_path, fmt, truth):
        # one changed threshold per stage: segmenter, assembly and log
        values = parse_config_text((game_dir / "game.cfg").read_text(encoding="utf-8"))
        values.update(min_play_frames="3", max_digits="1", min_appearances="2")
        (game_dir / "changed.cfg").write_text(format_config(values), encoding="utf-8")
        staged, chained = self.staged_and_chained(game_dir, tmp_path, game_dir / "changed.cfg", fmt)
        assert staged == chained
        assert chained != (game_dir / truth).read_bytes()

    @pytest.mark.parametrize("fmt, truth", [("delimited", "truth_log.csv"), ("structured", "truth_log.jsonl")])
    def test_away_side_matches_staged_subcommands(self, game_dir, tmp_path, fmt, truth):
        # the away log has the home log's plays and other players; the table's header names the away team
        staged, chained = self.staged_and_chained(game_dir, tmp_path, game_dir / "game.cfg", fmt, "away")
        assert staged == chained
        texts = (chained.decode("utf-8"), (game_dir / truth).read_text(encoding="utf-8"))
        if fmt == "delimited":
            (away_header, *away), (home_header, *home) = (list(csv.reader(text.splitlines())) for text in texts)
            assert away_header == [*home_header[:-1], "Participating players of Away team"]
            assert home_header[-1] == "Participating players of Home team"
        else:
            away, home = (
                [(replace(e, participants={}), dict(e.participants)) for e in parse_game_log(text)] for text in texts
            )
        assert [row[:-1] for row in away] == [row[:-1] for row in home]
        assert [row[-1] for row in away] != [row[-1] for row in home]

    def test_repeat_runs_are_byte_identical(self, game_dir, tmp_path):
        outputs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            assert run(
                ["pipeline", "--config", str(game_dir / "game.cfg"),
                 "--clock", str(game_dir / "clock.txt"),
                 "--records", str(game_dir / "detections.txt"),
                 "--output", str(out)]
            ) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_workdir_keeps_intermediates(self, game_dir, tmp_path):
        workdir = tmp_path / "stages"
        out = tmp_path / "log.csv"
        assert run(
            ["pipeline", "--config", str(game_dir / "game.cfg"),
             "--clock", str(game_dir / "clock.txt"),
             "--records", str(game_dir / "detections.txt"),
             "--workdir", str(workdir), "--output", str(out)]
        ) == 0
        cfg = ["--config", str(game_dir / "game.cfg")]
        windows = tmp_path / "windows.txt"
        assembled = tmp_path / "assembled.txt"
        assert run(["parse-clock", "--input", str(game_dir / "clock.txt"),
                    "--output", str(windows)] + cfg) == 0
        assert run(["assemble", "--input", str(game_dir / "detections.txt"),
                    "--output", str(assembled)] + cfg) == 0
        assert (workdir / "windows.txt").read_bytes() == windows.read_bytes()
        assert (workdir / "records_assembled.txt").read_bytes() == assembled.read_bytes()

    def test_parses_each_record_once_in_memory(self, game_dir, tmp_path, monkeypatch):
        # well-formed lines are checked on arrays, and the columnar writer writes them;
        # each line the arrays reject is parsed once by the scalar parse_detection,
        # serialize_detection writes only the records that the scalar path read,
        # no record type is built for a line the arrays accept, and `pipeline`
        # makes no temp directory
        cfg = ["--config", str(game_dir / "game.cfg")]
        clean = game_dir / "detections.txt"
        out = tmp_path / "out.txt"
        workdir = tmp_path / "stages"
        crops = tmp_path / "crops"
        paint_crops(clean, crops)
        commands = {
            "pipeline": lambda records: ["pipeline", *cfg, "--clock", str(game_dir / "clock.txt"),
                                         "--records", str(records), "--output", str(out)],
            "pipeline --workdir": lambda records: commands["pipeline"](records) + ["--workdir", str(workdir)],
            "assemble": lambda records: ["assemble", *cfg, "--input", str(records), "--output", str(out)],
            "classify-team": lambda records: ["classify-team", *cfg, "--input", str(records), "--crops", str(crops),
                                              "--output", str(out)],
            "evaluate": lambda records: ["evaluate", "--preds", str(records), "--truth", str(clean),
                                         "--output", str(out)],
        }
        # skipped lines, and a valid record in a frame past int64 that no window holds;
        # each has 9 fields, as no record of this game has, so a line whose fields
        # do not convert takes no well-formed line to the scalar path with it
        rejected = [
            "garbage", "0 10 20 40 60 0.9 home 100 0", "0 10 20 40 60 0.9 Home - 0", "0 nan 20 40 60 0.9 home - 0",
            "1\u0663 10 20 40 60 0.9 home - 0", "0 10 20 40 60 0.9 home - 1", f"{2**63} 10 20 40 60 0.9 home 7 0",
        ]
        lines = clean.read_text(encoding="utf-8").splitlines()
        rng = random.Random(11)
        for line in rejected * 3:
            lines.insert(rng.randrange(len(lines) + 1), line)
        mutated = tmp_path / "mutated.txt"
        mutated.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = load_config(game_dir / "game.cfg")
        assembled = {  # what the scalar chain writes
            records: "".join(
                serialize_detection(assemble_detection(d, config.assembly)) + "\n"
                for _, d in iter_detections(read_lines(records), [])
            ).encode()
            for records in (clean, mutated)
        }
        # what the scalar chain writes; each crop shows its record's team
        labelled = {records: scalar_classify_team(records, crops, False)[0].encode() for records in (clean, mutated)}
        truth = (game_dir / "truth_log.csv").read_bytes()
        calls = {"parse": 0, "serialize": 0, "validate": 0}

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return counted

        def forbidden(*args, **kwargs):
            raise AssertionError("pipeline made a temp directory")

        monkeypatch.setattr(playlog.gamelog, "parse_detection", counting("parse", playlog.gamelog.parse_detection))
        monkeypatch.setattr(
            playlog.gamelog, "serialize_detection", counting("serialize", playlog.gamelog.serialize_detection)
        )
        for record_type in (BoundingBox, DigitDetection, PlayerDetection):
            monkeypatch.setattr(record_type, "__post_init__", counting("validate", record_type.__post_init__))
        monkeypatch.setattr(tempfile, "mkdtemp", forbidden)
        for name, argv in commands.items():
            writes = name in ("pipeline --workdir", "assemble", "classify-team")
            # the three records in a frame past int64 are read, and written, by the scalar path
            for records, parses, serializes in ((clean, 0, 0), (mutated, 3 * len(rejected), 3 if writes else 0)):
                calls.update(parse=0, serialize=0, validate=0)
                assert run(argv(records)) == 0
                # the scalar path builds the record types; nothing of the clean game takes it
                validates = 0 if records is clean else calls["validate"]
                assert calls == {"parse": parses, "serialize": serializes, "validate": validates}, (name, records.name)
                assert records is clean or validates > 0, name
                if name.startswith("pipeline"):
                    assert out.read_bytes() == truth
                if name == "pipeline --workdir":
                    assert (workdir / "records_assembled.txt").read_bytes() == assembled[records]
                if name == "assemble":
                    assert out.read_bytes() == assembled[records]
                if name == "classify-team":
                    assert out.read_bytes() == labelled[records]
                if name == "evaluate" and records is clean:
                    assert out.read_bytes().startswith(b"AP_{0.5:0.95} 1.000000\n")


class TestStreaming:
    """`pipeline`, `log`, `assemble` and `classify-team` read records one line at a time."""

    @staticmethod
    def pipeline(game_dir, clock, records, tmp_path, *extra):
        out = tmp_path / "log.csv"
        code = run(["pipeline", "--config", str(game_dir / "game.cfg"), "--clock", str(clock),
                    "--records", str(records), "--output", str(out), *extra])
        return code, out

    @staticmethod
    def peak_growth_per_line(tmp_path, one_run, check, prepare=None):
        """Bytes by which the traced peak of ``one_run(game_dir)`` grows per record
        line, from the seed-5 game of 1,820 record lines to the one of 7,150.
        ``check(game_dir)`` checks each run's output, and ``prepare(game_dir)``
        adds to each game's files, both outside the traced span."""
        games, lines, peaks = [], [], []
        for plays in (2, 8):
            game_dir = tmp_path / f"game{plays}"
            assert run(["synth", "--seed", "5", "--output", str(game_dir), "--quarters", "1",
                        "--plays-per-quarter", str(plays), "--fps", "10"]) == 0
            if prepare is not None:
                prepare(game_dir)
            games.append(game_dir)
        one_run(games[0])  # warm-up
        for game_dir in games:
            tracemalloc.start()
            try:
                code = one_run(game_dir)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
            lines.append(len((game_dir / "detections.txt").read_text(encoding="utf-8").splitlines()))
            check(game_dir)
        assert lines == [1820, 7150]
        return (peaks[1] - peaks[0]) / (lines[1] - lines[0])

    @pytest.mark.parametrize("command", ["pipeline", "assemble", "classify-team"])
    def test_memory_is_flat_in_the_record_count(self, command, tmp_path):
        # a game four times longer may not raise the peak by the records it holds or writes;
        # every classify-team record has its crop, so no note is kept
        out = tmp_path / ("log.csv" if command == "pipeline" else "records.txt")

        def one_run(game_dir):
            records = game_dir / "detections.txt"
            if command == "pipeline":
                return self.pipeline(game_dir, game_dir / "clock.txt", records, tmp_path)[0]
            if command == "classify-team":
                return run(["classify-team", "--config", str(game_dir / "game.cfg"), "--input", str(records),
                            "--crops", str(game_dir / "crops"), "--output", str(out)])
            return run(["assemble", "--config", str(game_dir / "game.cfg"), "--input", str(records),
                        "--output", str(out)])

        def check(game_dir):
            records = (game_dir / "detections.txt").read_text(encoding="utf-8")
            if command == "pipeline":
                assert out.read_bytes() == (game_dir / "truth_log.csv").read_bytes()
            elif command == "classify-team":
                assert out.read_text(encoding="utf-8") == records
            else:
                assert len(out.read_text(encoding="utf-8").splitlines()) == len(records.splitlines())

        def prepare(game_dir):
            if command == "classify-team":
                paint_crops(game_dir / "detections.txt", game_dir / "crops")

        per_record = self.peak_growth_per_line(tmp_path, one_run, check, prepare)
        assert per_record < 100, f"peak grew {per_record:.0f} bytes per record line"

    def test_evaluate_memory_holds_columns_not_records(self, tmp_path):
        # each game is scored against itself, so every record line is read twice;
        # holding the parsed records grew the peak by 2,528 bytes per line
        report = tmp_path / "report.txt"

        def one_run(game_dir):
            records = str(game_dir / "detections.txt")
            return run(["evaluate", "--preds", records, "--truth", records, "--confusion", "--output", str(report)])

        def check(game_dir):
            assert report.read_text(encoding="utf-8").startswith("AP_{0.5:0.95} 1.000000\n")

        per_line = self.peak_growth_per_line(tmp_path, one_run, check)
        assert per_line < 840, f"peak grew {per_line:.0f} bytes per record line"

    @pytest.mark.parametrize("command", ["pipeline", "assemble", "classify-team"])
    def test_strict_fails_at_the_first_bad_line(self, command, tmp_path, capsys):
        # line 1's out-of-range number, or its unreadable crop, is found before the malformed line 2
        digits = tuple(
            DigitDetection(digit=v, confidence=0.99, box=BoundingBox(14 * i, 0, 10, 20))
            for i, v in enumerate((1, 2, 3))
        )
        records = tmp_path / "records.txt"
        records.write_text(record(0, digits=digits) + "\ngarbage\n", encoding="utf-8")
        clock = tmp_path / "clock.txt"
        clock.write_text(CLOCK_TEXT, encoding="utf-8")
        cfg = tmp_path / "t.cfg"
        cfg.write_text("max_digits = 3\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        workdir = tmp_path / "stages"
        error = "error: record line 1: PlayerDetection.number in 0..99 violated (got 123)\n"
        if command == "pipeline":
            argv = ["pipeline", "--clock", str(clock), "--records", str(records), "--workdir", str(workdir)]
        elif command == "assemble":
            argv = ["assemble", "--input", str(records)]
        else:
            crops = tmp_path / "crops"
            crops.mkdir()
            (crops / "0_0.ppm").write_bytes(b"XX\n1 1\n255\n\0\0\0")
            argv = ["classify-team", "--input", str(records), "--crops", str(crops)]
            error = f"error: {crops / '0_0.ppm'}: unsupported image magic b'XX' (want P5 or P6)\n"
        assert run(argv + ["--config", str(cfg), "--output", str(out), "--strict"]) == 1
        assert capsys.readouterr().err == error
        assert not out.exists()
        assert not (workdir / "records_assembled.txt").exists()

    @pytest.mark.parametrize("command", ["parse-clock", "assemble", "classify-team", "log", "evaluate", "pipeline"])
    def test_failed_strict_run_keeps_the_previous_output_file(self, command, tmp_path, capsys):
        clock = tmp_path / "clock.txt"
        clock.write_text(CLOCK_TEXT, encoding="utf-8")
        windows = tmp_path / "windows.txt"
        assert run(["parse-clock", "--input", str(clock), "--output", str(windows)]) == 0
        good = tmp_path / "good.txt"
        good.write_text(record(0) + "\n", encoding="utf-8")
        bad = tmp_path / "bad.txt"
        bad.write_text(record(0) + "\ngarbage\n", encoding="utf-8")
        (tmp_path / "crops").mkdir()
        argv = {
            "parse-clock": ["--input", str(bad)],
            "assemble": ["--input", str(bad)],
            "classify-team": ["--input", str(bad), "--crops", str(tmp_path / "crops")],
            "log": ["--windows", str(windows), "--records", str(bad)],
            "evaluate": ["--preds", str(bad), "--truth", str(good)],
            "pipeline": ["--clock", str(clock), "--records", str(bad)],
        }[command]
        out = tmp_path / "out.txt"
        out.write_bytes(b"previous output\n")
        capsys.readouterr()
        assert run([command, *argv, "--output", str(out), "--strict"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert out.read_bytes() == b"previous output\n"
        assert not list(tmp_path.glob("*.partial"))

    def test_failed_run_keeps_the_record_lines_already_on_stdout(self, tmp_path, capsys):
        # stdout streams: the records before the bad line are written, then the run fails
        records = tmp_path / "records.txt"
        records.write_text(record(0) + "\ngarbage\n" + record(1) + "\n", encoding="utf-8")
        assert run(["assemble", "--input", str(records), "--strict"]) == 1
        captured = capsys.readouterr()
        assert captured.out == record(0) + "\n"
        assert captured.err == "error: record line 2: expected at least 9 fields, got 1\n"

    @pytest.mark.parametrize("bad", ["clock.txt", "detections.txt"])
    def test_invalid_utf8_is_an_input_error(self, bad, tmp_path, capsys):
        game_dir = tmp_path / "game"
        assert run(["synth", "--seed", "5", "--output", str(game_dir), "--quarters", "1",
                    "--plays-per-quarter", "2", "--fps", "3"]) == 0
        capsys.readouterr()
        path = game_dir / bad
        data = path.read_bytes()
        middle = data.index(b"\n", len(data) // 2) + 1
        path.write_bytes(data[:middle] + b"\xff\xfe\n" + data[middle:])
        line_number = data[:middle].count(b"\n") + 1
        workdir = tmp_path / "stages"
        code, out = self.pipeline(game_dir, game_dir / "clock.txt", game_dir / "detections.txt", tmp_path,
                                  "--workdir", str(workdir))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == (
            f"error: {path} line {line_number}: invalid UTF-8 byte 0xff at byte 1 of the line (invalid start byte)"
        )
        assert not any("Traceback" in line for line in err)
        assert not out.exists()
        # windows.txt is written once the clock is read, as before; nothing else is left
        expected = [] if bad == "clock.txt" else ["windows.txt"]
        assert sorted(p.name for p in workdir.iterdir()) == expected

    def test_invalid_utf8_is_located_within_its_line(self, tmp_path, capsys):
        records = tmp_path / "records.txt"
        records.write_bytes((record(0) + "\n# caf").encode() + b"\xc3(\n" + (record(1) + "\n").encode())
        out = tmp_path / "out.txt"
        assert run(["assemble", "--input", str(records), "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {records} line 2: invalid UTF-8 byte 0xc3 at byte 6 of the line (invalid continuation byte)\n"
        )
        assert not out.exists()

    def test_invalid_utf8_in_config_names_file_and_line(self, tmp_path, capsys):
        clock = tmp_path / "clock.txt"
        clock.write_text(CLOCK_TEXT, encoding="utf-8")
        cfg = tmp_path / "game.cfg"
        cfg.write_bytes(b"home_team = Caf\xc3\xa9\n# caf\xff\nmax_digits = 2\n")
        assert run(["parse-clock", "--input", str(clock), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg} line 2: invalid UTF-8 byte 0xff at byte 6 of the line (invalid start byte)\n"
        )

    def test_invalid_utf8_in_roster_names_file_and_line(self, tmp_path, capsys):
        clock = tmp_path / "clock.txt"
        clock.write_text(CLOCK_TEXT, encoding="utf-8")
        roster = tmp_path / "home.txt"
        roster.write_bytes(b"# home\n3: Al\n7: Bo\xe9\n")
        cfg = tmp_path / "game.cfg"
        cfg.write_text("home_roster = home.txt\n", encoding="utf-8")
        assert run(["parse-clock", "--input", str(clock), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {roster} line 3: invalid UTF-8 byte 0xe9 at byte 6 of the line (invalid continuation byte)\n"
        )

    def test_record_error_before_a_bad_byte_surfaces_first(self, tmp_path, capsys):
        # the file fits in one read buffer; decoding it whole would report the byte first
        records = tmp_path / "records.txt"
        records.write_bytes(b"garbage\n\xff\n")
        argv = ["assemble", "--input", str(records)]
        assert run(argv + ["--strict"]) == 1
        assert capsys.readouterr().err == "error: record line 1: expected at least 9 fields, got 1\n"
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {records} line 2: invalid UTF-8 byte 0xff at byte 1 of the line (invalid start byte)\n"
        )

    def test_failed_run_keeps_the_previous_intermediate(self, tmp_path, capsys):
        clock = tmp_path / "clock.txt"
        clock.write_text(CLOCK_TEXT, encoding="utf-8")
        records = tmp_path / "records.txt"
        records.write_text(record(0) + "\n", encoding="utf-8")
        workdir = tmp_path / "stages"
        argv = ["pipeline", "--clock", str(clock), "--records", str(records), "--workdir", str(workdir)]
        assert run(argv) == 0
        before = (workdir / "records_assembled.txt").read_bytes()
        assert before == (record(0) + "\n").encode()
        records.write_text(record(1) + "\ngarbage\n", encoding="utf-8")
        assert run(argv + ["--strict"]) == 1
        assert "record line 2" in capsys.readouterr().err
        assert (workdir / "records_assembled.txt").read_bytes() == before
        assert sorted(p.name for p in workdir.iterdir()) == ["records_assembled.txt", "windows.txt"]


class TestLog:
    def test_roster_names_in_output(self, tmp_path, capsys):
        (tmp_path / "roster.txt").write_text("3: Calvin Ridley; Bradley Sylve\n", encoding="utf-8")
        (tmp_path / "game.cfg").write_text(
            "home_team = Alabama\naway_team = Michigan State\nhome_roster = roster.txt\n",
            encoding="utf-8",
        )
        windows = tmp_path / "windows.txt"
        windows.write_text("1 1 0 20 15:00 14:56\n", encoding="utf-8")
        digits = (DigitDetection(digit=3, confidence=0.99, box=BoundingBox(0, 0, 10, 20)),)
        records = tmp_path / "records.txt"
        records.write_text(record(1, digits=digits, team="home") + "\n", encoding="utf-8")
        assembled = tmp_path / "assembled.txt"
        assert run(["assemble", "--input", str(records), "--output", str(assembled)]) == 0
        assert run(
            ["log", "--windows", str(windows), "--records", str(assembled),
             "--config", str(tmp_path / "game.cfg")]
        ) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("Play number,Quarter,")
        assert lines[1].startswith("1,1,15:00,14:56,Alabama,Michigan State,")
        assert "Calvin Ridley or Bradley Sylve" in lines[1]

    @pytest.mark.parametrize("side, header, participants", [
        ("home", "Home", "3: #3 (unrostered)"), ("away", "Away", "41: Kenny Willekes"),
    ])
    def test_each_side_logs_its_own_players_under_its_own_header(self, tmp_path, capsys, side, header, participants):
        (tmp_path / "roster.txt").write_text("41: Kenny Willekes\n", encoding="utf-8")
        (tmp_path / "game.cfg").write_text(
            "home_team = Alabama\naway_team = Michigan State\naway_roster = roster.txt\n", encoding="utf-8"
        )
        windows, records = tmp_path / "windows.txt", tmp_path / "records.txt"
        windows.write_text("1 1 0 20 15:00 14:56\n", encoding="utf-8")
        records.write_text("1 10 20 40 60 0.9 home 3 0\n1 60 20 40 60 0.9 away 41 0\n", encoding="utf-8")
        logs = []
        for fmt in ("delimited", "structured"):
            assert run(["log", "--windows", str(windows), "--records", str(records), "--side", side,
                        "--format", fmt, "--config", str(tmp_path / "game.cfg")]) == 0
            logs.append(capsys.readouterr().out)
        number, name = participants.split(": ")
        assert logs == [
            f"Play number,Quarter,Start time,End time,Home,Away,Participating players of {header} team\n"
            f"1,1,15:00,14:56,Alabama,Michigan State,{participants}\n",
            '{"play_number": 1, "quarter": 1, "start_time": "15:00", "end_time": "14:56", "home": "Alabama", '
            f'"away": "Michigan State", "participants": [{{"number": {number}, "name": "{name}"}}]}}\n',
        ]

    def test_a_window_spanning_10_to_the_12_frames_reads_only_its_records(self, tmp_path, capsys):
        # the same records at frames 0, 1 and 2 under a window of frames 0..1 give the same log
        def log(end, frames):
            windows, records = tmp_path / "windows.txt", tmp_path / "records.txt"
            windows.write_text(f"1 1 0 {end} 15:00 14:58\n", encoding="utf-8")
            records.write_text("".join(
                f"{frame} 10 20 40 60 0.9 home {number} 0\n" for frame, number in zip(frames, (7, 23, 5))
            ), encoding="utf-8")
            assert run(["log", "--windows", str(windows), "--records", str(records)]) == 0
            return capsys.readouterr()

        wide = log(10**12, (0, 10**12, 10**12 + 1))
        assert wide == log(1, (0, 1, 2))
        assert wide.out.splitlines()[1] == "1,1,15:00,14:58,Home,Away,7: #7 (unrostered); 23: #23 (unrostered)"


class TestConfigFirst:
    """Every subcommand with --config validates the whole file before reading input."""

    @pytest.mark.parametrize("command", ["parse-clock", "assemble", "classify-team", "log", "pipeline"])
    def test_malformed_config_fails_before_input(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("home_color_mode = brightest\n", encoding="utf-8")
        clock = tmp_path / "clock.txt"
        clock.write_text(CLOCK_TEXT + "70 bogus\n", encoding="utf-8")
        records = tmp_path / "records.txt"
        records.write_text(record(0) + "\ngarbage\n", encoding="utf-8")
        windows = tmp_path / "windows.txt"
        windows.write_text("1 1 0 20 15:00 14:56\n", encoding="utf-8")
        argv = {
            "parse-clock": ["--input", str(clock)],
            "assemble": ["--input", str(records)],
            "classify-team": ["--input", str(records), "--crops", str(tmp_path)],
            "log": ["--windows", str(windows), "--records", str(records)],
            "pipeline": ["--clock", str(clock), "--records", str(records)],
        }[command]
        assert run([command, *argv, "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: TeamColorProfile.mode unknown (got 'brightest')\n"

    # stage thresholds come from the config file only
    @pytest.mark.parametrize("command, flag", [
        ("parse-clock", "--play-clock-jump"),
        ("parse-clock", "--game-clock-gap"),
        ("parse-clock", "--quarter-start"),
        ("parse-clock", "--quarter-rearm-below"),
        ("parse-clock", "--min-play-frames"),
        ("assemble", "--iou-threshold"),
        ("assemble", "--confidence-threshold"),
        ("assemble", "--max-digits"),
        ("classify-team", "--margin"),
        ("log", "--min-appearances"),
    ])
    def test_threshold_flags_are_gone(self, command, flag, tmp_path, capsys):
        path = str(tmp_path / "in.txt")
        argv = {
            "parse-clock": ["--input", path],
            "assemble": ["--input", path],
            "classify-team": ["--input", path, "--crops", str(tmp_path)],
            "log": ["--windows", path, "--records", path],
        }[command]
        assert run([command, *argv, flag, "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 3" in captured.err


class TestLineBreaks:
    """Input lines end at "\\n" only; other Unicode line separators are text."""

    def test_form_feed_in_record_comment(self, tmp_path, capsys):
        records = tmp_path / "records.txt"
        records.write_text("# page break \x0c here\n" + record(0) + "\ngarbage\n", encoding="utf-8")
        assert run(["assemble", "--input", str(records)]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1
        assert captured.err.splitlines() == [
            "record line 3: expected at least 9 fields, got 1",
            "1 malformed line(s) skipped",
        ]

    def test_form_feed_in_clock_comment(self, tmp_path, capsys):
        clock = tmp_path / "clock.txt"
        clock.write_text("# page break \x0c here   and here\n" + CLOCK_TEXT, encoding="utf-8")
        assert run(["parse-clock", "--input", str(clock)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "1 1 0 20 15:00 14:56\n2 1 40 60 14:20 14:16\n"
        assert captured.err == ""
        clock.write_text("# \x0c\n" + CLOCK_TEXT + "80 bogus\n", encoding="utf-8")
        assert run(["parse-clock", "--input", str(clock)]) == 0
        assert "line 9" in capsys.readouterr().err

    def test_lone_carriage_return_in_comments(self, tmp_path, capsys):
        clock = tmp_path / "clock.txt"
        clock.write_bytes(b"# scanned\rby OCR\n" + CLOCK_TEXT.encode() + b"80 bogus\n")
        assert run(["parse-clock", "--input", str(clock)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "1 1 0 20 15:00 14:56\n2 1 40 60 14:20 14:16\n"
        assert captured.err == "line 9: expected 3 fields, got 2: '80 bogus'\n1 malformed line(s) skipped\n"
        records = tmp_path / "records.txt"
        records.write_bytes(("# page\r2\n" + record(0) + "\ngarbage\n").encode())
        assert run(["assemble", "--input", str(records)]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1
        assert captured.err.splitlines()[0] == "record line 3: expected at least 9 fields, got 1"

    @pytest.mark.parametrize("separator", ["\x0c", "\r", "\x85", "\u2028"])
    def test_separator_in_a_comment_keeps_content_line_numbers(self, separator, tmp_path):
        path = tmp_path / "input.txt"
        path.write_bytes(f"# a{separator}b\n\n  key = value\n#\nx{separator}y\n".encode())
        assert list(content_lines(read_lines(path))) == [
            (3, "  key = value\n", "key = value"),
            (5, f"x{separator}y\n", f"x{separator}y"),
        ]

    def test_lone_carriage_return_does_not_end_a_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "game.cfg"
        cfg.write_bytes(b"min_appearances = 2\rmax_digits = 3\n")
        windows = tmp_path / "windows.txt"
        windows.write_text("1 1 0 20 15:00 14:56\n", encoding="utf-8")
        records = tmp_path / "records.txt"
        records.write_text(record(1) + "\n", encoding="utf-8")
        assert run(["log", "--windows", str(windows), "--records", str(records), "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config key min_appearances must be an integer (got '2\\rmax_digits = 3')\n"

    def test_lone_carriage_return_does_not_end_a_windows_line(self, tmp_path, capsys):
        windows = tmp_path / "windows.txt"
        windows.write_bytes(b"1 1 0 20 15:00 14:56\r2 1 40 60 14:20 14:16\n")
        records = tmp_path / "records.txt"
        records.write_text(record(1) + "\n", encoding="utf-8")
        assert run(["log", "--windows", str(windows), "--records", str(records)]) == 1
        assert capsys.readouterr().err == (
            "error: line 1: expected 6 window fields, got 12: '1 1 0 20 15:00 14:56\\r2 1 40 60 14:20 14:16'\n"
        )

    def test_crlf_input(self, tmp_path, capsys):
        clock = tmp_path / "clock.txt"
        clock.write_bytes(CLOCK_TEXT.replace("\n", "\r\n").encode())
        assert run(["parse-clock", "--input", str(clock)]) == 0
        assert capsys.readouterr().out == "1 1 0 20 15:00 14:56\n2 1 40 60 14:20 14:16\n"
        records = tmp_path / "records.txt"
        records.write_bytes((record(0) + "\r\n" + record(1) + "\r\n").encode())
        assert run(["assemble", "--input", str(records)]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2
        assert captured.err == ""


class TestUnreachedErrors:
    """Config and evaluate error branches, each with its exact message."""

    @pytest.mark.parametrize("text, message", [
        ("home_team =\n", "GameConfig.home_team must be non-empty text"),
        ("min_appearances = 0\n", "GameConfig.min_appearances >= 1 violated (got 0)"),
        ("game_clock_gap = 0\n", "SegmenterConfig.game_clock_gap must be a positive integer (got 0)"),
        ("strip_width_fraction = 0\n", "GameConfig.strip_width_fraction in (0, 1] violated (got 0.0)"),
    ])
    def test_a_bad_config_value(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "game.cfg"
        cfg.write_text(text, encoding="utf-8")
        clock = tmp_path / "clock.txt"
        clock.write_text(CLOCK_TEXT, encoding="utf-8")
        assert run(["parse-clock", "--input", str(clock), "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_evaluate_shows_any_other_warning_as_python_does(self, tmp_path, capsys, monkeypatch):
        score = playlog.cli.evaluate_records

        def warn_then_score(*args, **kwargs):
            warnings.warn_explicit("not a metric warning", UserWarning, "scorer.py", 7)
            return score(*args, **kwargs)

        shown = []
        monkeypatch.setattr(playlog.cli, "evaluate_records", warn_then_score)
        monkeypatch.setattr(warnings, "showwarning", lambda *args: shown.append(args))
        records = tmp_path / "records.txt"
        records.write_text(record(0, x=0, y=0, w=50, h=50) + "\n", encoding="utf-8")
        assert run(["evaluate", "--preds", str(records), "--truth", str(records)]) == 0
        captured = capsys.readouterr()
        assert "AP_{0.5:0.95} 1.000000\n" in captured.out
        assert [(str(message), *rest) for message, *rest in shown] == [
            ("not a metric warning", UserWarning, "scorer.py", 7)
        ]
        # the metric warnings still come out as plain lines of their own
        assert captured.err == (
            "warning: AP with num_gt = 0 pinned to 0\nwarning: AR over an empty size bucket pinned to 0\n"
        )

    def test_any_other_exception_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(playlog.cli, "evaluate_records", fail)
        records = tmp_path / "records.txt"
        records.write_text(record(0, x=0, y=0, w=50, h=50) + "\n", encoding="utf-8")
        assert run(["evaluate", "--preds", str(records), "--truth", str(records)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError('boom')\n"

"""Command line behavior: exit codes, diagnostics, and stage chaining."""

import os
import random
import tempfile
import tracemalloc

import pytest
from oracles import ref_evaluate, ref_greedy_match

import playlog.gamelog
from playlog import (
    BoundingBox,
    DigitDetection,
    PixelImage,
    PlayerDetection,
    format_config,
    parse_config_text,
    read_image,
    serialize_detection,
    write_image,
)
from playlog.cli import run
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
        assert capsys.readouterr().err == "error: PlayerDetection.number in 0..99 violated (got 123)\n"


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

    def frames_of_records(self, frames, jitter, score):
        return "".join(
            record(f, x=x + jitter, w=w, h=h, score=score - 0.1 * i) + "\n"
            for f in frames
            for i, (x, w, h) in enumerate(self.TRUTH_BOXES)
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
        keys = {
            "AP_{0.5:0.95}": "ap_range", "AP_{0.50}": "ap_50", "AP_{0.75}": "ap_75",
            "AP_small": "ap_small", "AP_large": "ap_large",
            "AR_small": "ar_small", "AR_large": "ar_large",
        }
        assert set(rows) == set(keys)
        for name, key in keys.items():
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
        counts = [[0] * 10 for _ in range(10)]
        notes = []
        below_floor_pairs = 0
        for f in sorted(gts):
            for i, g in enumerate(ref_greedy_match(scored[f], gts[f], 0.50)):
                if g is None:
                    continue
                below_floor_pairs += g == 0
                true, predicted = str(truth_rows[f][g][1]), str(pred_rows[f][i][2])
                if len(true) != len(predicted):
                    notes.append(f"frame {f}: digit counts differ ({true} vs {predicted}), pair skipped")
                    continue
                for t, p in zip(true, predicted):
                    counts[int(t)][int(p)] += 1
        assert below_floor_pairs == 6
        top = max(sum(row) for row in counts)
        assert captured.out.split("confusion_counts\n")[1] == (
            "".join(" ".join(str(v) for v in row) + "\n" for row in counts)
            + "confusion_normalized\n"
            + "".join(" ".join("%.4f" % (v / top) for v in row) + "\n" for row in counts)
        )
        assert captured.err == "".join(note + "\n" for note in notes)

        expected = ref_evaluate(scored, gts)
        rows = dict(line.split() for line in captured.out.split("confusion_counts\n")[0].splitlines())
        for name, key in (("AP_{0.5:0.95}", "ap_range"), ("AP_{0.50}", "ap_50"), ("AP_{0.75}", "ap_75"),
                          ("AP_small", "ap_small"), ("AP_large", "ap_large"),
                          ("AR_small", "ar_small"), ("AR_large", "ar_large")):
            assert float(rows[name]) == pytest.approx(expected[key], abs=1e-6), name

    def test_match_iou_flag_is_gone(self, tmp_path, capsys):
        truth = tmp_path / "truth.txt"
        truth.write_text(self.frames_of_records((0,), 0, 1.0), encoding="utf-8")
        argv = ["evaluate", "--preds", str(truth), "--truth", str(truth), "--confusion"]
        assert run(argv + ["--match-iou", "0.5"]) == 1
        assert "unrecognized arguments: --match-iou" in capsys.readouterr().err

    def test_prediction_frame_absent_from_truth_is_an_error(self, tmp_path, capsys):
        truth = tmp_path / "truth.txt"
        preds = tmp_path / "preds.txt"
        truth.write_text(self.frames_of_records((0, 1), 0, 1.0), encoding="utf-8")
        preds.write_text(self.frames_of_records((0, 1, 7), 3, 0.9), encoding="utf-8")
        assert run(["evaluate", "--preds", str(preds), "--truth", str(truth)]) == 1
        assert "orphan frames: [7]" in capsys.readouterr().err


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
    def staged_and_chained(game_dir, tmp_path, config, fmt="delimited"):
        """The log from parse-clock -> assemble -> log and from pipeline, as bytes."""
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
                    "--format", fmt, "--output", str(staged)] + cfg) == 0
        assert run(["pipeline", "--clock", str(game_dir / "clock.txt"),
                    "--records", str(game_dir / "detections.txt"),
                    "--format", fmt, "--output", str(chained)] + cfg) == 0
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
        calls = {"parse": 0}
        parse = playlog.gamelog.parse_detection

        def counting_parse(*args, **kwargs):
            calls["parse"] += 1
            return parse(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("pipeline wrote an intermediate without --workdir")

        monkeypatch.setattr(playlog.gamelog, "parse_detection", counting_parse)
        monkeypatch.setattr(playlog.gamelog, "serialize_detection", forbidden)
        monkeypatch.setattr(tempfile, "mkdtemp", forbidden)
        out = tmp_path / "log.csv"
        assert run(
            ["pipeline", "--config", str(game_dir / "game.cfg"),
             "--clock", str(game_dir / "clock.txt"),
             "--records", str(game_dir / "detections.txt"),
             "--output", str(out)]
        ) == 0
        lines = (game_dir / "detections.txt").read_text(encoding="utf-8").splitlines()
        assert calls["parse"] == sum(1 for line in lines if line.strip()) > 0
        assert out.read_bytes() == (game_dir / "truth_log.csv").read_bytes()


class TestStreaming:
    """`pipeline`, `log`, `assemble` and `classify-team` read records one line at a time."""

    @staticmethod
    def pipeline(game_dir, clock, records, tmp_path, *extra):
        out = tmp_path / "log.csv"
        code = run(["pipeline", "--config", str(game_dir / "game.cfg"), "--clock", str(clock),
                    "--records", str(records), "--output", str(out), *extra])
        return code, out

    @pytest.mark.parametrize("command", ["pipeline", "assemble"])
    def test_memory_is_flat_in_the_record_count(self, command, tmp_path):
        # a game four times longer may not raise the peak by the records it holds or writes
        def one_run(game_dir):
            records = game_dir / "detections.txt"
            if command == "pipeline":
                return self.pipeline(game_dir, game_dir / "clock.txt", records, tmp_path)
            out = tmp_path / "assembled.txt"
            return run(["assemble", "--config", str(game_dir / "game.cfg"), "--input", str(records),
                        "--output", str(out)]), out

        games, lines, peaks = [], [], []
        for plays in (2, 8):
            game_dir = tmp_path / f"game{plays}"
            assert run(["synth", "--seed", "5", "--output", str(game_dir), "--quarters", "1",
                        "--plays-per-quarter", str(plays), "--fps", "10"]) == 0
            games.append(game_dir)
        one_run(games[0])  # warm-up
        for game_dir in games:
            records = game_dir / "detections.txt"
            tracemalloc.start()
            try:
                code, out = one_run(game_dir)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
            lines.append(len(records.read_text(encoding="utf-8").splitlines()))
            if command == "pipeline":
                assert out.read_bytes() == (game_dir / "truth_log.csv").read_bytes()
            else:
                assert len(out.read_text(encoding="utf-8").splitlines()) == lines[-1]
        assert lines == [1820, 7150]
        per_record = (peaks[1] - peaks[0]) / (lines[1] - lines[0])
        assert per_record < 100, f"peak grew {per_record:.0f} bytes per record line"

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
        error = "error: PlayerDetection.number in 0..99 violated (got 123)\n"
        if command == "pipeline":
            argv = ["pipeline", "--clock", str(clock), "--records", str(records), "--workdir", str(workdir)]
        elif command == "assemble":
            argv = ["assemble", "--input", str(records)]
        else:
            crops = tmp_path / "crops"
            crops.mkdir()
            (crops / "0_0.ppm").write_bytes(b"XX\n1 1\n255\n\0\0\0")
            argv = ["classify-team", "--input", str(records), "--crops", str(crops)]
            error = "error: unsupported image magic b'XX' (want P5 or P6)\n"
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

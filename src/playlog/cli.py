"""Command line front end.

Subcommands cover each pipeline stage plus a chained run:

    parse-clock    clock text -> play windows
    assemble       detection records -> records with jersey numbers
    classify-team  records + crop images -> records with team labels
    log            windows + records -> game log
    evaluate       records vs ground truth -> metrics report
    preprocess     image -> OCR-ready image
    augment        image -> blurred and scaled copies
    synth          seeded synthetic game files
    pipeline       parse-clock + assemble + log, chained in memory

Record files are read one line at a time.  `pipeline`, `log`, `assemble`
and `classify-team` stream them: each record is parsed, worked on and
handed on as it is read, so diagnostics come out in line order and the
parsed records are never held together.  `pipeline` and `log` fold each
record into a per-frame table of the side's jersey numbers, and
`assemble` and `classify-team` write each record line as it is made, so
the memory of all four stays flat in the record count.

Exit codes: 0 success, 1 input error, 2 internal error.  Diagnostics for
skipped lines go to stderr; outputs go to --output or stdout.  Every text
file is written through `_output`: an --output file (and each file that
`pipeline --workdir` or `synth` writes) is replaced only when its run
succeeds, while stdout streams, so a failed `assemble` or `classify-team`
run may leave the record lines it already wrote there.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from .clock import (
    SegmenterConfig,
    format_play_windows,
    parse_clock_stream,
    parse_play_windows,
    segment_plays,
)
from .config import format_config, load_config
from .core import PlayerDetection, PlayWindow
from .gamelog import (
    GameConfig,
    emit_game_log,
    iter_detections,
    load_detections,
    presence_table,
    roster_lines,
    serialize_detection,
    synchronize_presence,
)
from .imageops import (
    binary_threshold,
    gaussian_blur,
    invert,
    pad_to_square,
    read_image,
    scale,
    to_grayscale,
    write_image,
)
from .jersey import AssemblyConfig, assemble_number, suppress_digits
from .matching import match_detections
from .metrics import confusion_matrix, evaluate_detections
from .synth import SynthConfig, generate_game
from .teamcolor import channel_histogram, classify_team, extract_strip
from .textfile import read_lines


CONFUSION_MATCH_IOU = 0.50  # IoU at which `evaluate --confusion` pairs digits

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the documented contract is exit 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


@contextmanager
def _output(path: str | Path | None) -> Iterator[TextIO]:
    """Yield stdout, or ``path.partial``, renamed to ``path`` only if the block succeeds.

    A path that is not a regular file (/dev/null, /dev/stdout, a pipe) is
    written in place; a symlink is followed, so its target is replaced.
    """
    if path is None:
        yield sys.stdout  # looked up per call, so a swapped sys.stdout is honoured
        return
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8") as out:
            yield out
        return
    if path.is_symlink():
        path = path.resolve()
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", encoding="utf-8") as out:
            yield out
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _report_diagnostics(messages: Sequence[str], skipped: int | None = None) -> None:
    # `skipped` defaults to one line per message; notes on kept lines are not skipped
    for m in messages:
        print(m, file=sys.stderr)
    if skipped is None:
        skipped = len(messages)
    if skipped:
        print(f"{skipped} malformed line(s) skipped", file=sys.stderr)


# Stage functions are shared by the per-stage subcommands and `pipeline`.
# The stages whose output feeds another stage (parse-clock, assemble)
# return values: their subcommands serialise them, and `pipeline` hands
# them on in memory, so a chained run matches the staged subcommands by
# construction.  Records pass between stages as lazy streams; a line
# that the stream skips is added to the caller's ``skipped`` list as
# ``(line number, diagnostic)``.

def _stage_parse_clock(
    input_path: str, segmenter: SegmenterConfig, strict: bool
) -> tuple[list[PlayWindow], tuple[str, ...]]:
    result = parse_clock_stream(read_lines(input_path), strict=strict)
    return segment_plays(result.readings, segmenter), result.diagnostics


def _stage_assemble(
    input_path: str, cfg: AssemblyConfig, strict: bool, skipped: list[tuple[int, str]]
) -> Iterator[PlayerDetection]:
    return (
        d.with_number(assemble_number(suppress_digits(d.digits, cfg), cfg))
        for _, d in iter_detections(read_lines(input_path), skipped, strict)
    )


_TEAM_KEPT = ", team kept"  # ends the note on a record whose crop is missing


def _stage_classify_team(
    input_path: str, crops_dir: str, game_config: GameConfig, strict: bool, messages: list[tuple[int, str]]
) -> Iterator[PlayerDetection]:
    # a missing crop is noted in ``messages`` among the reader's skips, in line order
    crops = Path(crops_dir)
    frame_counters: dict[int, int] = {}
    for line_number, d in iter_detections(read_lines(input_path), messages, strict):
        index = frame_counters.get(d.frame_index, 0)
        frame_counters[d.frame_index] = index + 1
        crop_path = crops / f"{d.frame_index}_{index}.ppm"
        if crop_path.exists():
            strip = extract_strip(
                read_image(crop_path), game_config.strip_height_fraction, game_config.strip_width_fraction
            )
            label = classify_team(channel_histogram(strip), game_config.home_profile, game_config.away_profile)
            yield d.with_team(label)
        else:
            messages.append((line_number, f"record line {line_number}: no crop {crop_path.name}{_TEAM_KEPT}"))
            yield d


def _stage_log(
    game_config: GameConfig, windows: Sequence[PlayWindow], detections: Iterable[PlayerDetection],
    side: str, fmt: str,
) -> str:
    # each record is folded into the presence table and dropped as it streams past
    roster = game_config.home_roster if side == "home" else game_config.away_roster
    entries = synchronize_presence(
        windows,
        presence_table(detections, side),
        roster,
        home_team=game_config.home_team,
        away_team=game_config.away_team,
        min_appearances=game_config.min_appearances,
    )
    return emit_game_log(entries, fmt)


def _written(detections: Iterable[PlayerDetection], out: TextIO) -> Iterator[PlayerDetection]:
    """Pass records through, writing each one's record line to ``out`` on the way."""
    for d in detections:
        out.write(serialize_detection(d) + "\n")
        yield d


def _matrix_rows(matrix, fmt: str) -> str:
    return "".join(" ".join(fmt % v for v in row) + "\n" for row in matrix)


def _stage_evaluate(
    preds_path: str, truth_path: str, include_confusion: bool, strict: bool
) -> tuple[str, tuple[str, ...], int]:
    preds_loaded = load_detections(read_lines(preds_path), strict=strict)
    truth_loaded = load_detections(read_lines(truth_path), strict=strict)
    preds_map = {f: [(d.box, d.score) for d in ds] for f, ds in preds_loaded.by_frame.items()}
    gts_map = {f: [d.box for d in ds] for f, ds in truth_loaded.by_frame.items()}
    # the record format cannot express an empty frame: a truth frame the
    # detector missed altogether is scored as an empty prediction list
    for f in gts_map:
        preds_map.setdefault(f, [])
    text = evaluate_detections(preds_map, gts_map).to_text()
    diagnostics = list(preds_loaded.diagnostics) + list(truth_loaded.diagnostics)
    skipped = len(diagnostics)
    if include_confusion:
        pairs: list[tuple[int, int]] = []
        for f in sorted(gts_map):
            matches = match_detections(preds_map[f], gts_map[f], CONFUSION_MATCH_IOU)
            for i, g in enumerate(matches):
                if g is None:
                    continue
                predicted = preds_loaded.by_frame[f][i].number
                true = truth_loaded.by_frame[f][g].number
                if predicted is None or true is None:
                    continue
                if len(str(predicted)) != len(str(true)):
                    diagnostics.append(
                        f"frame {f}: digit counts differ ({true} vs {predicted}), pair skipped"
                    )
                    continue
                pairs.extend((int(t), int(p)) for t, p in zip(str(true), str(predicted)))
        cm = confusion_matrix(pairs)
        text += "confusion_counts\n" + _matrix_rows(cm.counts, "%d")
        text += "confusion_normalized\n" + _matrix_rows(cm.normalized, "%.4f")
    return text, tuple(diagnostics), skipped


def _cmd_parse_clock(args: argparse.Namespace) -> int:
    game_config = load_config(args.config)
    windows, diagnostics = _stage_parse_clock(args.input, game_config.segmenter, args.strict)
    _report_diagnostics(diagnostics)
    with _output(args.output) as out:
        out.write(format_play_windows(windows))
    return 0


def _cmd_assemble(args: argparse.Namespace) -> int:
    game_config = load_config(args.config)
    skipped: list[tuple[int, str]] = []
    with _output(args.output) as out:
        for _ in _written(_stage_assemble(args.input, game_config.assembly, args.strict, skipped), out):
            pass
    _report_diagnostics([message for _, message in skipped])
    return 0


def _cmd_classify_team(args: argparse.Namespace) -> int:
    game_config = load_config(args.config)
    messages: list[tuple[int, str]] = []
    with _output(args.output) as out:
        for _ in _written(_stage_classify_team(args.input, args.crops, game_config, args.strict, messages), out):
            pass
    _report_diagnostics([m for _, m in messages], sum(not m.endswith(_TEAM_KEPT) for _, m in messages))
    return 0


def _cmd_log(args: argparse.Namespace) -> int:
    game_config = load_config(args.config)
    windows = parse_play_windows("".join(read_lines(args.windows)))
    skipped: list[tuple[int, str]] = []
    records = (d for _, d in iter_detections(read_lines(args.records), skipped, args.strict))
    text = _stage_log(game_config, windows, records, args.side, args.format)
    _report_diagnostics([message for _, message in skipped])
    with _output(args.output) as out:
        out.write(text)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    text, messages, skipped = _stage_evaluate(args.preds, args.truth, args.confusion, args.strict)
    _report_diagnostics(messages, skipped)
    with _output(args.output) as out:
        out.write(text)
    return 0


def _cmd_preprocess(args: argparse.Namespace) -> int:
    image = read_image(args.input)
    ocr_ready = invert(binary_threshold(to_grayscale(image), args.threshold))
    if args.pad:
        ocr_ready = pad_to_square(ocr_ready)
    write_image(ocr_ready, args.output)
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    image = read_image(args.input)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    suffix = ".pgm" if image.channels == 1 else ".ppm"
    written = []
    blur_path = out_dir / f"{stem}_blur{suffix}"
    write_image(gaussian_blur(image, args.sigma), blur_path)
    written.append(blur_path)
    try:
        factors = [float(f) for f in args.factors.split(",") if f.strip() != ""]
    except ValueError:
        raise _UsageError(f"--factors must be comma-separated numbers (got {args.factors!r})") from None
    for factor in factors:
        path = out_dir / f"{stem}_x{factor:g}{suffix}"
        write_image(scale(image, factor), path)
        written.append(path)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = SynthConfig(
        seed=args.seed,
        quarters=args.quarters,
        plays_per_quarter=args.plays_per_quarter,
        frames_per_second=args.fps,
        players_per_play=(args.players_min, args.players_max),
        ocr_corruption_rate=args.ocr_corruption,
        digit_error_rate=args.digit_error,
        detection_drop_rate=args.detection_drop,
    )
    game = generate_game(cfg)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {
        "clock.txt": "".join(line + "\n" for line in game.clock_lines),
        "detections.txt": "".join(line + "\n" for line in game.detection_lines),
        "roster_home.txt": roster_lines(game.roster),
        "truth_log.csv": emit_game_log(game.truth, "delimited"),
        "truth_log.jsonl": emit_game_log(game.truth, "structured"),
        "game.cfg": format_config(
            {
                "home_team": game.home_team,
                "away_team": game.away_team,
                "home_roster": "roster_home.txt",
            }
        ),
    }
    for name, text in files.items():
        with _output(out_dir / name) as out:
            out.write(text)
    print(f"wrote {len(files)} files to {out_dir}", file=sys.stderr)
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    game_config = load_config(args.config)
    workdir = None
    if args.workdir is not None:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)

    windows, diagnostics = _stage_parse_clock(args.clock, game_config.segmenter, args.strict)
    _report_diagnostics(diagnostics)
    if workdir is not None:
        with _output(workdir / "windows.txt") as out:
            out.write(format_play_windows(windows))

    skipped: list[tuple[int, str]] = []
    detections = _stage_assemble(args.records, game_config.assembly, args.strict, skipped)
    if workdir is None:
        text = _stage_log(game_config, windows, detections, args.side, args.format)
    else:
        with _output(workdir / "records_assembled.txt") as out:
            text = _stage_log(game_config, windows, _written(detections, out), args.side, args.format)
    _report_diagnostics([message for _, message in skipped])
    with _output(args.output) as out:
        out.write(text)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="playlog", description="Broadcast football game-log pipeline.")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def common(p: argparse.ArgumentParser, config: bool = True) -> None:
        if config:
            p.add_argument("--config", help="run configuration file (key = value lines)")
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--strict", action="store_true", help="malformed input lines are fatal")

    p = sub.add_parser("parse-clock", help="clock text to play windows")
    p.add_argument("--input", required=True, help="clock text file: 'frame mm:ss play' per line")
    common(p)
    p.set_defaults(func=_cmd_parse_clock)

    p = sub.add_parser("assemble", help="resolve jersey numbers on detection records")
    p.add_argument("--input", required=True, help="detection records file")
    common(p)
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("classify-team", help="label records home/away from crop colors")
    p.add_argument("--input", required=True, help="detection records file")
    p.add_argument("--crops", required=True, help="directory of <frame>_<i>.ppm player crops")
    common(p)
    p.set_defaults(func=_cmd_classify_team)

    p = sub.add_parser("log", help="build the game log from windows + records")
    p.add_argument("--windows", required=True, help="play windows file (parse-clock output)")
    p.add_argument("--records", required=True, help="detection records with numbers and teams")
    common(p)
    p.add_argument("--format", choices=("delimited", "structured"), default="delimited")
    p.add_argument("--side", choices=("home", "away"), default="home", help="which team to aggregate")
    p.set_defaults(func=_cmd_log)

    p = sub.add_parser("evaluate", help="score detection records against ground truth")
    p.add_argument("--preds", required=True, help="predicted detection records")
    p.add_argument("--truth", required=True, help="ground-truth detection records")
    common(p, config=False)
    p.add_argument("--confusion", action="store_true", help="append the digit confusion matrix")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("preprocess", help="grayscale + threshold + invert for OCR")
    p.add_argument("--input", required=True, help="PPM/PGM image")
    p.add_argument("--output", required=True, help="output PGM path")
    p.add_argument("--threshold", type=int, default=128, help="binarization threshold 0..255")
    p.add_argument("--pad", action="store_true", help="zero-pad to a square")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("augment", help="blurred and scaled copies of an image")
    p.add_argument("--input", required=True, help="PPM/PGM image")
    p.add_argument("--output-dir", required=True, dest="output_dir", help="directory for the copies")
    p.add_argument("--sigma", type=float, default=1.0, help="Gaussian blur sigma")
    p.add_argument("--factors", default="0.5,2.0", help="comma-separated scale factors")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("synth", help="generate a seeded synthetic game")
    p.add_argument("--seed", type=int, required=True, help="generator seed (required)")
    p.add_argument("--output", required=True, help="directory for the generated files")
    p.add_argument("--quarters", type=int, default=2)
    p.add_argument("--plays-per-quarter", type=int, dest="plays_per_quarter", default=3)
    p.add_argument("--fps", type=int, default=30, help="frames per game-clock second")
    p.add_argument("--players-min", type=int, dest="players_min", default=6)
    p.add_argument("--players-max", type=int, dest="players_max", default=11)
    p.add_argument("--ocr-corruption", type=float, dest="ocr_corruption", default=0.0)
    p.add_argument("--digit-error", type=float, dest="digit_error", default=0.0)
    p.add_argument("--detection-drop", type=float, dest="detection_drop", default=0.0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pipeline", help="parse-clock + assemble + log, chained")
    p.add_argument("--clock", required=True, help="clock text file")
    p.add_argument("--records", required=True, help="detection records file")
    common(p)
    p.add_argument("--format", choices=("delimited", "structured"), default="delimited")
    p.add_argument("--side", choices=("home", "away"), default="home")
    p.add_argument("--workdir", help="also write the intermediate files here (default: none)")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and run one subcommand; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr, end="")
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

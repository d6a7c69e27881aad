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

Record files are streamed, so the parsed records are never held together
and diagnostics come out in line order.  All record commands share one
reader (`gamelog.read_records`): blocks of about 1k lines, the lines of
each field count parsed into arrays by one `np.loadtxt` call, checked and
(`assemble`, `pipeline`) given jersey numbers there; a line the arrays
reject takes the scalar path (parse, assemble), which alone reports it.
`log` and `pipeline` fold the blocks into a per-frame table of the side's
jersey numbers, `assemble` and `pipeline --workdir` write their record
lines, `classify-team` labels the crops of each block together
(`teamcolor.StripBatch`) and writes each line with its crop's team, and
`evaluate` hands the blocks of both files to
`metrics.evaluate_records`, which keeps only flat columns.  So the memory
of all of them stays flat in the record count.

Exit codes: 0 success, 1 input error, 2 internal error.  Diagnostics for
skipped lines go to stderr; outputs go to --output or stdout.  Every text
file is written through `_output`: an --output file (and each file that
`pipeline --workdir` or `synth` writes) is replaced only when its run
succeeds, while stdout streams, so a failed `assemble` or `classify-team`
run may leave the record lines it already wrote there.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import warnings
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from contextlib import nullcontext
from typing import Iterator, Sequence, TextIO

from .clock import (
    SegmenterConfig,
    format_play_windows,
    parse_clock_stream,
    parse_play_windows,
    segment_plays,
)
from .config import GameConfig, format_config, load_config
from .core import PlayWindow
from .gamelog import (
    emit_game_log,
    read_records,
    roster_lines,
    synchronize_presence,
    with_team,
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
from .jersey import AssemblyConfig
from .metrics import CONFUSION_MATCH_IOU, DegenerateMetricWarning, evaluate_records
from .synth import SynthConfig, generate_game
from .teamcolor import StripBatch
from .textfile import number_token, read_lines


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the documented contract is exit 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _number_option(convert):
    """An argparse ``type`` that reads a number token with ``convert`` (int or float).

    A token that breaks the number-token rule is a usage error naming it;
    any other bad value keeps argparse's "invalid int value" message.
    """
    def option(text: str):
        try:
            token = number_token(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return convert(token)

    option.__name__ = convert.__name__
    return option


_INT = _number_option(int)
_FLOAT = _number_option(float)


def _factors(text: str) -> list[float]:
    # the --factors type: comma-separated number tokens, empty items skipped
    try:
        return [_FLOAT(f) for f in text.split(",") if f.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated numbers (got {text!r})") from None


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


# The clock, records and log stages are shared by their subcommands and
# `pipeline`; `_stage_classify_team` and `_stage_evaluate` each serve one
# command.  `pipeline` runs the stages of `parse-clock`, `assemble` and
# `log` in one pass: the clock stage returns windows, and the records stage
# writes the record lines and folds the presence table as its caller asks,
# so a chained run matches the staged subcommands by construction.  A line
# that the reader skips is added to the caller's ``skipped`` list as
# ``(line number, diagnostic)``.

def _stage_parse_clock(
    input_path: str, segmenter: SegmenterConfig, strict: bool
) -> tuple[list[PlayWindow], tuple[str, ...]]:
    result = parse_clock_stream(read_lines(input_path), strict=strict)
    return segment_plays(result.readings, segmenter), result.diagnostics


def _stage_records(
    input_path: str, skipped: list[tuple[int, str]], strict: bool, assembly: AssemblyConfig | None = None,
    side: str | None = None, out: TextIO | None = None,
) -> dict[int, int]:
    # the records, numbered by ``assembly`` if set, written to ``out`` if set; gives ``side``'s presence table
    presence: dict[int, int] = {}
    for block in read_records(read_lines(input_path), skipped, strict, assembly):
        if out is not None:
            out.writelines(line + "\n" for line in block.lines())
        if side is not None:
            block.fold_presence(presence, side)
        del block  # a block kept while the next is read would raise the peak memory by a block
    return presence


# the errors that Path.exists() reads as a missing file; any other, an unreadable directory, say, is raised
_MISSING = {errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP}


def _stage_classify_team(
    input_path: str, crops_dir: str, game_config: GameConfig, strict: bool, out: TextIO
) -> tuple[list[str], int]:
    # writes each record line to ``out`` with the team its crop shows (kept without a crop);
    # gives the reader's skips and a note per missing crop in line order, and the count of skips
    skipped: list[tuple[int, str]] = []
    notes: list[tuple[int, str]] = []
    crops = os.fspath(Path(crops_dir, "_"))[:-1]  # what Path puts before a name in crops_dir ("" for ".")
    strips = StripBatch(
        game_config.home_profile, game_config.away_profile,
        game_config.strip_height_fraction, game_config.strip_width_fraction,
    )
    frame_counters: dict[int, int] = {}
    for block in read_records(read_lines(input_path), skipped, strict):
        pending: list[tuple[str, bool]] = []  # the block's lines so far, each with whether its crop was added
        try:
            for line_number, frame, line in zip(block.line.tolist(), block.frame.tolist(), block.lines()):
                index = frame_counters.get(frame, 0)
                frame_counters[frame] = index + 1
                crop_name = f"{frame}_{index}.ppm"
                try:  # a str, as Path(crops_dir, crop_name) spells it: a Path per record interns its parts
                    strips.add(read_image(crops + crop_name))
                except OSError as exc:
                    if exc.errno not in _MISSING:
                        raise
                    notes.append((line_number, f"record line {line_number}: no crop {crop_name}, team kept"))
                    pending.append((line, False))
                else:
                    pending.append((line, True))
        finally:
            # the block's labels in one call; on an error, the lines before it are still written
            labels = iter(strips.labels())
            for line, labelled in pending:
                out.write((with_team(line, next(labels)) if labelled else line) + "\n")
        del block, pending  # a block kept while the next is read would raise the peak memory by a block
    # the reader adds a block's skips before its records come here; a stable sort puts all in line order
    return [message for _, message in sorted(skipped + notes, key=itemgetter(0))], len(skipped)


def _stage_log(
    game_config: GameConfig, windows: Sequence[PlayWindow], presence: dict[int, int], side: str, fmt: str
) -> str:
    # ``presence``: the side's presence table, folded from the records as they streamed past
    roster = game_config.home_roster if side == "home" else game_config.away_roster
    entries = synchronize_presence(
        windows,
        presence,
        roster,
        home_team=game_config.home_team,
        away_team=game_config.away_team,
        min_appearances=game_config.min_appearances,
    )
    return emit_game_log(entries, fmt, side=side)


def _stage_evaluate(
    preds_path: str, truth_path: str, include_confusion: bool, strict: bool
) -> tuple[str, tuple[str, ...], int]:
    skipped: list[tuple[int, str]] = []
    report, cm, notes = evaluate_records(
        read_records(read_lines(preds_path), skipped, strict),
        read_records(read_lines(truth_path), skipped, strict),
        pairing_iou=CONFUSION_MATCH_IOU if include_confusion else None,
    )
    text = report.to_text() + ("" if cm is None else cm.to_text())
    return text, tuple(message for _, message in skipped) + tuple(notes), len(skipped)


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
        _stage_records(args.input, skipped, args.strict, game_config.assembly, out=out)
    _report_diagnostics([message for _, message in skipped])
    return 0


def _cmd_classify_team(args: argparse.Namespace) -> int:
    game_config = load_config(args.config)
    with _output(args.output) as out:
        messages, skipped = _stage_classify_team(args.input, args.crops, game_config, args.strict, out)
    _report_diagnostics(messages, skipped)
    return 0


def _cmd_log(args: argparse.Namespace) -> int:
    game_config = load_config(args.config)
    windows = parse_play_windows("".join(read_lines(args.windows)))
    skipped: list[tuple[int, str]] = []
    presence = _stage_records(args.records, skipped, args.strict, side=args.side)
    text = _stage_log(game_config, windows, presence, args.side, args.format)
    _report_diagnostics([message for _, message in skipped])
    with _output(args.output) as out:
        out.write(text)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    with warnings.catch_warnings(record=True) as caught:
        text, messages, skipped = _stage_evaluate(args.preds, args.truth, args.confusion, args.strict)
    # a pinned-to-0 metric is one plain line per distinct message, without
    # the source location that Python's warning display adds
    for message in dict.fromkeys(str(w.message) for w in caught if issubclass(w.category, DegenerateMetricWarning)):
        print(f"warning: {message}", file=sys.stderr)
    for w in caught:
        if not issubclass(w.category, DegenerateMetricWarning):
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
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
    for factor in args.factors:
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
    with nullcontext() if workdir is None else _output(workdir / "records_assembled.txt") as out:
        presence = _stage_records(args.records, skipped, args.strict, game_config.assembly, args.side, out)
    text = _stage_log(game_config, windows, presence, args.side, args.format)
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
    p.add_argument("--threshold", type=_INT, default=128, help="binarization threshold 0..255")
    p.add_argument("--pad", action="store_true", help="zero-pad to a square")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("augment", help="blurred and scaled copies of an image")
    p.add_argument("--input", required=True, help="PPM/PGM image")
    p.add_argument("--output-dir", required=True, dest="output_dir", help="directory for the copies")
    p.add_argument("--sigma", type=_FLOAT, default=1.0, help="Gaussian blur sigma")
    p.add_argument("--factors", type=_factors, default="0.5,2.0", help="comma-separated scale factors")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("synth", help="generate a seeded synthetic game")
    p.add_argument("--seed", type=_INT, required=True, help="generator seed (required)")
    p.add_argument("--output", required=True, help="directory for the generated files")
    p.add_argument("--quarters", type=_INT, default=SynthConfig.quarters)
    p.add_argument("--plays-per-quarter", type=_INT, dest="plays_per_quarter", default=SynthConfig.plays_per_quarter)
    p.add_argument("--fps", type=_INT, default=SynthConfig.frames_per_second, help="frames per game-clock second")
    p.add_argument("--players-min", type=_INT, dest="players_min", default=SynthConfig.players_per_play[0])
    p.add_argument("--players-max", type=_INT, dest="players_max", default=SynthConfig.players_per_play[1])
    p.add_argument("--ocr-corruption", type=_FLOAT, dest="ocr_corruption", default=SynthConfig.ocr_corruption_rate)
    p.add_argument("--digit-error", type=_FLOAT, dest="digit_error", default=SynthConfig.digit_error_rate)
    p.add_argument("--detection-drop", type=_FLOAT, dest="detection_drop", default=SynthConfig.detection_drop_rate)
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

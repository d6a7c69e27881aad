"""Workload inputs, the playlog commands each workload runs, and their checks.

Every input file is a function of the workload name and the seed alone:
games come from ``playlog.synth.generate_game`` (through the ``synth``
subcommand, run in-process), and any post-processing below draws from its
own ``random.Random`` seeded from the same seed.  The program under test
only ever sees the files written here.

Each workload is a list of operations.  An operation is one ``playlog``
command plus a check of the file it writes.  ``main`` operations are the
timed iteration; ``probes`` reproduce known defects and run after every
iteration, outside the timed span; ``setup`` is the same command line as
``main`` on comment-only inputs.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# ROADMAP baseline game shape with mild corruption: records ~39k, clock
# lines ~3.8k at 4 x 4 plays and 30 fps.
GAME_SHAPE = {"quarters": 4, "plays": 4, "fps": 30}
SMALL_GAME_SHAPE = {"quarters": 1, "plays": 2, "fps": 10}
# source game of the detector-eval and team-color clips: at least 6.7k records
CLIP_GAME_SHAPE = {"quarters": 1, "plays": 8, "fps": 30}
PROBE_GAME_SHAPE = {"quarters": 1, "plays": 2, "fps": 30}
GAME_NOISE = {"ocr": 0.02, "digit": 0.05, "drop": 0.05}
NO_NOISE = {"ocr": 0.0, "digit": 0.0, "drop": 0.0}

# Records in the evaluation and team-color clips (whole frames are kept,
# so the count overshoots by less than one frame).
EVAL_RECORDS = 5000
TEAM_RECORDS = 4000
SMALL_CLIP_RECORDS = 120

# Report row names of `playlog evaluate`, keyed by the oracle's names.
REPORT_ROWS = (
    ("AP_{0.5:0.95}", "ap_range"),
    ("AP_{0.50}", "ap_50"),
    ("AP_{0.75}", "ap_75"),
    ("AP_small", "ap_small"),
    ("AP_large", "ap_large"),
    ("AR_small", "ar_small"),
    ("AR_large", "ar_large"),
)
REPORT_TOLERANCE = 1e-6
MATCH_IOU = 0.50  # `evaluate --match-iou` default, used for confusion pairs

Check = Callable[[Path], "str | None"]


@dataclass
class Op:
    """One playlog command; ``check`` returns None when its output is right."""

    name: str
    argv: list[str]
    output: Path
    check: Check


@dataclass
class Workload:
    records: int
    iteration: Callable[[int], list[Op]]
    setup: list[Op]
    probes: list[Op] = field(default_factory=list)
    synth_s: float = 0.0


# -- generic checks ---------------------------------------------------------

def _exit_only(_path: Path) -> str | None:
    return None


def _equals_file(expected: Path) -> Check:
    def check(path: Path) -> str | None:
        if path.read_bytes() == expected.read_bytes():
            return None
        return f"{path.name} differs from {expected.name}"
    return check


# -- synth ------------------------------------------------------------------

def synthesize(out_dir: Path, seed: int, shape: dict, noise: dict) -> float:
    """Write one synth game with ``playlog synth``; returns generate_game seconds."""
    from playlog import cli

    original = cli.generate_game
    elapsed = [0.0]

    def timed(cfg):
        t0 = time.perf_counter()
        try:
            return original(cfg)
        finally:
            elapsed[0] += time.perf_counter() - t0

    argv = [
        "synth", "--seed", str(seed), "--output", str(out_dir),
        "--quarters", str(shape["quarters"]),
        "--plays-per-quarter", str(shape["plays"]),
        "--fps", str(shape["fps"]),
        "--ocr-corruption", str(noise["ocr"]),
        "--digit-error", str(noise["digit"]),
        "--detection-drop", str(noise["drop"]),
    ]
    cli.generate_game = timed
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
    finally:
        cli.generate_game = original
    if code != 0:
        raise RuntimeError(f"playlog synth exited {code} for seed {seed}")
    return elapsed[0]


def _write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _empty(path: Path) -> Path:
    path.write_text("# comment-only input\n", encoding="utf-8")
    return path


def _data_lines(path: Path) -> list[str]:
    return [
        line for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]


def _clip(lines: list[str], target: int) -> list[str]:
    """Leading whole frames of a record stream holding at least ``target`` records."""
    out: list[str] = []
    for line in lines:
        frame = line.split(maxsplit=1)[0]
        if len(out) >= target and frame != out[-1].split(maxsplit=1)[0]:
            break
        out.append(line)
    return out


# -- game-pipeline -----------------------------------------------------------

def _misread_clock(clock_path: Path, seed: int) -> None:
    """Replace the minutes digit of one readable clock line in the first play.

    The new reading still parses (it stays under 15:00), so the line is
    not skipped; it lands in the middle third of the first play.
    """
    rng = random.Random(f"{seed}:misread")
    lines = clock_path.read_text(encoding="utf-8").splitlines()
    first_play = []
    for i, line in enumerate(lines):
        game = line.split()[1]
        if game == "0":
            if first_play:
                break
            continue
        first_play.append(i)
    third = len(first_play) // 3
    i = first_play[rng.randrange(third, 2 * third)]
    frame, game, play = lines[i].split()
    minutes, seconds = game.split(":")
    delta = rng.choice((1, 3))
    lines[i] = f"{frame} {int(minutes) - delta:02d}:{seconds} {play}"
    _write_lines(clock_path, lines)


def _game(workdir: Path, seed: int, shape: dict, noise: dict) -> tuple[Path, float]:
    game = workdir / "game"
    return game, synthesize(game, seed, shape, noise)


def _pipeline_argv(game: Path, clock: Path, records: Path, output: Path, fmt: str) -> list[str]:
    return [
        "pipeline", "--config", str(game / "game.cfg"), "--clock", str(clock),
        "--records", str(records), "--format", fmt, "--output", str(output),
    ]


def build_game_pipeline(workdir: Path, seed: int, small: bool = False) -> Workload:
    game, synth_s = _game(workdir, seed, SMALL_GAME_SHAPE if small else GAME_SHAPE, GAME_NOISE)
    probe = workdir / "probe"
    synth_s += synthesize(probe, seed, PROBE_GAME_SHAPE, NO_NOISE)
    _misread_clock(probe / "clock.txt", seed)
    empty = _empty(workdir / "empty.txt")

    def iteration(k: int) -> list[Op]:
        # both log formats are checked, one per iteration
        fmt, truth = (("delimited", "truth_log.csv"), ("structured", "truth_log.jsonl"))[k % 2]
        out = workdir / f"log-{fmt}.txt"
        return [Op("pipeline", _pipeline_argv(game, game / "clock.txt", game / "detections.txt", out, fmt),
                   out, _equals_file(game / truth))]

    probe_out = workdir / "probe-log.csv"
    return Workload(
        records=len(_data_lines(game / "detections.txt")),
        iteration=iteration,
        setup=[Op("pipeline", _pipeline_argv(game, empty, empty, workdir / "setup-log.csv", "delimited"),
                  workdir / "setup-log.csv", _exit_only)],
        probes=[Op("probe-clock-misread",
                   _pipeline_argv(probe, probe / "clock.txt", probe / "detections.txt", probe_out, "delimited"),
                   probe_out, _equals_file(probe / "truth_log.csv"))],
        synth_s=synth_s,
    )


# -- detector-eval ------------------------------------------------------------

def _numbered(fields: list[str]) -> list[str]:
    """Fill the number field from the record's own digit detections."""
    count = int(fields[8])
    digits = "".join(fields[9 + 6 * i] for i in range(count))
    return fields[:7] + [str(int(digits)) if digits else "-"] + fields[8:]


def _fmt(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def _perturb(truth: list[list[str]], rng: random.Random) -> list[list[str]]:
    """A detector's view of the truth: jittered boxes, fresh scores, ~10%
    of records missed, a few false positives and some misread digits.
    Every frame keeps at least one prediction."""
    by_frame: dict[str, list[list[str]]] = {}
    for fields in truth:
        by_frame.setdefault(fields[0], []).append(fields)
    preds: list[list[str]] = []
    for frame, records in by_frame.items():
        kept: list[list[str]] = []
        for fields in records:
            if rng.random() < 0.10:
                continue
            x, y, w, h = (float(v) for v in fields[1:5])
            jittered = [
                round(max(0.0, x + rng.uniform(-4, 4)), 1),
                round(max(0.0, y + rng.uniform(-4, 4)), 1),
                round(w * rng.uniform(0.9, 1.1), 1),
                round(h * rng.uniform(0.9, 1.1), 1),
            ]
            out = [frame] + [_fmt(v) for v in jittered] + [_fmt(round(rng.uniform(0.05, 1.0), 4))] + fields[6:]
            count = int(out[8])
            if count and rng.random() < 0.05:
                # a misread digit; never a leading zero, so the digit count holds
                i = rng.randrange(count)
                old = int(out[9 + 6 * i])
                lowest = 1 if i == 0 and count > 1 else 0
                out[9 + 6 * i] = str(rng.choice([d for d in range(lowest, 10) if d != old]))
                out[7] = str(int("".join(out[9 + 6 * j] for j in range(count))))
            kept.append(out)
        if not kept:
            kept.append(records[0])
        for _ in range(rng.randint(0, 3)):
            digit = rng.randint(0, 9)
            kept.append([
                frame, str(rng.randint(0, 1190)), str(rng.randint(0, 560)),
                str(rng.randint(34, 88)), str(rng.randint(40, 150)),
                _fmt(round(rng.uniform(0.05, 0.6), 4)), "unknown", str(digit), "1",
                str(digit), "0.98", "4", "12", "10", "14",
            ])
        preds.extend(kept)
    return preds


def _box(fields: list[str]) -> tuple[float, float, float, float]:
    return tuple(float(v) for v in fields[1:5])  # type: ignore[return-value]


def expected_evaluation(preds: list[list[str]], truth: list[list[str]]) -> str:
    """The report and confusion block ``evaluate --confusion`` should print,
    computed with the independent references in ``tests/oracles.py``.
    Frames of the truth with no prediction are scored as empty."""
    import oracles

    gts: dict[int, list[list[str]]] = {}
    for fields in truth:
        gts.setdefault(int(fields[0]), []).append(fields)
    pred_map: dict[int, list[list[str]]] = {f: [] for f in gts}
    for fields in preds:
        pred_map[int(fields[0])].append(fields)

    scored = {f: [(_box(p), float(p[5])) for p in ps] for f, ps in pred_map.items()}
    boxes = {f: [_box(g) for g in gs] for f, gs in gts.items()}
    report = oracles.ref_evaluate(scored, boxes)

    counts = [[0] * 10 for _ in range(10)]
    for f in sorted(gts):
        for i, g in enumerate(oracles.ref_greedy_match(scored[f], boxes[f], MATCH_IOU)):
            if g is None:
                continue
            predicted, true = pred_map[f][i][7], gts[f][g][7]
            if predicted == "-" or true == "-" or len(predicted) != len(true):
                continue
            for t, p in zip(true, predicted):
                counts[int(t)][int(p)] += 1
    support = max(sum(row) for row in counts)
    text = "".join(f"{name} {report[key]!r}\n" for name, key in REPORT_ROWS)
    text += "confusion_counts\n" + "".join(" ".join(str(v) for v in row) + "\n" for row in counts)
    text += "confusion_normalized\n" + "".join(
        " ".join("%.4f" % (v / support if support else 0.0) for v in row) + "\n" for row in counts
    )
    return text


def _evaluation_check(expected: str) -> Check:
    """Report values within REPORT_TOLERANCE, confusion block exact."""
    exp_lines = expected.splitlines()
    head = len(REPORT_ROWS)

    def check(path: Path) -> str | None:
        got = path.read_text(encoding="utf-8").splitlines()
        if len(got) != len(exp_lines):
            return f"{len(got)} report lines, want {len(exp_lines)}"
        for g, e in zip(got[:head], exp_lines[:head]):
            g_name, _, g_val = g.partition(" ")
            e_name, _, e_val = e.partition(" ")
            if g_name != e_name or abs(float(g_val) - float(e_val)) > REPORT_TOLERANCE:
                return f"report row {g!r}, oracle {e!r}"
        if got[head:] != exp_lines[head:]:
            return "confusion block differs from the oracle's"
        return None
    return check


def build_detector_eval(workdir: Path, seed: int, small: bool = False) -> Workload:
    game, synth_s = _game(workdir, seed, SMALL_GAME_SHAPE if small else CLIP_GAME_SHAPE, NO_NOISE)
    lines = _clip(_data_lines(game / "detections.txt"), SMALL_CLIP_RECORDS if small else EVAL_RECORDS)
    truth = [_numbered(line.split()) for line in lines]
    preds = _perturb(truth, random.Random(f"{seed}:eval"))
    truth_path = _write_lines(workdir / "truth.txt", [" ".join(f) for f in truth])
    preds_path = _write_lines(workdir / "preds.txt", [" ".join(f) for f in preds])
    report = workdir / "report.txt"
    op = Op("evaluate", ["evaluate", "--preds", str(preds_path), "--truth", str(truth_path),
                         "--confusion", "--output", str(report)],
            report, _evaluation_check(expected_evaluation(preds, truth)))

    # probe: the first five frames, with every prediction of the third removed
    frames = sorted({int(f[0]) for f in truth})[:5]
    probe_truth = [f for f in truth if int(f[0]) in frames]
    probe_preds = [f for f in preds if int(f[0]) in frames and int(f[0]) != frames[2]]
    pt = _write_lines(workdir / "probe-truth.txt", [" ".join(f) for f in probe_truth])
    pp = _write_lines(workdir / "probe-preds.txt", [" ".join(f) for f in probe_preds])
    probe_report = workdir / "probe-report.txt"

    empty = _empty(workdir / "empty.txt")
    setup_report = workdir / "setup-report.txt"
    return Workload(
        records=len(truth) + len(preds),
        iteration=lambda k: [op],
        setup=[Op("evaluate", ["evaluate", "--preds", str(empty), "--truth", str(empty),
                               "--confusion", "--output", str(setup_report)],
                  setup_report, _exit_only)],
        probes=[Op("probe-empty-frame",
                   ["evaluate", "--preds", str(pp), "--truth", str(pt), "--confusion",
                    "--output", str(probe_report)],
                   probe_report, _evaluation_check(expected_evaluation(probe_preds, probe_truth)))],
        synth_s=synth_s,
    )


# -- team-color ---------------------------------------------------------------

def _paint(team: str, width: int, height: int, rng: random.Random, noise: np.random.Generator) -> bytes:
    """A PPM crop in the home kit (red-dominant) or away kit (grey)."""
    if team == "home":
        base = (rng.uniform(160, 210), rng.uniform(30, 90), rng.uniform(30, 90))
    else:
        grey = rng.uniform(90, 190)
        base = tuple(grey + rng.uniform(-6, 6) for _ in range(3))
    pixels = np.asarray(base) + noise.uniform(-30, 30, size=(height, width, 3))
    samples = np.clip(np.floor(pixels + 0.5), 0, 255).astype(np.uint8)
    return f"P6\n{width} {height}\n255\n".encode("ascii") + samples.tobytes()


def build_team_color(workdir: Path, seed: int, small: bool = False) -> Workload:
    game, synth_s = _game(workdir, seed, SMALL_GAME_SHAPE if small else CLIP_GAME_SHAPE, NO_NOISE)
    lines = _clip(_data_lines(game / "detections.txt"), SMALL_CLIP_RECORDS if small else TEAM_RECORDS)
    crops = workdir / "crops"
    crops.mkdir()
    rng = random.Random(f"{seed}:kits")
    noise = np.random.default_rng(seed)
    inputs: list[str] = []
    expected: list[str] = []
    per_frame: dict[str, int] = {}
    for line in lines:
        fields = line.split()
        frame, team = fields[0], fields[6]
        index = per_frame.get(frame, 0)
        per_frame[frame] = index + 1
        width, height = int(float(fields[3])) // 2, int(float(fields[4])) // 2
        (crops / f"{frame}_{index}.ppm").write_bytes(_paint(team, width, height, rng, noise))
        inputs.append(" ".join(fields[:6] + ["unknown"] + fields[7:]))
        expected.append(" ".join(fields))
    records = _write_lines(workdir / "records.txt", inputs)
    painted = _write_lines(workdir / "painted-teams.txt", expected)
    out = workdir / "teams.txt"
    op = Op("classify-team", ["classify-team", "--input", str(records), "--crops", str(crops),
                              "--output", str(out)],
            out, _equals_file(painted))
    empty = _empty(workdir / "empty.txt")
    empty_crops = workdir / "empty-crops"
    empty_crops.mkdir()
    setup_out = workdir / "setup-teams.txt"
    return Workload(
        records=len(inputs),
        iteration=lambda k: [op],
        setup=[Op("classify-team", ["classify-team", "--input", str(empty), "--crops", str(empty_crops),
                                    "--output", str(setup_out)],
                  setup_out, _exit_only)],
        synth_s=synth_s,
    )


BUILDERS = {
    "game-pipeline": build_game_pipeline,
    "detector-eval": build_detector_eval,
    "team-color": build_team_color,
}
WORKLOADS = tuple(BUILDERS)


def build(name: str, workdir: Path, seed: int, small: bool = False) -> Workload:
    """Write the inputs of one workload under ``workdir`` (created fresh)."""
    workdir.mkdir(parents=True)
    return BUILDERS[name](workdir, seed, small)

"""Robustness fuzz: mutated input files never crash the CLI.

Seeded, mutated copies of a small synthetic game (some with a number token
that int() reads but the number-token rule refuses) go through `pipeline`,
`log` and `evaluate --confusion`.  A damaged input may be rejected (exit 1)
or read around (exit 0), but never ends in an internal error (exit 2) or a
traceback on stderr.  The CLI reads records in blocks checked on arrays;
the reference is the library's scalar chain, which parses one line at a
time (`iter_detections`, `assemble_detection`, `presence_table`,
`synchronize_presence`, `emit_game_log`).  Every `pipeline` run, and with
mutated records also `pipeline --workdir` and its records file, must agree
with it on every byte, and `evaluate` must print the report it prints on
the records that the scalar reader accepts.
"""

import random

import pytest

from playlog import (
    emit_game_log,
    iter_detections,
    load_config,
    parse_clock_stream,
    presence_table,
    segment_plays,
    serialize_detection,
    synchronize_presence,
)
from playlog.cli import run
from playlog.jersey import assemble_detection
from playlog.textfile import read_lines

# an `evaluate` run costs ~30 `pipeline` runs on this game; the counts keep
# the file to a few seconds
PIPELINE_RUNS = 100
LOG_RUNS = 50
EVALUATE_RUNS = 30
MUTATIONS = (
    "swap_chars", "delete_line", "duplicate_line", "swap_lines", "truncate_line",
    "underscore_in_number", "non_ascii_digit",
)
DIGITS = "0123456789"


def mutate(lines, rng):
    """One random mutation of a list of lines, in place."""
    if not lines:
        return
    kind = rng.choice(MUTATIONS)
    i = rng.randrange(len(lines))
    line = lines[i]
    if kind == "swap_chars" and len(line) >= 2:
        a, b = rng.sample(range(len(line)), 2)
        chars = list(line)
        chars[a], chars[b] = chars[b], chars[a]
        lines[i] = "".join(chars)
    elif kind == "delete_line":
        del lines[i]
    elif kind == "duplicate_line":
        lines.insert(i, line)
    elif kind == "swap_lines":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "truncate_line":
        lines[i] = line[: rng.randrange(len(line) + 1)]
    elif kind == "underscore_in_number":
        # a token that int() and float() read but the number-token rule refuses
        spots = [k for k in range(1, len(line)) if line[k - 1] in DIGITS and line[k] in DIGITS]
        if spots:
            k = rng.choice(spots)
            lines[i] = line[:k] + "_" + line[k:]
    elif kind == "non_ascii_digit":
        spots = [k for k, c in enumerate(line) if c in DIGITS]
        if spots:
            k = rng.choice(spots)
            lines[i] = line[:k] + "\u0663" + line[k + 1:]


@pytest.fixture(scope="module")
def game(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "game"
    assert run(["synth", "--seed", "5", "--output", str(out), "--quarters", "1",
                "--plays-per-quarter", "2", "--fps", "3"]) == 0
    stages = out / "stages"
    assert run(["pipeline", "--clock", str(out / "clock.txt"), "--records", str(out / "detections.txt"),
                "--workdir", str(stages), "--output", str(out / "log.csv")]) == 0
    files = {name: (out / name).read_text(encoding="utf-8").split("\n") for name in ("clock.txt", "detections.txt")}
    for name in ("windows.txt", "records_assembled.txt"):
        files[name] = (stages / name).read_text(encoding="utf-8").split("\n")
    return files


def write_mutants(game, tmp_path, rng, names):
    """Copy the game's files, mutating one to three randomly chosen ones of ``names`` in between.

    Gives the paths of the copies and the set of names that were mutated.
    """
    files = {name: list(lines) for name, lines in game.items()}
    mutated = set()
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(names)
        mutate(files[name], rng)
        mutated.add(name)
    paths = {}
    for name, lines in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text("\n".join(lines), encoding="utf-8")
    return paths, mutated


def assert_clean_exit(code, err):
    assert code in (0, 1), err
    assert "Traceback" not in err
    assert "internal error" not in err
    return code


def scalar_pipeline(clock, records):
    """What `pipeline` prints for these files, made by the library's scalar chain:
    stdout, stderr, exit code, and the text of its records file."""
    err, written = [], []

    def report(messages):
        err.extend(messages)
        if messages:
            err.append(f"{len(messages)} malformed line(s) skipped")

    try:
        config = load_config(None)
        clock_result = parse_clock_stream(read_lines(clock))
        windows = segment_plays(clock_result.readings, config.segmenter)
        report(clock_result.diagnostics)
        skipped = []
        detections = [assemble_detection(d, config.assembly) for _, d in iter_detections(read_lines(records), skipped)]
        written = [serialize_detection(d) + "\n" for d in detections]
        entries = synchronize_presence(
            windows, presence_table(detections, "home"), config.home_roster, home_team=config.home_team,
            away_team=config.away_team, min_appearances=config.min_appearances,
        )
        out = emit_game_log(entries, "delimited")
        report([message for _, message in skipped])
    except ValueError as exc:
        err.append(f"error: {exc}")
        return "", "".join(line + "\n" for line in err), 1, None
    return out, "".join(line + "\n" for line in err), 0, "".join(written)


def test_pipeline_survives_mutated_inputs(game, tmp_path, capsys):
    rng = random.Random(20221)
    codes = []
    stages = tmp_path / "stages"
    for _ in range(PIPELINE_RUNS):
        paths, mutated = write_mutants(game, tmp_path, rng, ("clock.txt", "detections.txt"))
        argv = ["pipeline", "--clock", str(paths["clock.txt"]), "--records", str(paths["detections.txt"])]
        out, err, code, written = scalar_pipeline(paths["clock.txt"], paths["detections.txt"])
        assert run(argv) == code
        assert capsys.readouterr() == (out, err)
        if "detections.txt" in mutated:
            # --workdir reads the same blocks and also writes them
            assert run(argv + ["--workdir", str(stages)]) == code
            assert capsys.readouterr() == (out, err)
            if code == 0:
                assert (stages / "records_assembled.txt").read_text(encoding="utf-8") == written
        codes.append(assert_clean_exit(code, err))
    assert 0 in codes  # most damage is read around, not fatal


def test_log_survives_mutated_records(game, tmp_path, capsys):
    rng = random.Random(20223)
    codes = []
    for _ in range(LOG_RUNS):
        paths, _ = write_mutants(game, tmp_path, rng, ("records_assembled.txt",))
        code = run(["log", "--windows", str(paths["windows.txt"]), "--records", str(paths["records_assembled.txt"])])
        codes.append(assert_clean_exit(code, capsys.readouterr().err))
    assert 0 in codes


@pytest.mark.filterwarnings("ignore::playlog.DegenerateMetricWarning")
def test_evaluate_survives_mutated_inputs(game, tmp_path, capsys):
    rng = random.Random(20222)
    truth = tmp_path / "truth.txt"
    truth.write_text("\n".join(game["detections.txt"]), encoding="utf-8")
    accepted = tmp_path / "accepted.txt"
    codes = []
    for _ in range(EVALUATE_RUNS):
        paths, _ = write_mutants(game, tmp_path, rng, ("detections.txt",))
        code = run(["evaluate", "--preds", str(paths["detections.txt"]), "--truth", str(truth),
                    "--confusion"])
        result = capsys.readouterr()
        codes.append(assert_clean_exit(code, result.err))
        # the same report from the records that the scalar reader accepts, written back
        skipped = []
        records = [serialize_detection(d) + "\n" for _, d in iter_detections(read_lines(paths["detections.txt"]), skipped)]
        accepted.write_text("".join(records), encoding="utf-8")
        assert run(["evaluate", "--preds", str(accepted), "--truth", str(truth), "--confusion"]) == code
        assert capsys.readouterr().out == result.out
        assert "".join(message + "\n" for _, message in skipped) in result.err
    assert 0 in codes

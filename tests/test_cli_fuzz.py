"""Robustness fuzz: mutated input files never crash the CLI.

Seeded, mutated copies of a small synthetic game (some with a number token
that int() reads but the number-token rule refuses) go through `pipeline`,
`log` and `evaluate --confusion`.  A damaged input may be rejected (exit 1)
or read around (exit 0), but never ends in an internal error (exit 2) or a
traceback on stderr.  `pipeline` reads records in blocks checked on arrays
and `pipeline --workdir` reads them one by one, so each game with mutated
records also goes through both, which must agree on every byte.
"""

import random

import pytest

from playlog.cli import run

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


def test_pipeline_survives_mutated_inputs(game, tmp_path, capsys):
    rng = random.Random(20221)
    codes = []
    for _ in range(PIPELINE_RUNS):
        paths, mutated = write_mutants(game, tmp_path, rng, ("clock.txt", "detections.txt"))
        argv = ["pipeline", "--clock", str(paths["clock.txt"]), "--records", str(paths["detections.txt"])]
        code = run(argv)
        blocks = capsys.readouterr()
        if "detections.txt" in mutated:
            # the scalar reader of --workdir gives the same log, diagnostics and exit code
            assert run(argv + ["--workdir", str(tmp_path / "stages")]) == code
            scalar = capsys.readouterr()
            assert (scalar.out, scalar.err) == (blocks.out, blocks.err)
        codes.append(assert_clean_exit(code, blocks.err))
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
    codes = []
    for _ in range(EVALUATE_RUNS):
        paths, _ = write_mutants(game, tmp_path, rng, ("detections.txt",))
        code = run(["evaluate", "--preds", str(paths["detections.txt"]), "--truth", str(truth),
                    "--confusion"])
        codes.append(assert_clean_exit(code, capsys.readouterr().err))
    assert 0 in codes

"""Robustness fuzz: mutated input files never crash the CLI.

Seeded, mutated copies of a small synthetic game go through `pipeline` and
`evaluate --confusion`.  A damaged input may be rejected (exit 1) or read
around (exit 0), but never ends in an internal error (exit 2) or a
traceback on stderr.
"""

import random

import pytest

from playlog.cli import run

# an `evaluate` run costs ~30 `pipeline` runs on this game; the counts keep
# the file to a few seconds
PIPELINE_RUNS = 100
EVALUATE_RUNS = 30
MUTATIONS = ("swap_chars", "delete_line", "duplicate_line", "swap_lines", "truncate_line")


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


@pytest.fixture(scope="module")
def game(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "game"
    assert run(["synth", "--seed", "5", "--output", str(out), "--quarters", "1",
                "--plays-per-quarter", "2", "--fps", "3"]) == 0
    return {name: (out / name).read_text(encoding="utf-8").split("\n")
            for name in ("clock.txt", "detections.txt")}


def write_mutants(game, tmp_path, rng, names):
    """Copy the game's files, mutating one to three randomly chosen ones in between."""
    files = {name: list(lines) for name, lines in game.items()}
    for _ in range(rng.randint(1, 3)):
        mutate(files[rng.choice(names)], rng)
    paths = {}
    for name, lines in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text("\n".join(lines), encoding="utf-8")
    return paths


def assert_clean_exit(code, capsys):
    err = capsys.readouterr().err
    assert code in (0, 1), err
    assert "Traceback" not in err
    assert "internal error" not in err
    return code


def test_pipeline_survives_mutated_inputs(game, tmp_path, capsys):
    rng = random.Random(20221)
    codes = []
    for _ in range(PIPELINE_RUNS):
        paths = write_mutants(game, tmp_path, rng, ("clock.txt", "detections.txt"))
        code = run(["pipeline", "--clock", str(paths["clock.txt"]),
                    "--records", str(paths["detections.txt"])])
        codes.append(assert_clean_exit(code, capsys))
    assert 0 in codes  # most damage is read around, not fatal


@pytest.mark.filterwarnings("ignore::playlog.DegenerateMetricWarning")
def test_evaluate_survives_mutated_inputs(game, tmp_path, capsys):
    rng = random.Random(20222)
    truth = tmp_path / "truth.txt"
    truth.write_text("\n".join(game["detections.txt"]), encoding="utf-8")
    codes = []
    for _ in range(EVALUATE_RUNS):
        paths = write_mutants(game, tmp_path, rng, ("detections.txt",))
        code = run(["evaluate", "--preds", str(paths["detections.txt"]), "--truth", str(truth),
                    "--confusion"])
        codes.append(assert_clean_exit(code, capsys))
    assert 0 in codes

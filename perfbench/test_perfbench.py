"""Tests of the benchmark itself (not of playlog).

    python3 -m pytest perfbench -q

They use small inputs: the same workload builders with ``small=True``.
"""

from __future__ import annotations

import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402


def test_self_time_is_duration_minus_direct_children():
    # root [0, 10] > a [1, 4] > c [2, 3];  root > b [5, 9];  d [11, 12] is a second root
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    assert spantrace.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]

    names = ["root", "inner"]
    times = spantrace.layer_times(np.array([0, 1, 1, 1, 0]), parent, start, end, names)
    assert times == {"root": (2, 4.0), "inner": (3, 7.0)}


def test_same_name_nested_spans_are_not_counted_twice():
    # config.build_game_config calls build_profiles: both are "config" spans
    parent = np.array([-1, 0, 1])
    start = np.array([0.0, 1.0, 2.0])
    end = np.array([10.0, 5.0, 3.0])
    times = spantrace.layer_times(np.array([0, 1, 1]), parent, start, end, ["cli", "config"])
    assert times == {"cli": (1, 6.0), "config": (2, 4.0)}


def _build(name: str, workdir: Path, seed: int = 5) -> workloads.Workload:
    return workloads.build(name, workdir, seed, small=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_runs_write_identical_outputs(name, tmp_path):
    wl = _build(name, tmp_path / "w")
    runner = run.Runner(tmp_path / "w")
    for k in range(2):
        ops = wl.iteration(k)
        runner.run(ops, "main")
        untraced = [op.output.read_bytes() for op in ops]
        for op in ops:
            op.output.unlink()
        run._traced_iteration(wl, runner, k, tmp_path / "trace.npz")
        assert [op.output.read_bytes() for op in ops] == untraced
    assert all(o["ok"] for o in runner.outcomes), runner.outcomes


def test_trace_accounts_for_all_traced_time(tmp_path):
    wl = _build("game-pipeline", tmp_path / "w")
    runner = run.Runner(tmp_path / "w")
    _, values = run._traced_iteration(wl, runner, 0, tmp_path / "trace.npz")
    spans = np.load(tmp_path / "trace.npz")
    own = spantrace.self_times(spans["parent"], spans["start"], spans["end"])
    roots = spans["parent"] < 0
    assert (own >= -1e-9).all()
    assert own.sum() == pytest.approx((spans["end"] - spans["start"])[roots].sum())
    assert list(spans["names"][spans["name"][roots]]) == ["cli"]
    assert values["gamelog.parse_detection.calls"] == 2 * wl.records  # assemble and log stages both parse
    assert values["gamelog.serialize_detection.calls"] == wl.records
    assert set(values) | {"synth.generate_game.self_s", "trace.overhead_frac"} == {
        m["name"] for m in run.SPEC["per_layer"]
    }


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    _build(name, tmp_path / "a", seed=5)
    _build(name, tmp_path / "b", seed=5)
    _build(name, tmp_path / "c", seed=6)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


def test_empty_frame_probe_expects_what_a_fixed_evaluate_would_print(tmp_path):
    """The library, given the missing frame as empty, matches the probe's oracle report."""
    from playlog.core import BoundingBox
    from playlog.metrics import evaluate_detections

    wl = _build("detector-eval", tmp_path / "w")
    probe = wl.probes[0]
    preds_path, truth_path = Path(probe.argv[2]), Path(probe.argv[4])
    truth = [line.split() for line in truth_path.read_text().splitlines()]
    preds = [line.split() for line in preds_path.read_text().splitlines()]
    gts: dict[int, list] = {}
    for f in truth:
        gts.setdefault(int(f[0]), []).append(BoundingBox(*map(float, f[1:5])))
    scored: dict[int, list] = {frame: [] for frame in gts}
    for f in preds:
        scored[int(f[0])].append((BoundingBox(*map(float, f[1:5])), float(f[5])))
    assert any(not v for v in scored.values())
    report = evaluate_detections(scored, gts).to_text()
    probe.output.write_text(report + "".join(
        workloads.expected_evaluation(preds, truth).splitlines(keepends=True)[len(workloads.REPORT_ROWS):]))
    assert probe.check(probe.output) is None


def test_clock_probe_misread_still_parses(tmp_path):
    from playlog.clock import parse_clock_stream

    wl = _build("game-pipeline", tmp_path / "w")
    clock = Path(wl.probes[0].argv[4])
    result = parse_clock_stream(clock.read_text().splitlines())
    assert result.diagnostics == ()
    first_play = [r.game_clock for r in itertools.takewhile(lambda r: not r.absent, result.readings)]
    jumps = sum(abs(a - b) >= 40 for a, b in zip(first_play, first_play[1:]))
    assert jumps == 2  # out to the misread and back


def test_every_benchmark_workload_has_a_builder():
    spec = run.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "team-color", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""

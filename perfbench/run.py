"""playlog benchmark: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload game-pipeline --seed 3 --seconds 18 --trace 0

A closed loop with one client and no threads: each iteration launches the
workload's ``playlog`` commands one at a time as subprocesses, waits for
each, then checks every output.  Inputs are written before any timing.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of one extra,
in-process iteration run under ``spantrace.Tracer``.  The line before it
is a JSON detail record (environment, samples, every operation's outcome).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spantrace
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
DEFAULT_SEED = 3  # the ROADMAP baseline game; the held-out seed is 1009 (README.md)
SETUP_REPS = 9
MIN_ITERATIONS = 2
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())  # workload and metric names, units


def _load_program() -> None:
    """Import playlog and the test oracles from this checkout, or exit 2."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "playlog" / "cli.py").is_file() or not (tests / "oracles.py").is_file():
        sys.exit(f"perfbench: {ROOT} has no src/playlog or tests/oracles.py; run from a full checkout")
    sys.path[:0] = [str(src), str(tests)]
    import playlog

    if Path(playlog.__file__).resolve().parent != (src / "playlog").resolve():
        sys.exit(f"perfbench: imported playlog from {playlog.__file__}, not from {src}")


class Runner:
    """Runs operations and keeps every outcome."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.outcomes: list[dict] = []

    def launch(self, op) -> tuple[int, float, float]:
        """Run one op as a subprocess: (exit code, wall seconds, max RSS MB)."""
        with open(self.workdir / f"{op.name}.stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "playlog.cli", *op.argv],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=self.env,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def verdict(self, op, code: int, kind: str) -> None:
        if code != 0:
            stderr = (self.workdir / f"{op.name}.stderr").read_text(errors="replace").strip()
            reason = f"exit {code}: {stderr.splitlines()[-1] if stderr else ''}"
        elif not op.output.exists():
            reason = f"no output {op.output.name}"
        else:
            reason = op.check(op.output)
        self.outcomes.append({"op": op.name, "kind": kind, "ok": reason is None, "reason": reason})

    def run(self, ops, kind: str) -> tuple[float, float]:
        """Launch ops back to back, then check each: (summed wall seconds, peak RSS MB)."""
        codes, wall, rss = [], 0.0, 0.0
        for op in ops:
            code, seconds, peak = self.launch(op)
            codes.append(code)
            wall += seconds
            rss = max(rss, peak)
        for op, code in zip(ops, codes):
            self.verdict(op, code, kind)
        return wall, rss


def _traced_iteration(wl, runner: Runner, k: int, trace_file: Path) -> tuple[float, dict]:
    """Iteration ``k`` in-process under the tracer: (wall seconds, per-layer values)."""
    from playlog import cli

    tracer = spantrace.Tracer()
    tracer.iteration = k
    ops = wl.iteration(k)
    codes, wall = [], 0.0
    with tracer:
        for op in ops:
            with open(runner.workdir / f"{op.name}.stderr", "w") as err, contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                codes.append(cli.run(op.argv))
                wall += time.perf_counter() - t0
    for op, code in zip(ops, codes):
        runner.verdict(op, code, "traced")
    tracer.save(trace_file)
    names = [m["name"] for m in SPEC["per_layer"]]
    return wall, spantrace.per_layer_values(names, tracer.layer_times(), tracer.counts)


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "playlog").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _environment(records: int, loadavg: float) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg,
        "records": records,
    }


def _tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _probe_summary(outcomes: list[dict]) -> dict:
    summary: dict[str, dict] = {}
    for o in outcomes:
        if o["kind"] == "probe":
            s = summary.setdefault(o["op"], {"attempted": 0, "ok": 0, "reason": None})
            s["attempted"] += 1
            s["ok"] += o["ok"]
            s["reason"] = s["reason"] or o["reason"]
    return summary


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    loadavg = os.getloadavg()[0]
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        wl = workloads.build(name, workdir, seed)
        env = _environment(wl.records, loadavg)
        runner = Runner(workdir)
        runner.run(wl.setup, "setup")  # warm-up: bytecode caches, page cache

        # set-up repetitions are spread over the timed loop, so that one slow
        # spell of the host does not hold all of them
        walls, rss, setup = [], [], []
        start = time.perf_counter()
        while len(walls) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
            while len(setup) < SETUP_REPS and len(setup) <= SETUP_REPS * (time.perf_counter() - start) / seconds:
                setup.append(runner.run(wl.setup, "setup")[0])
            k = len(walls)
            wall, peak = runner.run(wl.iteration(k), "main")
            walls.append(wall)
            rss.append(peak)
            runner.run(wl.probes, "probe")
        while len(setup) < SETUP_REPS:
            setup.append(runner.run(wl.setup, "setup")[0])
        loop = [o for o in runner.outcomes if o["kind"] in ("main", "probe")]

        wall_median = statistics.median(walls)
        setup_median = statistics.median(setup)
        values = {
            "wall_s": wall_median,
            "records_per_s": wl.records / wall_median,
            "setup_s": setup_median,
            "peak_rss_mb": statistics.median(rss),
            "ops_ok_frac": sum(o["ok"] for o in loop) / len(loop),
        }
        metrics = SPEC["end_to_end"]
        if trace:
            # always iteration 0, so every traced run does the same work;
            # in-process, so it is compared with the untraced work minus interpreter start-up
            traced_wall, values = _traced_iteration(wl, runner, 0, WORK / f"trace-{name}.npz")
            untraced = wall_median - setup_median
            values["synth.generate_game.self_s"] = wl.synth_s
            values["trace.overhead_frac"] = (traced_wall - untraced) / untraced
            metrics = SPEC["per_layer"]

        counted = [o for o in runner.outcomes if o["kind"] != "probe"]
        result = {
            "correct": all(o["ok"] for o in counted),
            "attempted": len(counted),
            "failed": sum(not o["ok"] for o in counted),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
        }
        detail = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "environment": env,
            "wall_s_samples": walls,
            "wall_s_tail": _tail_percentile(walls),
            "setup_s_samples": setup,
            "peak_rss_mb_samples": rss,
            "probes": _probe_summary(runner.outcomes),
            "failures": [o for o in runner.outcomes if not o["ok"]][:10],
        }
        return result, detail
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    WORK.mkdir(exist_ok=True)
    record = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that the benchmark is steady: two sets of runs must agree within its bounds.

    python3 perfbench/selfcheck.py

Each of two sets runs every workload of BENCHMARK.json ten times, on
seeds 1 to 10, each run for the ``run_seconds`` BENCHMARK.json gives.  For every end-to-end metric and workload
it prints each set's median and its spread (distance between the first
and third quartile, as a share of the median), then:

- ``spread``: each set's spread is within the metric's bound, and
- ``agree``: the two sets' medians differ, in either direction, by no
  more than the bound (as a share of the first set's median).

Exits 0 when every row passes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks:\n{out.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def change(first: float, second: float) -> float:
    return abs(second - first) / first if first else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    sets: list[dict[str, list[dict]]] = []
    for s in range(SETS):
        runs = {}
        for name in names:
            runs[name] = []
            for seed in SEEDS:
                runs[name].append(run_once(name, seed, spec["run_seconds"]))
                print(f"set {s + 1} {name} seed {seed}: {runs[name][-1]}", file=sys.stderr, flush=True)
        sets.append(runs)

    ok = True
    print(f"{'workload':14} {'metric':14} {'bound':>6} " + " ".join(
        f"{'median' + str(i + 1):>12} {'spread' + str(i + 1):>8}" for i in range(SETS)) + "  verdict")
    for name in names:
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            cols, verdicts, spreads, medians = [], [], [], []
            for runs in sets:
                values = [r[m] for r in runs[name]]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
                cols.append(f"{medians[-1]:12.5g} {spreads[-1]:8.3f}")
            if any(sp > bound for sp in spreads):
                verdicts.append("spread>bound")
            if change(*medians) > bound:
                verdicts.append("disagree")
            ok &= not verdicts
            print(f"{name:14} {m:14} {bound:6.2f} " + " ".join(cols) + "  " + (",".join(verdicts) or "ok"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

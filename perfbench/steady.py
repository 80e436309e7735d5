"""Repeat the benchmark and report each end-to-end metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --seeds 1-10 [--save runs.json]

Runs ``run.py`` for every workload of ``BENCHMARK.json`` once per seed,
for ``run_seconds``, one process at a time, cycling through the
workloads for each seed so that slow drift of the host spreads over all
of them.  For every end-to-end metric of every workload it prints the
median, the quartiles and the spread (interquartile distance ÷ median)
next to the bound ``BENCHMARK.json`` fixes, and it fails when a spread
is not below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--save", type=Path, help="write every run's result here")
    args = parser.parse_args(argv)

    results: dict[str, list[dict]] = {w["name"]: [] for w in spec["workloads"]}
    for seed in args.seeds:
        for workload in results:
            result = run_once(workload, seed, spec["run_seconds"])
            result["seed"] = seed
            results[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    if args.save:
        args.save.write_text(json.dumps(results, indent=1))

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    print(f"\n{'workload':14s} {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}  unit")
    for workload, runs in results.items():
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            unit = runs[0]["metrics"][name]["unit"]
            bound = bounds[name]
            if len(values) >= 2:
                q1, median, q3 = statistics.quantiles(values, n=4)
                share = spread(values)
            else:
                q1 = median = q3 = values[0]
                share = 0.0
            flag = ""
            if share >= bound / 3:
                flag = "  <-- above a third of its bound"
                steady = False
            print(f"{workload:14s} {name:28s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{share:7.3f} {bound:6}  {unit}{flag}")
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        print(f"{workload:14s} {'failed_ratio':28s} {failed / attempted:12.6g} "
              f"({failed}/{attempted} operations, {len(runs)} runs)")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

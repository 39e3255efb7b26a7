"""Steadiness check: run workloads over several seeds, report spreads.

Usage, from the repository root::

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads A B]

Runs ``run.py`` once per seed and workload (untraced), one run at a
time, and prints for every end-to-end metric its median over the runs
and its spread -- the distance between the first and third quartile as
a share of the median -- next to the metric's bound from
``BENCHMARK.json``, and the spread of the raw figures before the
host-speed calibration.  A spread above a third of the bound is flagged
``WIDE``.  The share of failed operations must be the same in every run.
The raw results go to ``.perfbench_out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            for line in lines:
                if line.startswith("host speed factor "):
                    factor, raw = line[len("host speed factor "):].split("; raw figures ")
                    result["speed_factor"], result["raw"] = float(factor), json.loads(raw)
                elif line.startswith("check failed: "):
                    print(f"{workload} seed {seed}: {line}")
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        with open(os.path.join(out_dir, f"steady-{workload}.json"), "w", encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1)
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            steady = False
            print(f"{workload}: failed shares {sorted(shares)}, "
                  f"correct {[r['correct'] for r in runs]}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            wide = spread(values) > metric["bound"] / 3 and metric["name"] != "setup_s"
            steady &= not wide
            raw = [r["raw"][metric["name"]] for r in runs if metric["name"] in r.get("raw", {})]
            raw_note = f"  (raw {spread(raw):6.2%})" if len(raw) == len(runs) else ""
            print(f"  {workload:<20} {metric['name']:<16} median {statistics.median(values):12.4f} "
                  f"{metric['unit']:<6} spread {spread(values):7.2%}  bound {metric['bound']:.0%}"
                  f"{raw_note}{'  WIDE' if wide else ''}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

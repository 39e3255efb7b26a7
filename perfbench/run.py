"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
traced run and prints the per-layer metrics.  The metric names and units
are the ones ``BENCHMARK.json`` lists.  Every workload's outputs are
checked; a failed check prints the problems and ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PORTAL = "portal-price-churn"
SWARM = "swarm-fieldtest"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=(PORTAL, SWARM), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        catalog = json.load(handle)["per_layer" if args.trace else "end_to_end"]

    import portal_load
    import swarm_work

    if args.trace:
        if args.workload == PORTAL:
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")
            result = portal_load.traced(args.seed, args.seconds, spans_path)
        else:
            result = swarm_work.traced(args.seed)
    elif args.workload == PORTAL:
        result = portal_load.run(args.seed, args.seconds)
    else:
        result = swarm_work.run(args.seed, args.seconds)

    for problem in result["problems"]:
        print(f"check failed: {problem}")
    if "speed_factor" in result:
        print(f"host speed factor {result['speed_factor']:.4f}; raw figures {json.dumps(result['raw'])}")
    # Every workload reports every end-to-end metric; of the per-layer
    # ones, a layer the workload does not exercise did no work: it reads 0.
    metrics = {
        metric["name"]: {
            "value": result.get(metric["name"], 0.0) if args.trace else result[metric["name"]],
            "unit": metric["unit"],
        }
        for metric in catalog
    }
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seconds S --seeds N [--first-seed K]
                                [--workloads a,b] [--out FILE]

Runs ``run.py --trace 0`` for seeds K..K+N-1, cycling through the
workloads round-robin within each seed so that slow drift of the host
speed spreads over every workload alike.  For each workload and metric
it prints the median over the runs and the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median, and over all the runs' wall times pooled, the highest
percentile with at least ten runs beyond it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import tail
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def iqr_share(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main() -> None:
    p = argparse.ArgumentParser(description="run-to-run spread of the end-to-end metrics")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--out", help="also write every run's result here as JSON")
    args = p.parse_args()
    names = args.workloads.split(",")
    results: dict[str, list[dict]] = {n: [] for n in names}
    walls: dict[str, list[float]] = {n: [] for n in names}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for name in names:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            results[name].append(result)
            details = os.path.join(".perfbench", f"{name}-seed{seed}-trace0", "details.json")
            with open(details) as f:
                walls[name] += [s["ref_s"] for s in json.load(f)["samples"]]
            print(name, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                  flush=True)
    summary = {}
    for name in names:
        metrics = results[name][0]["metrics"]
        summary[name] = {
            "failed": sum(r["failed"] for r in results[name]),
            "wall_s_tail": tail(walls[name]),
            "metrics": {
                m: {"median": statistics.median(vals), "iqr_share": iqr_share(vals)}
                for m in metrics
                for vals in [[r["metrics"][m]["value"] for r in results[name]]]
            },
        }
    print(json.dumps(summary, indent=1))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"results": results, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()

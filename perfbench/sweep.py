#!/usr/bin/env python3
"""Run every workload on several seeds, one run at a time, and summarize.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/out/sweep.json

For each workload and end-to-end metric it reports the median, the
quartiles (statistics.quantiles, n=4) and the quartile spread as a share of
the median, next to the metric's bound from BENCHMARK.json.  A metric is
steady when that spread is within a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not res["correct"] or res["failed"]:
                sys.exit(f"{workload} seed {seed} failed: {proc.stderr[-500:]}")
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        rows = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            rows[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name], "steady": spread <= bounds[name] / 3,
                "values": vals,
            }
            print(f"  {name}: median {med:.5g} spread {spread:.3f} bound {bounds[name]}", flush=True)
        summary["workloads"][workload] = rows
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric.

    python3 perfbench/repeat.py --workload host-write-small --seeds 1-10 [--seconds 20] [--trace 0] [--json out.json]

Run it from the repository root. For every metric it prints the median,
the first and third quartiles (statistics.quantiles, n=4) and the spread:
the distance between the quartiles as a share of the median. With --json
it also writes every run's values and the summary to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json")
    args = ap.parse_args()

    runs = []
    for seed in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        res = json.loads(lines[-1])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              flush=True)
        runs.append({"seed": seed, **res})

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": spread}
        print(f"{name:40s} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}  spread {spread:.4f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                       "runs": runs, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()

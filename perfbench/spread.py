#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed and reports, per end-to-end metric, the
median and the distance between the first and third quartiles as a share of
the median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload tpch-compile --seeds 1-10
    python3 perfbench/spread.py --workload tpch-compile --from-results   # reuse result files
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--from-results", action="store_true",
                    help="read perfbench/results/ instead of running")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    if args.from_results:
        for f in sorted(glob.glob(os.path.join(HERE, "results", f"{args.workload}-seed*-trace0.json"))):
            with open(f) as fh:
                results.append(json.load(fh)["result"])
    else:
        for s in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                   "--seed", str(s), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(f"seed {s}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
                return 1
            results.append(json.loads(out.stdout.strip().splitlines()[-1]))
    if len(results) < 4:
        print("need at least 4 runs", file=sys.stderr)
        return 1

    worst = 0.0
    print(f"{'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}  ({len(results)} runs)")
    for name, bound in bounds.items():
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        if name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{name:<18} {med:>12.6g} {spread:>8.4f} {bound:>6}")
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

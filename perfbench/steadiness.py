#!/usr/bin/env python3
"""Measures how steady the benchmark is.

Runs the benchmark untraced --runs times on each workload, each run with
its own seed, and prints every end-to-end metric's median, quartiles and spread
(quartile distance as a share of the median) next to its bound from
BENCHMARK.json. Run it from the repository root:

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 --out steady.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--out", default="", help="write the record as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {}
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            t0 = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            took = time.monotonic() - t0
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed} failed:\n{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed} incorrect:\n{out.stderr}")
            runs.append(res)
            print(f"{w} seed {seed} ({took:.0f} s): " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        record[w] = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            record[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": bounds[name]}
    for w, metrics in record.items():
        print(f"\n{w}")
        for name, s in metrics.items():
            bound = s["bound"]
            flag = "" if name == "setup_s" or s["spread"] < bound / 3 else "  <-- spread over bound/3"
            print(f"  {name:24s} median {s['median']:12.5g}  q1 {s['q1']:12.5g}  q3 {s['q3']:12.5g}"
                  f"  spread {s['spread']:6.3f}  bound {bound}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check of the dSDN end-to-end benchmark.

Runs each workload several times, each with another seed, and prints per
end-to-end metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (Q3 - Q1) / median against the metric's bound from
BENCHMARK.json, plus the share of failed operations. The bounds in
BENCHMARK.json are set from this command's output.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workload NAME ...] [--seconds S]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(w, seed, args.seconds)
            results.append(r)
            vals = " ".join(f"{k}={v['value']:.6g}"
                            for k, v in r["metrics"].items())
            print(f"{w} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} {vals}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{w}: {args.runs} runs, failed share(s) {sorted(shares)}")
        print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ratio = spread / bound
            gated = name != "setup_s"
            flag = "" if not gated or ratio < 1 / 3 else (
                "  above a third of the bound" if ratio < 1 else "  OVER BOUND")
            if gated and ratio >= 1:
                ok = False
            print(f"{name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.3f} {bound:>6.2f} {ratio:>12.2f}{flag}")
        if len(shares) != 1 or not all(r["correct"] for r in results):
            ok = False
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness mode: runs each workload N times on N seeds, interleaving the
workloads, and prints every metric's median, quartiles and IQR/median
against the bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2

With `--sets 2` the whole sweep runs twice; the second set's median is
compared with the first's, as a share of the first, against the same
bound. Metrics and bounds come from BENCHMARK.json; every run is an
untraced run (`--trace 0`), which reports the end-to-end set. Each run's
figures go to stderr as it finishes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the check")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    medians = {}
    for s in range(args.sets):
        values = {w: {} for w in workloads}
        for r in range(args.runs):
            for w in workloads:
                seed = args.seed0 + s * args.runs + r
                metrics = run_once(w, seed, seconds)
                for k, v in metrics.items():
                    values[w].setdefault(k, []).append(v)
                print(f"set {s + 1} run {r + 1}/{args.runs} {w} seed {seed}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()),
                      file=sys.stderr, flush=True)
        print(f"set {s + 1}: {args.runs} runs per workload, {seconds} s each")
        print(f"  {'workload':<12} {'metric':<16} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'iqr/med':>8} {'bound':>6}  verdict")
        for w in workloads:
            for k, vs in values[w].items():
                med, q1, q3, rel = spread(vs)
                bound = bounds.get(k)
                verdict = ""
                if bound is not None:
                    verdict = "ok" if rel <= bound / 3 else (
                        "within bound" if rel <= bound else "TOO NOISY")
                if s > 0 and (w, k) in medians and bound is not None:
                    shift = (med - medians[(w, k)]) / medians[(w, k)]
                    verdict += f" shift {shift:+.3f}" + (
                        "" if abs(shift) <= bound else " SHIFTED")
                medians.setdefault((w, k), med)
                print(f"  {w:<12} {k:<16} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                      f"{rel:>8.4f} {bound if bound is not None else '-':>6}  {verdict}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

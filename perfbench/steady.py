#!/usr/bin/env python3
"""Steadiness report: runs each workload N times, each with another seed,
and prints every end-to-end metric's median, quartiles and spread next to
the bound BENCHMARK.json fixes for it.

    python3 perfbench/steady.py [--runs 10] [--workload W ...]
                                [--seconds S] [--bin PATH]

Run it from the repository root; run i uses seed i. The spread is (Q3 - Q1) / median with the
quartiles of statistics.quantiles(values, n=4); a metric whose spread
exceeds its bound cannot resolve a change of that size and is marked
UNRESOLVED. --bin runs an already-built perfbench binary instead of the
cargo command in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace=0):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run ({result['failed']} failed)\n{out.stderr[-2000:]}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--bin")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    command = [args.bin] if args.bin else bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst_ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = 1 + i
            result = run_once(command, w, seed, seconds)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds), flush=True)
        print(f"{w} ({args.runs} runs, seeds 1..{args.runs}, {seconds} s each)")
        print(f"  {'metric':<14} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flag = "" if spread <= bound else "  UNRESOLVED"
            if spread > bound / 3:
                flag = flag or "  (above bound/3)"
            if spread > bound:
                worst_ok = False
            print(f"  {name:<14} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {bound:>6}{flag}")
    sys.exit(0 if worst_ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and compare spreads to bounds.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--first-seed 1] [--sets 1|2]

Run from the repository root. For each workload, runs `perfbench/run.py`
once per seed (first-seed, first-seed+1, ...) for `run_seconds` from
BENCHMARK.json and prints, for every end-to-end metric, the median, the
quartiles (Python's statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the metric's bound. A spread above a third of
the bound is flagged. With `--sets 2` it makes a second set of runs on
fresh seeds and reports how far each metric's second median moved from
the first, in the worse direction, against the bound. Raw results are
saved under $CARGO_TARGET_DIR (default .bench_build)/perfbench.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with status {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: result not correct: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(os.path.join(target, "perfbench"), exist_ok=True)
    out = os.path.join(target, "perfbench", f"steadiness-{int(time.time())}.json")

    steady = True
    report = {}
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            seeds = [args.first_seed + 1000 * s + k for k in range(args.runs)]
            runs = []
            for seed in seeds:
                values, wall = run_once(workload, seed, seconds)
                runs.append(values)
                print(f"{workload} seed {seed}: {wall:.1f} s wall", file=sys.stderr)
            sets.append(runs)
        report[workload] = sets
        print(f"\n{workload} ({args.runs} runs per set, {seconds} s each)")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            q1, med, q3, spread = summarize([r[name] for r in sets[0]])
            if name == "setup_s":
                verdict = "spread not bounded"
            elif spread > bound:
                verdict, steady = "OVER BOUND", False
            elif spread > bound / 3:
                verdict, steady = "above bound/3", False
            else:
                verdict = "ok"
            line = f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound:>6}  {verdict}"
            line += "  [" + " ".join(f"{r[name]:.4g}" for r in sets[0]) + "]"
            if len(sets) == 2:
                second = statistics.median([r[name] for r in sets[1]])
                worse = (second - med) / med if m["better"] == "lower" else (med - second) / med
                line += f"  | second median {second:.6g}, worse by {worse:+.4f}"
                if worse > bound:
                    line += " OVER BOUND"
                    steady = False
            print(line)
        with open(out, "w") as f:
            json.dump(report, f, indent=1)
    print(f"\nraw results: {out}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()

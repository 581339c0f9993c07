#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Run from the repository root. Builds the release `snc-server` and
`snc-router` binaries and the `snc-perfbench` binary (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs one workload. The
last line of standard output is the result object; `--trace 1` reports
the per-layer metrics instead of the end-to-end ones. Outside a full
source checkout it exits with status 2 without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("cold-sdp", "cold-sampling", "warm-routed", "churn-routed")
# A run must end within this many seconds; the whole process group (the
# benchmark binary and every service it started) is killed past it.
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = (
        ["cargo", "build", "--release", "--offline", "-p", "snc-server", "-p", "snc-router"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    )
    for step in steps:
        # Build output goes to stderr so the result stays the last line
        # of standard output.
        done = subprocess.run(step, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(step)}", 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", "crates/snc-server/Cargo.toml", "crates/snc-router/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a full source checkout", 2)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(root, target)

    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "snc-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(target, "perfbench"),
    ]
    # Its own process group, so a timeout can stop the services too.
    bench = subprocess.Popen(command, cwd=root, start_new_session=True)
    try:
        code = bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(bench.pid)
        bench.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped", 1)
    # The benchmark binary stops its services itself; this only catches
    # a process left behind by a crash.
    stop_group(bench.pid)
    sys.exit(code)


def stop_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


if __name__ == "__main__":
    main()

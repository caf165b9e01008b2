#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload corridor|highway|fig4|stream \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and compiles the
benchmark package (perfbench/CMakeLists.txt, which builds the layer
libraries from ../src) into .bench_build (or $CARGO_TARGET_DIR); later runs
only re-check it. Build output goes to stderr.

The benchmark binary does the work, checks the outputs and prints its
metrics. This wrapper forwards everything it prints and ends stdout with one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list and all must be present. With
--trace 1 they are the per_layer list; a layer metric the workload does not
exercise (e.g. shard.* outside corridor) is reported as 0.

Exit status: 0 when the outputs are correct; non-zero, without a result
line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("corridor", "highway", "fig4", "stream")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    # Compiler temporaries stay inside the build tree too.
    env = dict(os.environ, TMPDIR=str(build_dir / "tmp"))
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {step[:2]} exited {done.returncode}")
    binary = build_dir / "perfbench"
    if not binary.exists():
        fail(f"no binary at {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR")
                     or ROOT / ".bench_build")
    binary = build(build_dir.resolve())

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out", str(build_dir.resolve() / "out")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing (exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{args.workload} exited {done.returncode} without a result")
    for line in lines[:-1]:
        print(line)

    metrics = result["metrics"]
    for metric in wanted:
        if metric["name"] in metrics:
            continue
        if not args.trace:
            fail(f"{args.workload} did not report {metric['name']}")
        metrics[metric["name"]] = {"value": 0, "unit": metric["unit"]}
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    correct = bool(result["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

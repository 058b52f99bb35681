#!/usr/bin/env python3
"""Builds and runs perfbench from the checkout it sits in.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 15 --trace 0

Configures perfbench/CMakeLists.txt (which pulls in the repository's own
CMake project) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset, builds the perfbench target, runs it, checks the shape
of its JSON result and prints that result as the last line of stdout.
Build output goes to stderr. Exits non-zero, printing no result, when the
sources are missing, the build fails or the run does not produce a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    for needed in ("CMakeLists.txt", "src"):
        if not (ROOT / needed).exists():
            fail(f"no {needed} next to {BENCH_DIR.name}/: nothing to build")
    jobs = str(min(os.cpu_count() or 1, 8))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench"


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} has keys {sorted(metric)}")
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    state = out / "state"
    state.mkdir(parents=True, exist_ok=True)
    # Relative to the checkout: the daemon's unix socket lives in the state
    # directory and socket paths are capped at about 100 bytes.
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--state-dir", os.path.relpath(state, ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode}")
    try:
        result = check_result(lines[-1])
    except ValueError as err:
        fail(f"malformed result: {err}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

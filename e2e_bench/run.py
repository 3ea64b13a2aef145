#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Run from the repository root:

    python3 e2e_bench/run.py --workload testbed_h2h --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root, as a Release build of e2e_bench/CMakeLists.txt; build
output goes to stderr. The workload runs in its own process, so its peak
RSS is its own, and its last stdout line is the result JSON. Unknown or
malformed flags exit 2. Without the library sources next to this
directory the build fails and the script exits 1 without a result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("testbed_h2h", "testbed_observed", "tuner_sweep", "fleet_e2e")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def non_negative_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError("wants a non-negative integer")
    return int(text)


def positive_int(text):
    value = non_negative_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("wants a positive integer")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(allow_abbrev=False, description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=non_negative_int)
    parser.add_argument("--seconds", required=True, type=positive_int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--inject-check-failure", action="store_true",
                        help="add a failing output check (tests the failure path)")
    return parser.parse_args(argv)


def build(build_dir):
    """Configure and build mntp_e2e; returns the binary path or None."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = (
        ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "mntp_e2e", "-j", jobs],
    )
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return build_dir / "mntp_e2e"


def main(argv):
    args = parse_args(argv)
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root / "e2e_bench")
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(build_root / "e2e_out")]
    if args.inject_check_failure:
        cmd.append("--inject-check-failure")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

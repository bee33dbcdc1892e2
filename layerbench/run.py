#!/usr/bin/env python3
"""Runs one layer-benchmark workload and prints its metrics.

    python3 layerbench/run.py --workload land_join --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
`layerbench` package (layerbench/CMakeLists.txt, which compiles ../src)
under $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
only check the build is current. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ledger. The exit code is
0 only if every op returned OK and matched its reference.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ledger  # noqa: E402

WORKLOADS = ("land_join", "water_select", "store_serve")
# Every run must end within 180 s; the build of a fresh checkout has its
# own, longer allowance.
RUN_TIMEOUT_S = 170


def build(build_root):
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(build_root, "layerbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "layerbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one result to prove the check fails")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"layerbench: build failed: {e}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.inject_mismatch:
        command.append("--inject-mismatch")
    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"layerbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"layerbench: exited with {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout)
    result, lines = ledger.summarize(raw)
    for line in lines:
        print(line)
    print(f"# wall {time.monotonic() - started:.1f} s")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness report for the layer benchmark.

    python3 layerbench/steadiness.py --seeds 1-10 [--workloads land_join,...]
                                     [--seconds S] [--trace]

Run from the repository root. Builds the benchmark twice from the same
source, in two build directories under $CARGO_TARGET_DIR (or .bench_build),
then runs each workload once per seed, alternating the two builds. For each
end-to-end metric it prints the median, the quartiles and the spread,
(q3 - q1) / median with the quartiles from statistics.quantiles(n=4), over
all runs; the gap between the two builds' medians; and the metric's bound
from BENCHMARK.json. A spread wider than a tenth, or than a third of the
bound, is flagged: the bounds are set from this output. With --trace each
seed also gets one traced run per build, and the integer counts of the two
must repeat exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(build_dir, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
                 + "\n".join(lines[-5:]))
    digest = next((l.split()[-1] for l in lines if l.startswith("# counts digest")),
                  None)
    return json.loads(lines[-1])["metrics"], digest


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 4:
        parser.error("quartiles need at least four seeds")

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    builds = [os.path.join(root, "steady-a"), os.path.join(root, "steady-b")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for workload in args.workloads.split(","):
        values = {}   # metric -> [(build index, value)]
        for i, seed in enumerate(seeds):
            b = i % 2
            metrics, _ = run(builds[b], workload, seed, args.seconds, 0)
            for name, m in metrics.items():
                values.setdefault(name, []).append((b, m["value"]))
            if args.trace:
                digests = [run(builds[k], workload, seed, args.seconds, 1)[1]
                           for k in (b, 1 - b)]
                same = digests[0] == digests[1]
                flagged += not same
                print(f"# {workload} seed {seed} counts digest {digests[0]} "
                      f"{'repeats' if same else 'DIFFERS: ' + str(digests[1])}")
        print(f"## {workload}: {len(seeds)} seeds, builds alternated, "
              f"{args.seconds:g} s runs")
        print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'A/B gap':>8} {'bound':>6}")
        for name, pairs in values.items():
            all_values = [v for _, v in pairs]
            med, q1, q3, s = spread(all_values)
            per_build = [statistics.median([v for b, v in pairs if b == k])
                         for k in (0, 1)]
            gap = (per_build[1] - per_build[0]) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if name != "setup_s" and (s > 0.1 or (bound and s > bound / 3)):
                flag = "  <-- wide"
                flagged += 1
            print(f"{name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{s:>7.3f} {gap:>+8.3f} {bound:>6}{flag}")
            if flag:
                # In run order, so a shift of the host's speed partway
                # through shows as a step rather than as scatter.
                print("    runs: " + " ".join(f"{v:.4g}" for v in all_values))
        sys.stdout.flush()
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

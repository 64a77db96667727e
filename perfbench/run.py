#!/usr/bin/env python3
"""Build and run the knor end-to-end benchmark (perfbench/README.md).

Run one workload from the root of a knor checkout:

    python3 perfbench/run.py --workload knori-natural --seed 1 --seconds 32 --trace 0

The last line of standard output is the JSON result. The benchmark is built
from source into $CARGO_TARGET_DIR (default .bench_build) on first use.

Refresh the recorded clustering fingerprints for seeds 0..99:

    python3 perfbench/run.py --record-fingerprints 0-99
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")
# Workload -> fingerprint key; workloads sharing a key cluster the same rows
# and must produce the same clustering.
WORKLOADS = {
    "knori-natural": "natural",
    "knors-natural": "natural",
    "knord-uniform": "uniform",
}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once, then (re)build the benchmark binary; returns its path."""
    cmake_dir = os.path.join(build_root(), "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "knor_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(cmake_dir, "knor_perfbench")


def load_fingerprints():
    if not os.path.exists(FINGERPRINTS):
        return {}
    with open(FINGERPRINTS) as f:
        return json.load(f)


def dirs():
    work = os.path.join(build_root(), "work")
    out = os.path.join(build_root(), "out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    return work, out


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    if not os.path.exists(SPEC):
        return None
    with open(SPEC) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def valid_result(line, trace):
    try:
        doc = json.loads(line)
    except ValueError:
        return False
    if not (isinstance(doc, dict)
            and set(doc) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(doc["attempted"], int) and doc["attempted"] >= 1):
        return False
    names = expected_metrics(trace)
    return names is None or set(doc["metrics"]) == names


def run_workload(args):
    binary = build()
    work, out = dirs()
    key = WORKLOADS[args.workload]
    expect = []
    prefix = f"{key}/{args.seed}/"
    for name, fp in sorted(load_fingerprints().items()):
        if name.startswith(prefix):
            expect += ["--expect", name[len(prefix):] + "=" + fp]
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--out-dir", out] + expect
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not valid_result(lines[-1],
                                                              args.trace):
        sys.stderr.write(proc.stdout)
        sys.stderr.write(f"perfbench: benchmark exited {proc.returncode} "
                         "without a valid result\n")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


def record(seed_range):
    first, _, last = seed_range.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    binary = build()
    work, _ = dirs()
    table = load_fingerprints()
    for workload in ("knori-natural", "knord-uniform"):
        for seed in seeds:
            proc = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--fingerprint-only", "--work-dir", work],
                stdout=subprocess.PIPE, text=True, check=True,
                timeout=RUN_TIMEOUT_S)
            key, seed_s, isa, fp = proc.stdout.split()
            table[f"{key}/{seed_s}/{isa}"] = fp
            print(key, seed_s, isa, fp, flush=True)
    with open(FINGERPRINTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-fingerprints", metavar="FIRST-LAST")
    args = p.parse_args()
    if args.record_fingerprints:
        return record(args.record_fingerprints)
    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return run_workload(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        sys.exit(1)

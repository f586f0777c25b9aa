#!/usr/bin/env python3
"""Builds and runs the repository's headline benchmark.

    python3 perfbench/run.py --workload read_mem --seed 1 --seconds 10 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). The first run builds the library and the benchmark driver from
source into .bench_build/ (CMake, Release); later runs rebuild only what
changed. The driver's result is checked against BENCHMARK.json and printed
as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is 0 for a correct run, 1 when any operation failed its
correctness check, and 2 or 3 when the benchmark could not run or its
output broke the contract. Each run's result and provenance are also kept
in .bench_build/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only results.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:3])} exited {done.returncode}")


def source_revision():
    """The commit when run in a git checkout, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def check_result(result, contract, trace):
    """Returns a contract violation as text, or None."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    wanted = contract["per_layer" if trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        missing = {m["name"] for m in wanted} - set(result["metrics"])
        extra = set(result["metrics"]) - {m["name"] for m in wanted}
        return f"metrics differ: missing {sorted(missing)}, extra {sorted(extra)}"
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got.get("unit") != m["unit"]:
            return f"{m['name']} unit {got.get('unit')} != {m['unit']}"
        if not isinstance(got.get("value"), (int, float)):
            return f"{m['name']} has no numeric value"
    return None


def run(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, provenance, result or None)."""
    contract = load_contract()
    build()
    data_dir = os.path.join(BUILD_ROOT, "data")
    # Runs are sequential: anything here is left over from a killed run.
    shutil.rmtree(data_dir, ignore_errors=True)
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--data-dir", data_dir]
    if trace:
        os.makedirs(os.path.join(BUILD_ROOT, "trace"), exist_ok=True)
        args += ["--trace-out",
                 os.path.join(BUILD_ROOT, "trace", f"{workload}.spans.tsv")]
    args += list(extra)
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode not in (0, 1) or len(lines) < 2:
        fail(f"driver exited {done.returncode} without a result",
             done.returncode or 3)
    provenance = json.loads(lines[-2])["provenance"]
    provenance["source_revision"] = source_revision()
    result = json.loads(lines[-1])
    problem = check_result(result, contract, trace)
    if problem is not None:
        fail(f"result breaks the BENCHMARK.json contract: {problem}", 3)
    os.makedirs(os.path.join(BUILD_ROOT, "results"), exist_ok=True)
    record = os.path.join(BUILD_ROOT, "results",
                          f"{workload}-seed{seed}-trace{trace}.json")
    with open(record, "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    return done.returncode, provenance, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()
    names = [w["name"] for w in load_contract()["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    code, provenance, result = run(args.workload, args.seed, args.seconds,
                                   args.trace, extra)
    print("provenance: " + json.dumps(provenance), file=sys.stderr)
    if not result["correct"]:
        print(f"perfbench: {result['failed']} of {result['attempted']} "
              "operations failed their correctness check", file=sys.stderr)
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()

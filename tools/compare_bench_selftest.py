#!/usr/bin/env python3
"""Self-test for tools/compare_bench.py's gate.

Checks three cases by running compare_bench.py on small result trees:
  1. a drop in a spread metric (shard_qps_stddev) passes (exit 0);
  2. a 30% qps drop is flagged as a regression (exit 1);
  3. the committed BENCH_*.json files compared against themselves pass.

Exit code 0 when every case holds, 1 otherwise.

Usage:
    tools/compare_bench_selftest.py
"""
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
COMPARE = os.path.join(TOOLS, "compare_bench.py")


def write_results(root, name, metrics):
    """Writes one result row as <root>/<name>/service_scaling.jsonl."""
    path = os.path.join(root, name)
    os.makedirs(path)
    row = {"type": "row", "experiment": "service_scaling",
           "section": "scaling", "name": "BTree",
           "labels": {"shards": 4}, "metrics": metrics}
    with open(os.path.join(path, "service_scaling.jsonl"), "w",
              encoding="utf-8") as f:
        f.write(json.dumps(row) + "\n")
    return path


def compare(baseline, current):
    done = subprocess.run([sys.executable, COMPARE, "--baseline", baseline,
                           "--current", current],
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout + done.stderr


def main() -> int:
    failures = []

    def expect(case, want, got, output):
        status = "ok" if got == want else "FAIL"
        print(f"[{status}] {case}: exit {got} (want {want})")
        if got != want:
            failures.append(case)
            print(output)

    with tempfile.TemporaryDirectory() as tmp:
        base = write_results(tmp, "base", {"qps": 1000.0,
                                           "shard_qps_stddev": 100.0,
                                           "shard_qps_min": 200.0})
        spread = write_results(tmp, "spread", {"qps": 1000.0,
                                               "shard_qps_stddev": 10.0,
                                               "shard_qps_min": 120.0})
        slow = write_results(tmp, "slow", {"qps": 700.0,
                                           "shard_qps_stddev": 100.0,
                                           "shard_qps_min": 200.0})
        expect("spread drop passes", 0, *compare(base, spread))
        expect("30% qps drop fails", 1, *compare(base, slow))

        committed = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
        if not committed:
            failures.append("committed baselines")
            print("[FAIL] no committed BENCH_*.json files found")
        else:
            # Copied aside so the walk sees only the baseline files.
            copy = os.path.join(tmp, "committed")
            os.makedirs(copy)
            for path in committed:
                shutil.copy(path, copy)
            expect("committed baselines self-compare", 0,
                   *compare(copy, copy))

    if failures:
        print(f"{len(failures)} case(s) failed")
        return 1
    print("all cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

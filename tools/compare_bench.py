#!/usr/bin/env python3
"""Compare two pieces_bench result trees and flag throughput regressions.

Both --baseline and --current are directories containing `<experiment>.jsonl`
files as written by `pieces_bench --format=json --out=DIR` (possibly nested,
e.g. results/drift/drift.jsonl — the tree is walked recursively) and/or
`BENCH_<experiment>.json` baseline files as written by
`tools/bench_baseline.py` (the committed per-PR perf history at the repo
root). Rows are matched across the two trees by (experiment, section,
name, labels); for each matched pair, every throughput-like metric is
compared and a drop larger than --threshold (default 15%) is flagged.

Throughput metrics are those where higher is better: qps / ops-per-second
style counters. Spread metrics (`*_stddev`, `*_min`, `*_max`, `*_cv`)
describe how a value varies across workers or shards, not how fast the
system is, so they never gate even when their name contains a throughput
marker (a drop in `shard_qps_stddev` is good news). p99 metrics also
gate: an increase beyond
--latency-threshold (default 25%) is flagged as a regression — p99 at
smoke scale is noisy, hence the wider margin, but a tail that blows past
it is a real stall, not noise (set --latency-threshold 0 to disable).
Other latency metrics (p50, p999, raw ns) are reported informationally
when --show-latency is given but never affect the exit code.

Exit codes: 0 = no regression, 1 = at least one flagged regression,
2 = usage or parse error.

Usage:
    tools/compare_bench.py --baseline old_results/ --current results/
    tools/compare_bench.py --baseline a/ --current b/ --threshold 0.10
"""
import argparse
import json
import os
import sys

# A metric counts as throughput when its key contains one of these
# substrings (case-insensitive). Covers qps/achieved_qps/offered_qps from
# the service experiments and mops/ops_per_sec from the index microbenches.
THROUGHPUT_MARKERS = ("qps", "ops_per_sec", "mops", "throughput")
# ...unless it also matches one of these (offered_qps is the load we asked
# for, not what the system delivered — comparing it is meaningless).
THROUGHPUT_EXCLUDE = ("offered", "target")

LATENCY_MARKERS = ("ns", "p50", "p99", "p999", "latency")

# Suffixes of spread metrics: never gated, whatever else the name says.
SPREAD_SUFFIXES = ("_stddev", "_min", "_max", "_cv")


def is_spread(key: str) -> bool:
    return key.lower().endswith(SPREAD_SUFFIXES)


def is_throughput(key: str) -> bool:
    low = key.lower()
    if is_spread(low) or any(marker in low for marker in THROUGHPUT_EXCLUDE):
        return False
    return any(marker in low for marker in THROUGHPUT_MARKERS)


def is_latency(key: str) -> bool:
    low = key.lower()
    return any(marker in low for marker in LATENCY_MARKERS)


def is_gating_latency(key: str) -> bool:
    """p99 gates; p999 (too noisy at smoke scale), p50 and spread do not."""
    low = key.lower()
    return "p99" in low and "p999" not in low and not is_spread(low)


def add_row(rows, path, line_no, experiment, obj):
    """Records one row dict under its (experiment, section, name, labels)
    identity; duplicates keep the later occurrence, with a note."""
    labels = tuple(sorted(obj.get("labels", {}).items()))
    key = (experiment, obj.get("section", ""), obj.get("name", ""), labels)
    if key in rows:
        print(f"{path}:{line_no}: duplicate row identity {key[:3]}, "
              f"keeping the later one", file=sys.stderr)
    rows[key] = obj.get("metrics", {})


def load_baseline_file(rows, path):
    """Loads one BENCH_<experiment>.json file (bench_baseline.py output).
    Returns False on parse error."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            print(f"{path}: bad JSON: {e}", file=sys.stderr)
            return False
    if doc.get("type") != "bench_baseline":
        print(f"{path}: not a bench_baseline document, skipping",
              file=sys.stderr)
        return True
    experiment = doc.get("experiment", "")
    baseline_rows = doc.get("rows", [])
    if not baseline_rows:
        # A zero-row baseline gates nothing: every current row would count
        # as "new" and the comparison silently passes. That only happens
        # when bench_baseline.py was fed an empty/failed run — refuse it.
        print(f"{path}: baseline has zero rows (experiment "
              f"{experiment!r}); regenerate it from a successful run with "
              f"tools/bench_baseline.py", file=sys.stderr)
        return False
    for i, row in enumerate(baseline_rows, 1):
        add_row(rows, path, i, experiment, row)
    return True


def load_rows(root: str):
    """Walks `root` for .jsonl result files and BENCH_*.json baselines;
    returns {row_key: metrics dict}."""
    rows = {}
    for dirpath, _, filenames in os.walk(root):
        for filename in sorted(filenames):
            path = os.path.join(dirpath, filename)
            if filename.startswith("BENCH_") and filename.endswith(".json"):
                if not load_baseline_file(rows, path):
                    return None
                continue
            if not filename.endswith(".jsonl"):
                continue
            with open(path, encoding="utf-8") as f:
                for line_no, line in enumerate(f, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        obj = json.loads(line)
                    except json.JSONDecodeError as e:
                        print(f"{path}:{line_no}: bad JSON: {e}",
                              file=sys.stderr)
                        return None
                    if obj.get("type") != "row":
                        continue
                    add_row(rows, path, line_no, obj.get("experiment", ""),
                            obj)
    return rows


def describe(key) -> str:
    experiment, section, name, labels = key
    parts = [experiment]
    if section:
        parts.append(section)
    parts.append(name)
    parts += [f"{k}={v}" for k, v in labels]
    return " / ".join(parts)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True,
                    help="directory of baseline .jsonl results")
    ap.add_argument("--current", required=True,
                    help="directory of current .jsonl results")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="fractional throughput drop that counts as a "
                         "regression (default 0.15 = 15%%)")
    ap.add_argument("--latency-threshold", type=float, default=0.25,
                    help="fractional p99 increase that counts as a "
                         "regression (default 0.25 = 25%%; 0 disables "
                         "the latency gate)")
    ap.add_argument("--show-latency", action="store_true",
                    help="also print latency deltas (informational only)")
    ap.add_argument("--github-annotations", action="store_true",
                    help="emit ::warning:: lines for GitHub Actions")
    args = ap.parse_args()

    for root in (args.baseline, args.current):
        if not os.path.isdir(root):
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2
    baseline = load_rows(args.baseline)
    current = load_rows(args.current)
    if baseline is None or current is None:
        return 2
    if not baseline:
        print(f"error: no result rows under {args.baseline}",
              file=sys.stderr)
        return 2

    matched = 0
    compared = 0
    regressions = []
    for key, base_metrics in sorted(baseline.items()):
        cur_metrics = current.get(key)
        if cur_metrics is None:
            continue
        matched += 1
        for metric, base_val in base_metrics.items():
            cur_val = cur_metrics.get(metric)
            if cur_val is None or base_val is None:
                continue
            if is_throughput(metric):
                if base_val <= 0:
                    continue
                compared += 1
                delta = (cur_val - base_val) / base_val
                if delta < -args.threshold:
                    regressions.append((key, metric, base_val, cur_val,
                                        delta))
            elif (args.latency_threshold > 0 and is_gating_latency(metric)
                  and base_val > 0):
                compared += 1
                delta = (cur_val - base_val) / base_val
                if delta > args.latency_threshold:
                    regressions.append((key, metric, base_val, cur_val,
                                        delta))
            elif args.show_latency and is_latency(metric) and base_val > 0:
                delta = (cur_val - base_val) / base_val
                if abs(delta) > args.threshold:
                    print(f"  [latency] {describe(key)} {metric}: "
                          f"{base_val:.0f} -> {cur_val:.0f} "
                          f"({delta:+.1%})")

    unmatched = len(baseline) - matched
    print(f"compared {compared} gated metrics (throughput + p99) across "
          f"{matched} matched rows ({unmatched} baseline rows had no "
          f"counterpart; throughput threshold {args.threshold:.0%}, p99 "
          f"threshold {args.latency_threshold:.0%})")
    if not regressions:
        print("no regressions flagged")
        return 0
    for key, metric, base_val, cur_val, delta in regressions:
        kind = "p99" if is_gating_latency(metric) else "throughput"
        line = (f"{describe(key)} {metric}: {base_val:.1f} -> "
                f"{cur_val:.1f} ({delta:+.1%}, {kind})")
        print(f"  REGRESSION {line}")
        if args.github_annotations:
            print(f"::warning title=bench regression::{line}")
    print(f"{len(regressions)} regression(s) flagged")
    return 1


if __name__ == "__main__":
    sys.exit(main())

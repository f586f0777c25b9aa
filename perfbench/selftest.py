#!/usr/bin/env python3
"""Self-test of the headline benchmark.

    python3 perfbench/selftest.py

Checks, at reduced scale, that the benchmark can tell a broken or slower
program from a correct one:

 1. Every workload, untraced and traced, prints every metric BENCHMARK.json
    names, with its unit, and passes its correctness gate; the traced run's
    service, store, index and replication self times account for the
    request span.
 2. A payload-corrupting StoreBackend decorator (--corrupt-payload) fails
    the run: non-zero exit and "correct": false.
 3. Two identical read_mem runs agree on read_p50_us within its bound, and
    the same run with injected PMem read latency
    (ViperStore::Config::read_latency_ns) lands past that bound.

Exits 0 when every check passes. Takes about a minute.
"""

import json
import subprocess
import sys
import os

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

TINY = ["--scale", "0.02"]
SLOWDOWN_NS = "4000"


def invoke(workload, trace, extra, seconds=1, seed=7):
    """Runs run.py as the benchmark command would; returns (rc, result)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + extra
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          timeout=bench.RUN_TIMEOUT_S + 60)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


def main():
    contract = bench.load_contract()
    bench.build()
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    # 1. Every metric, every workload, both modes.
    for w in contract["workloads"]:
        for trace in (0, 1):
            rc, result = invoke(w["name"], trace, TINY)
            ok = rc == 0 and result is not None and result["correct"] and \
                bench.check_result(result, contract, trace) is None
            check(ok, f"{w['name']} trace={trace}: all "
                  f"{len(result['metrics']) if result else 0} metrics "
                  "printed with units, correct")
            if ok:
                for name, m in result["metrics"].items():
                    print(f"       {name} = {m['value']:.6g} {m['unit']}")
            if ok and trace:
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                total = sum(metrics[f"{layer}.self_frac"]
                            for layer in ("service", "store", "index", "repl"))
                check(abs(total - 1) < 1e-6 and
                      metrics["trace.attributed_frac"] > 0.99 and
                      min(metrics[f"{layer}.self_frac"] for layer in
                          ("service", "store", "index", "repl")) >= 0,
                      f"{w['name']}: layer self times sum to {total:.6f} of "
                      f"the request span, "
                      f"{metrics['trace.attributed_frac']:.4f} of store time "
                      "linked to requests")

    # 2. The correctness gate bites.
    rc, result = invoke("read_mem", 1, TINY + ["--corrupt-payload"])
    check(rc != 0 and result is not None and not result["correct"] and
          result["failed"] > 0,
          f"corrupted payloads fail the run (exit {rc}, failed "
          f"{result['failed'] if result else '?'})")

    # 3. Noise stays inside the bound; a real slowdown does not.
    bound = next(m["bound"] for m in contract["end_to_end"]
                 if m["name"] == "read_p50_us")
    small = ["--scale", "0.25"]
    p50 = []
    for _ in range(2):
        rc, result = invoke("read_mem", 0, small, seconds=10)
        check(rc == 0, "read_mem baseline run exits 0")
        p50.append(result["metrics"]["read_p50_us"]["value"])
    drift = abs(p50[0] - p50[1]) / min(p50)
    check(drift <= bound, f"identical runs: read_p50_us {p50[0]:.3f} vs "
          f"{p50[1]:.3f} us differ by {drift:.3f} <= bound {bound}")
    rc, result = invoke("read_mem", 0,
                        small + ["--read-latency-ns", SLOWDOWN_NS], seconds=10)
    slow = result["metrics"]["read_p50_us"]["value"]
    worse = slow / max(p50) - 1
    check(rc == 0 and worse > bound,
          f"{SLOWDOWN_NS} ns injected read latency: read_p50_us {slow:.3f} "
          f"us is {worse:.3f} worse > bound {bound}")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

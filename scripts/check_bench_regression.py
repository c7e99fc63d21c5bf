#!/usr/bin/env python3
"""Compare a freshly measured benchmark snapshot against the committed one.

Three snapshot shapes are understood, detected from the document itself:

* The speedup suite (BENCH_suite.json, from fig10_speedup --json): the
  geomean of per-benchmark speedups gates, and so does every row on its
  own -- no benchmark may run slower with the JIT on than the interpreter
  by more than the noise band (speedup >= 1 - threshold). Per-row deltas
  against the snapshot are advisory.
* The serving harness (BENCH_server_throughput.json, from
  server_throughput --json): every config row gates on both throughput
  (scripts_per_sec may not drop more than the threshold) and tail latency
  (p99_ms may not rise more than twice the threshold -- tails are noisier
  than means on shared runners).
* The tier-hostile kernels (BENCH_tier_hostile.json, from
  tier_hostile --json): each kernel row gates on trace_ms (the trace
  tier's own time, which the interpreter <-> trace transition costs
  dominate) vs the committed snapshot, and the megamorphic,
  unbiased-branch and deep-call rows also gate on an absolute floor: the
  trace tier at least 2x the interpreter (interp_ms / trace_ms >= 2).
  trace_ms is compared per interpreter millisecond of the same run
  (trace_ms / interp_ms), so a snapshot taken on one host can gate a run
  on a faster or slower one.

The committed snapshot is the perf-trajectory record: every PR that claims
a speedup (or must not cost one) regenerates it, and CI re-measures so an
optimizer or backend change cannot silently give back what an earlier PR
bought.

Usage:
  check_bench_regression.py BASELINE.json FRESH.json [--threshold 0.10]

Exit status: 0 = within threshold, 1 = regression, 2 = malformed input.
"""

import argparse
import json
import math
import sys


def geomean_speedup(doc):
    """Prefer recomputing from the per-benchmark rows; fall back to the
    stored field for older snapshots."""
    rows = doc.get("benchmarks", [])
    speedups = [r["speedup"] for r in rows if r.get("speedup", 0) > 0]
    if speedups:
        return math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    if "geomean_speedup" in doc:
        return float(doc["geomean_speedup"])
    raise ValueError("no benchmarks[] rows and no geomean_speedup field")


def check_suite(base, fresh, threshold):
    base_gm = geomean_speedup(base)
    fresh_gm = geomean_speedup(fresh)

    ratio = fresh_gm / base_gm
    print(f"baseline geomean speedup: {base_gm:.2f}x")
    print(f"fresh geomean speedup:    {fresh_gm:.2f}x")
    print(f"ratio: {ratio:.3f} (threshold: >= {1 - threshold:.3f})")

    # Per-row floor: with the JIT on, no benchmark may be slower than the
    # interpreter beyond the noise band. Deltas vs the snapshot stay
    # advisory: single kernels are noisy on shared CI runners.
    floor = 1 - threshold
    below_floor = []
    base_rows = {r["name"]: r for r in base.get("benchmarks", [])}
    for r in fresh.get("benchmarks", []):
        marker = ""
        if r.get("speedup", 0) < floor:
            marker = f"  <-- below the {floor:.2f}x row floor"
            below_floor.append(f"{r['name']}: {r.get('speedup', 0):.2f}x")
        b = base_rows.get(r["name"])
        if not b or b.get("speedup", 0) <= 0 or r.get("speedup", 0) <= 0:
            print(f"  {r['name']:28s} (new row) {r.get('speedup', 0):8.2f}x"
                  f"{marker}")
            continue
        d = r["speedup"] / b["speedup"]
        if not marker and d < 1 - threshold:
            marker = "  <-- slower"
        print(f"  {r['name']:28s} {b['speedup']:8.2f}x -> "
              f"{r['speedup']:8.2f}x  ({d:5.3f}){marker}")

    failed = False
    if ratio < 1 - threshold:
        print(f"FAIL: geomean regressed more than "
              f"{threshold * 100:.0f}% vs the committed snapshot",
              file=sys.stderr)
        failed = True
    if below_floor:
        print(f"FAIL: rows below the {floor:.2f}x speedup floor "
              f"(JIT on slower than the interpreter):", file=sys.stderr)
        for row in below_floor:
            print(f"  {row}", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("OK: no geomean regression, every row above the floor")
    return 0


# The tier-hostile kernels that must run at least 2x the interpreter.
TIER_HOSTILE_FLOOR_ROWS = ("megamorphic", "unbiased-branch", "deep-call")


def check_tier_hostile(base, fresh, threshold):
    base_rows = {k["name"]: k for k in base["kernels"]}
    failures = []

    # The trace tier's own time, per interpreter ms of the same run (raw ms
    # follow the host's speed). Lower is better.
    def trace_per_interp(row):
        return row["trace_ms"] / row["interp_ms"]

    for k in fresh["kernels"]:
        b = base_rows.get(k["name"])
        if b is None:
            print(f"  {k['name']:20s} (new kernel, not gated)")
            continue
        marker = ""
        # The absolute acceptance floor: the kernels the paper's pipeline
        # used to lose on must stay >= 2x the interpreter, regardless of
        # the baseline.
        speedup = k["interp_ms"] / k["trace_ms"]
        if k["name"] in TIER_HOSTILE_FLOOR_ROWS and speedup < 2.0:
            marker = "  <-- below the 2x acceptance floor"
            failures.append(
                f"{k['name']}: interp_ms/trace_ms {speedup:.2f}x "
                f"is below the 2x floor")
        # A rise beyond the threshold vs the snapshot is the regression.
        trace_ratio = trace_per_interp(k) / trace_per_interp(b)
        if trace_ratio > 1 + threshold:
            marker = "  <-- trace_ms regressed"
            failures.append(
                f"{k['name']}: trace_ms/interp_ms "
                f"{trace_per_interp(b):.3f} -> {trace_per_interp(k):.3f} "
                f"({trace_ratio:.3f})")
        print(f"  {k['name']:20s} speedup {speedup:6.2f}x  trace/interp "
              f"{trace_per_interp(b):6.3f} -> {trace_per_interp(k):6.3f} "
              f"({trace_ratio:5.3f}){marker}")

    if failures:
        print("FAIL: tier-hostile kernels regressed vs the committed "
              "snapshot:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("OK: no tier-hostile regression")
    return 0


def check_server(base, fresh, threshold):
    base_cfgs = {c["name"]: c for c in base["configs"]}
    failures = []
    for c in fresh["configs"]:
        b = base_cfgs.get(c["name"])
        if b is None:
            print(f"  {c['name']:20s} (new config, not gated)")
            continue
        if not c.get("ok", True):
            failures.append(f"{c['name']}: run reported ok=false")
            continue
        tp_ratio = c["scripts_per_sec"] / b["scripts_per_sec"]
        # The p99 gate is twice as loose as the throughput gate: a single
        # slow request moves the tail far more than it moves the mean.
        p99_ratio = c["p99_ms"] / b["p99_ms"] if b["p99_ms"] > 0 else 1.0
        tp_bad = tp_ratio < 1 - threshold
        p99_bad = p99_ratio > 1 + 2 * threshold
        marker = ""
        if tp_bad:
            marker = "  <-- throughput regressed"
            failures.append(
                f"{c['name']}: scripts_per_sec {b['scripts_per_sec']:.1f} -> "
                f"{c['scripts_per_sec']:.1f} ({tp_ratio:.3f})")
        if p99_bad:
            marker = "  <-- p99 regressed"
            failures.append(
                f"{c['name']}: p99_ms {b['p99_ms']:.1f} -> "
                f"{c['p99_ms']:.1f} ({p99_ratio:.3f})")
        print(f"  {c['name']:20s} {b['scripts_per_sec']:8.1f} -> "
              f"{c['scripts_per_sec']:8.1f} scripts/s ({tp_ratio:5.3f})  "
              f"p99 {b['p99_ms']:7.1f} -> {c['p99_ms']:7.1f} ms "
              f"({p99_ratio:5.3f}){marker}")

    if failures:
        print("FAIL: serving configs regressed vs the committed snapshot:",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("OK: no serving regression")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="allowed fractional drop (default 0.10)")
    args = ap.parse_args()

    try:
        with open(args.baseline) as f:
            base = json.load(f)
        with open(args.fresh) as f:
            fresh = json.load(f)
        def shape(doc):
            if "configs" in doc:
                return "server"
            if "kernels" in doc:
                return "tier_hostile"
            return "suite"
        if shape(base) != shape(fresh):
            raise ValueError("baseline and fresh snapshots have different "
                             "shapes (suite vs server vs tier_hostile)")
        if shape(base) == "server":
            return check_server(base, fresh, args.threshold)
        if shape(base) == "tier_hostile":
            return check_tier_hostile(base, fresh, args.threshold)
        return check_suite(base, fresh, args.threshold)
    except (OSError, ValueError, KeyError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

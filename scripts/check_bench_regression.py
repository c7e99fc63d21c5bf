#!/usr/bin/env python3
"""Gate a fresh benchmark snapshot against the committed BENCH.json.

Both documents come from `bench/snapshot --json=FILE`: a "host" object and
"rows", each row keyed on (group, name). Every committed row must be in the
fresh document; a fresh row the snapshot lacks is reported, not gated.

The gates, per group:

* suite (Fig. 10): the geomean speedup over the rows both documents have
  is at least 0.90x the snapshot's, and every row's speedup is at least
  0.90 -- with the JIT on, no program may run slower than the interpreter
  beyond the noise band.
* tier_hostile: megamorphic, unbiased-branch and deep-call run at least 2x
  the interpreter, and each row's jit_ms / interp_ms rises at most 1.25x
  over the snapshot's. The ratio is per interpreter ms of the same run, so
  a snapshot from one host can gate a run on a faster or slower one.
* serve: the run is ok (every request printed its checksum), scripts/s is
  at least 0.60x the snapshot's and p99 at most 1.80x -- serving swings far
  more than single-engine kernels on shared runners, so these catch cliffs
  (a lock in the compile queue, cache thrash), not drift.

Usage:
  check_bench_regression.py BASELINE.json FRESH.json

Exit status: 0 = every gate holds, 1 = regression, 2 = malformed input.
"""

import json
import math
import sys

SUITE_GEOMEAN_RATIO = 0.90
SUITE_ROW_FLOOR = 0.90
TIER_FLOOR = 2.0
TIER_FLOOR_ROWS = ("megamorphic", "unbiased-branch", "deep-call")
TIER_RATIO_RISE = 1.25
SERVE_THROUGHPUT_RATIO = 0.60
SERVE_P99_RISE = 1.80

GROUPS = ("suite", "tier_hostile", "serve")


def rows_by_key(doc):
    rows = {}
    for r in doc["rows"]:
        key = (r["group"], r["name"])
        if r["group"] not in GROUPS:
            raise ValueError(f"row {key}: unknown group")
        if key in rows:
            raise ValueError(f"row {key} appears twice")
        rows[key] = r
    return rows


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def check_suite(base, fresh, failures):
    shared = [n for n in fresh if n in base]
    if shared:
        base_gm = geomean([base[n]["speedup"] for n in shared])
        fresh_gm = geomean([fresh[n]["speedup"] for n in shared])
        ratio = fresh_gm / base_gm
        print(f"suite geomean speedup {base_gm:.2f}x -> {fresh_gm:.2f}x "
              f"({ratio:.3f}, gate >= {SUITE_GEOMEAN_RATIO:.2f})")
        if ratio < SUITE_GEOMEAN_RATIO:
            failures.append(f"suite: geomean speedup {base_gm:.2f}x -> "
                            f"{fresh_gm:.2f}x ({ratio:.3f} < "
                            f"{SUITE_GEOMEAN_RATIO:.2f})")
    for name, r in fresh.items():
        b = base.get(name)
        was = f"{b['speedup']:8.2f}x -> " if b else "   (new) -> "
        marker = ""
        if r["speedup"] < SUITE_ROW_FLOOR:
            marker = f"  <-- below the {SUITE_ROW_FLOOR:.2f}x row floor"
            failures.append(f"suite/{name}: speedup {r['speedup']:.2f}x is "
                            f"below the {SUITE_ROW_FLOOR:.2f}x row floor")
        print(f"  {name:28s} {was}{r['speedup']:8.2f}x{marker}")


def check_tier_hostile(base, fresh, failures):
    for name, r in fresh.items():
        per_interp = r["jit_ms"] / r["interp_ms"]
        marker = ""
        if name in TIER_FLOOR_ROWS and r["speedup"] < TIER_FLOOR:
            marker = f"  <-- below the {TIER_FLOOR:.0f}x floor"
            failures.append(f"tier_hostile/{name}: speedup "
                            f"{r['speedup']:.2f}x is below the "
                            f"{TIER_FLOOR:.0f}x floor")
        b = base.get(name)
        if b is None:
            print(f"  {name:20s} speedup {r['speedup']:6.2f}x  (new row)"
                  f"{marker}")
            continue
        base_per_interp = b["jit_ms"] / b["interp_ms"]
        rise = per_interp / base_per_interp
        if rise > TIER_RATIO_RISE:
            marker += "  <-- jit/interp regressed"
            failures.append(f"tier_hostile/{name}: jit_ms/interp_ms "
                            f"{base_per_interp:.3f} -> {per_interp:.3f} "
                            f"({rise:.3f} > {TIER_RATIO_RISE:.2f})")
        print(f"  {name:20s} speedup {r['speedup']:6.2f}x  jit/interp "
              f"{base_per_interp:6.3f} -> {per_interp:6.3f} "
              f"({rise:5.3f}){marker}")


def check_serve(base, fresh, failures):
    for name, r in fresh.items():
        if not r["ok"]:
            failures.append(f"serve/{name}: run reported ok=false")
        b = base.get(name)
        if b is None:
            print(f"  {name:20s} {r['scripts_per_sec']:8.1f} scripts/s "
                  f"(new row)")
            continue
        tp = r["scripts_per_sec"] / b["scripts_per_sec"]
        p99 = r["p99_ms"] / b["p99_ms"]
        marker = ""
        if tp < SERVE_THROUGHPUT_RATIO:
            marker = "  <-- throughput regressed"
            failures.append(f"serve/{name}: scripts_per_sec "
                            f"{b['scripts_per_sec']:.1f} -> "
                            f"{r['scripts_per_sec']:.1f} ({tp:.3f} < "
                            f"{SERVE_THROUGHPUT_RATIO:.2f})")
        if p99 > SERVE_P99_RISE:
            marker += "  <-- p99 regressed"
            failures.append(f"serve/{name}: p99_ms {b['p99_ms']:.1f} -> "
                            f"{r['p99_ms']:.1f} ({p99:.3f} > "
                            f"{SERVE_P99_RISE:.2f})")
        print(f"  {name:20s} {b['scripts_per_sec']:8.1f} -> "
              f"{r['scripts_per_sec']:8.1f} scripts/s ({tp:5.3f})  p99 "
              f"{b['p99_ms']:7.1f} -> {r['p99_ms']:7.1f} ms ({p99:5.3f})"
              f"{marker}")


CHECKS = {"suite": check_suite, "tier_hostile": check_tier_hostile,
          "serve": check_serve}


def check(base_doc, fresh_doc):
    """Prints every row and returns the failures, one line each."""
    base = rows_by_key(base_doc)
    fresh = rows_by_key(fresh_doc)
    failures = [f"{g}/{n}: in the snapshot but missing from the fresh run"
                for (g, n) in base if (g, n) not in fresh]
    for group in GROUPS:
        b = {n: r for (g, n), r in base.items() if g == group}
        f = {n: r for (g, n), r in fresh.items() if g == group}
        if b and f:
            print(f"{group}:")
            CHECKS[group](b, f, failures)
    return failures


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            base = json.load(f)
        with open(argv[2]) as f:
            fresh = json.load(f)
        failures = check(base, fresh)
    except (OSError, ValueError, KeyError, TypeError,
            ZeroDivisionError) as e:
        print(f"error: {e!r}", file=sys.stderr)
        return 2
    if failures:
        print("FAIL:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("OK: every gate holds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

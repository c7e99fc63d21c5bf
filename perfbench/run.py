#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds the perfbench binary from source (perfbench/CMakeLists.txt
pulls in the root project, so the engine is the default RelWithDebInfo build)
into .bench_build/ at the repository root, then runs one workload. The binary
prints a human-readable table and, as the last line of standard output, one
JSON object with the keys correct, attempted, failed and metrics.

--smoke runs every workload of BENCHMARK.json, and serve, for one second in
both modes and fails unless each run emits exactly the metrics BENCHMARK.json
names for that mode, every value is finite, and no op failed. serve is not in
BENCHMARK.json because its figures are not steady on a shared host (see
README.md), but it is still a workload of the benchmark.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configure (once) and build the binary; build output goes to stderr."""
    def call(cmd):
        return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0

    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not call(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return False
    return call(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])


def run(workload, seed, seconds, trace, capture=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--programs", os.path.join(HERE, "programs")]
    if not capture:
        return subprocess.call(cmd), None
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stderr.write(p.stdout)
    return p.returncode, p.stdout


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for name in [w["name"] for w in spec["workloads"]] + ["serve"]:
        for trace in (0, 1):
            code, out = run(name, 1, 1, trace, capture=True)
            lines = out.strip().splitlines() if out else []
            problems = []
            if code != 0 or not lines:
                problems.append("exit code %d" % code)
            else:
                result = json.loads(lines[-1])
                metrics = result["metrics"]
                if set(metrics) != wanted[trace]:
                    problems.append("metrics differ: missing %s, extra %s" % (
                        sorted(wanted[trace] - set(metrics)),
                        sorted(set(metrics) - wanted[trace])))
                bad = [k for k, v in metrics.items()
                       if not isinstance(v["value"], (int, float))
                       or not math.isfinite(v["value"])]
                if bad:
                    problems.append("not finite: %s" % bad)
                if result["failed"] != 0 or not result["correct"]:
                    problems.append("failed_frac %d/%d" % (
                        result["failed"], result["attempted"]))
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print("smoke %-14s trace=%d: %s" % (name, trace, status))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    # TRACEJIT_TIER silently changes the engine's default tier.
    if "TRACEJIT_TIER" in os.environ:
        sys.stderr.write("run.py: refusing to run with TRACEJIT_TIER set\n")
        return 2
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    if not build():
        sys.stderr.write("run.py: build failed\n")
        return 1
    if args.smoke:
        return smoke()
    return run(args.workload, args.seed, args.seconds, args.trace)[0]


if __name__ == "__main__":
    sys.exit(main())

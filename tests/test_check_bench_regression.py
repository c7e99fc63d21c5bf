#!/usr/bin/env python3
"""Tests for scripts/check_bench_regression.py, the bench gate.

Builds BENCH.json documents in memory and checks that each gate passes an
identical document and trips just past its threshold. Run directly or
through ctest (check_bench_regression).
"""

import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "scripts", "check_bench_regression.py")
spec = importlib.util.spec_from_file_location("checker", SCRIPT)
checker = importlib.util.module_from_spec(spec)
spec.loader.exec_module(checker)


def speedup_row(group, name, interp_ms, jit_ms):
    return {"group": group, "name": name, "interp_ms": interp_ms,
            "jit_ms": jit_ms, "speedup": interp_ms / jit_ms}


def snapshot():
    return {
        "host": {"cores": 4, "cpu": "test"},
        "rows": [
            speedup_row("suite", "bitops-bitwise-and", 30.0, 1.0),
            speedup_row("suite", "math-cordic", 300.0, 20.0),
            speedup_row("suite", "3d-morph", 10.0, 3.0),
            speedup_row("suite", "controlflow-recursive", 8.0, 8.0),
            speedup_row("tier_hostile", "megamorphic", 24.0, 4.0),
            speedup_row("tier_hostile", "deep-call", 24.0, 1.0),
            {"group": "serve", "name": "4ctx-offthread", "workers": 4,
             "off_thread": True, "scripts_per_sec": 2000.0, "p50_ms": 50.0,
             "p99_ms": 100.0, "timeout_rate": 0.0, "ok": True},
        ],
    }


def row(doc, group, name):
    return next(r for r in doc["rows"]
                if r["group"] == group and r["name"] == name)


def set_speedup(r, speedup):
    r["jit_ms"] = r["interp_ms"] / speedup
    r["speedup"] = speedup


def failures(fresh):
    with redirect_stdout(io.StringIO()):
        return checker.check(snapshot(), fresh)


class CheckBenchRegression(unittest.TestCase):
    def assertFailsOn(self, fresh, text):
        found = failures(fresh)
        self.assertTrue(any(text in f for f in found),
                        f"no failure mentions {text!r}: {found}")

    def test_identical_documents_pass(self):
        self.assertEqual(failures(snapshot()), [])

    def test_geomean_eleven_percent_down_fails(self):
        fresh = snapshot()
        for r in fresh["rows"]:
            if r["group"] == "suite" and r["speedup"] > 2:
                set_speedup(r, r["speedup"] * 0.89 ** (4 / 3))
        found = failures(fresh)
        self.assertEqual(len(found), 1, found)
        self.assertIn("geomean", found[0])

    def test_geomean_nine_percent_down_passes(self):
        fresh = snapshot()
        for r in fresh["rows"]:
            if r["group"] == "suite" and r["speedup"] > 2:
                set_speedup(r, r["speedup"] * 0.91 ** (4 / 3))
        self.assertEqual(failures(fresh), [])

    def test_suite_row_under_the_floor_fails(self):
        fresh = snapshot()
        set_speedup(row(fresh, "suite", "controlflow-recursive"), 0.89)
        self.assertFailsOn(fresh, "suite/controlflow-recursive")

    def test_tier_row_under_two_x_fails(self):
        fresh = snapshot()
        set_speedup(row(fresh, "tier_hostile", "megamorphic"), 1.9)
        self.assertFailsOn(fresh, "tier_hostile/megamorphic: speedup 1.90x")

    def test_tier_jit_per_interp_up_26_percent_fails(self):
        fresh = snapshot()
        r = row(fresh, "tier_hostile", "deep-call")
        set_speedup(r, r["speedup"] / 1.26)
        found = failures(fresh)
        self.assertEqual(len(found), 1, found)
        self.assertIn("tier_hostile/deep-call: jit_ms/interp_ms", found[0])

    def test_tier_jit_per_interp_up_24_percent_passes(self):
        fresh = snapshot()
        r = row(fresh, "tier_hostile", "deep-call")
        set_speedup(r, r["speedup"] / 1.24)
        self.assertEqual(failures(fresh), [])

    def test_serve_throughput_down_41_percent_fails(self):
        fresh = snapshot()
        row(fresh, "serve", "4ctx-offthread")["scripts_per_sec"] *= 0.59
        self.assertFailsOn(fresh, "serve/4ctx-offthread: scripts_per_sec")

    def test_serve_p99_up_81_percent_fails(self):
        fresh = snapshot()
        row(fresh, "serve", "4ctx-offthread")["p99_ms"] *= 1.81
        self.assertFailsOn(fresh, "serve/4ctx-offthread: p99_ms")

    def test_serve_not_ok_fails(self):
        fresh = snapshot()
        row(fresh, "serve", "4ctx-offthread")["ok"] = False
        self.assertFailsOn(fresh, "serve/4ctx-offthread: run reported ok=false")

    def test_missing_row_fails(self):
        fresh = snapshot()
        fresh["rows"] = [r for r in fresh["rows"] if r["name"] != "3d-morph"]
        self.assertFailsOn(fresh, "suite/3d-morph: in the snapshot but missing")

    def test_new_row_meets_only_the_row_floor(self):
        fresh = snapshot()
        fresh["rows"].append(speedup_row("suite", "new-program", 10.0, 100.0))
        found = failures(fresh)
        # It has no snapshot to regress against, and the geomean gate
        # compares only the rows both documents have.
        self.assertEqual(found, ["suite/new-program: speedup 0.10x is below "
                                 "the 0.90x row floor"])

    def run_script(self, base_text, fresh_text):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, text in (("base.json", base_text),
                               ("fresh.json", fresh_text)):
                paths.append(os.path.join(d, name))
                with open(paths[-1], "w") as f:
                    f.write(text)
            return subprocess.run([sys.executable, SCRIPT] + paths,
                                  capture_output=True, text=True).returncode

    def test_exit_status(self):
        good = json.dumps(snapshot())
        bad = snapshot()
        set_speedup(row(bad, "suite", "3d-morph"), 0.5)
        self.assertEqual(self.run_script(good, good), 0)
        self.assertEqual(self.run_script(good, json.dumps(bad)), 1)
        self.assertEqual(self.run_script(good, "{\"rows\": [}"), 2)
        self.assertEqual(self.run_script(good, "{}"), 2)


if __name__ == "__main__":
    unittest.main()

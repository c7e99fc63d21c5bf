//===- ablation_stitching.cpp - §6.2: trace stitching ----------------------------------===//
//
// "Transitions from a trace to a branch trace at a side exit avoid the
// costs of calling traces from the monitor, in a feature called trace
// stitching." (§6.2) With stitching disabled, no branch traces are grown
// at all: every divergent iteration exits to the monitor, reboxes state,
// and re-enters -- the cost this feature exists to avoid.
//
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "suite.h"

using namespace tracejit;
using namespace tracejit_bench;

int main() {
  printf("=== §6.2 ablation: trace stitching on vs. off ===\n");

  const BenchProgram Branchy[] = {
      {"alternating-branches",
       "var a = 0, b = 0;\n"
       "for (var i = 0; i < 400000; ++i) {\n"
       "  if ((i & 1) == 0) a += i; else b += i;\n"
       "}\n"
       "print(a, b);",
       "39999800000 40000000000\n", true},
      {"three-way-mod",
       "var x = 0, y = 0, z = 0;\n"
       "for (var i = 0; i < 300000; ++i) {\n"
       "  var m = i % 3;\n"
       "  if (m == 0) x += 1; else if (m == 1) y += 2; else z += 3;\n"
       "}\n"
       "print(x, y, z);",
       "100000 200000 300000\n", true},
      {"rare-branch",
       "var s = 0;\n"
       "for (var i = 0; i < 400000; ++i) {\n"
       "  if ((i & 1023) == 0) s += 100; else s += 1;\n"
       "}\n"
       "print(s);",
       "438709\n", true},
  };

  printf("%-24s %12s %12s %9s %10s %10s\n", "workload", "stitch(ms)",
         "no-stitch(ms)", "benefit", "branches", "exits(off)");
  for (const BenchProgram &P : Branchy) {
    EngineOptions On = tracingOptions();
    On.CollectStats = true;
    EngineOptions Off = tracingOptions();
    Off.EnableStitching = false;
    Off.CollectStats = true;
    Timing T = timeConfigs(P, {On, Off}, 5);
    if (!T.Ok) {
      printf("%-24s FAILED: %s\n", P.Name, T.Error.c_str());
      continue;
    }
    printf("%-24s %12.2f %12.2f %8.2fx %10llu %10llu\n", P.Name,
           T.MedianMs[0], T.MedianMs[1], T.MedianMs[1] / T.MedianMs[0],
           (unsigned long long)T.Stats[0].BranchesCompiled,
           (unsigned long long)T.Stats[1].SideExits);
  }
  printf("\npaper shape check: branchy loops degrade sharply without "
         "stitching because every\noff-trunk iteration pays a full "
         "monitor round trip; rare branches barely care.\n");
  return 0;
}

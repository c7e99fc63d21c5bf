//===- fig12_time_breakdown.cpp - Reproduce Figure 12 --------------------------------===//
//
// Paper Figure 12 (referenced as "Fraction of time spent on each VM
// activity"): per-benchmark wall-clock percentages for the Figure 2 state
// machine: interpret / monitor / record / compile / native / exit-overhead,
// plus the garbage collector's own line.
// Claims to reproduce: "the total time spent in the monitor (for all
// activities) is usually less than 5%" (§6.3) and exit overhead can reach
// ~10% only for abort-heavy programs (§6.1).
//
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "suite.h"

using namespace tracejit;
using namespace tracejit_bench;

int main() {
  printf("=== Figure 12: fraction of runtime per VM activity ===\n");
  printf("%-26s %8s %8s %8s %8s %8s %8s %8s\n", "benchmark", "native%",
         "interp%", "monitor%", "record%", "compile%", "exit%", "gc%");

  for (const BenchProgram &P : suite()) {
    EngineOptions TO = tracingOptions();
    TO.CollectStats = true;
    RunResult T = runProgram(P, TO, /*Runs=*/3);
    if (!T.Ok) {
      printf("%-26s FAILED: %s\n", P.Name, T.Error.c_str());
      continue;
    }
    const VMStats &S = T.Stats;
    double Total = S.totalSeconds();
    if (Total <= 0)
      Total = 1;
    auto Pct = [&](Activity A) {
      return 100.0 * S.ActivitySeconds[(size_t)A] / Total;
    };
    printf("%-26s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
           P.Name, Pct(Activity::Native), Pct(Activity::Interpret),
           Pct(Activity::Monitor), Pct(Activity::RecordInterpret),
           Pct(Activity::Compile), Pct(Activity::ExitOverhead),
           Pct(Activity::Gc));
  }
  printf("\npaper shape check: traced benchmarks spend most time in the "
         "dark box (native);\nmonitor time stays small; recursion "
         "benchmarks are ~100%% interpret.\n");
  return 0;
}

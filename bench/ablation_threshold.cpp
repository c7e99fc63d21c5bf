//===- ablation_threshold.cpp - §3.2: hot-loop threshold -------------------------------===//
//
// "TraceMonkey starts a tree when a given loop header has been executed a
// certain number of times (2 in the current implementation)." (§3.2) --
// SunSpider programs are short (average 26ms), so eager compilation wins;
// this sweep shows how total runtime moves as the threshold grows.
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <vector>

#include "suite.h"

using namespace tracejit;
using namespace tracejit_bench;

int main() {
  printf("=== §3.2 ablation: hot-loop threshold sweep ===\n");
  const uint32_t Thresholds[] = {2, 8, 32, 128, 1024};

  printf("%-26s", "benchmark");
  for (uint32_t T : Thresholds)
    printf(" %7u", T);
  printf("   (median ms per threshold)\n");

  std::vector<EngineOptions> Configs;
  for (uint32_t T : Thresholds) {
    Configs.push_back(tracingOptions());
    Configs.back().HotLoopThreshold = T;
  }
  for (const BenchProgram &P : suite()) {
    printf("%-26s", P.Name);
    Timing T = timeConfigs(P, Configs, 3);
    if (!T.Ok) {
      printf(" FAILED: %s\n", T.Error.c_str());
      continue;
    }
    for (double Ms : T.MedianMs)
      printf(" %7.2f", Ms);
    printf("\n");
  }
  printf("\npaper shape check: for short-running programs the low "
         "threshold (2) is best or\nnear-best; large thresholds leave loops "
         "interpreted and converge toward the\nbaseline interpreter.\n");
  return 0;
}

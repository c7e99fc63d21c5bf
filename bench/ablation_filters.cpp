//===- ablation_filters.cpp - §5.1 filters + loop-optimizer ablation -----------===//
//
// Walks the OptPass registry: -O2 and -O0 first, then -O2 minus one pass at
// a time, quantifying what each stage buys on a filter-sensitive subset of
// the suite (runtime, residual LIR, and the loop-optimizer's own counters).
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <string>
#include <vector>

#include "suite.h"

using namespace tracejit;
using namespace tracejit_bench;

int main() {
  printf("=== §5.1 ablation: LIR pass pipeline ===\n");

  struct Config {
    std::string Name;
    OptPipeline Passes;
  };
  std::vector<Config> Configs;
  Configs.push_back({"-O2", OptPipeline::level(2)});
  Configs.push_back({"-O0", OptPipeline::level(0)});
  for (uint32_t B = 0; B < (uint32_t)OptPass::NumPasses; ++B) {
    OptPass P = (OptPass)B;
    Configs.push_back(
        {std::string("no-") + optPassName(P), OptPipeline::level(2).remove(P)});
  }
  Configs.push_back({"none", OptPipeline()});

  // A pass-sensitive subset (heavy on redundant loads/stores, guards, and
  // loop-invariant address arithmetic).
  const char *Names[] = {"bitops-3bit-bits-in-byte", "math-cordic",
                         "access-nsieve", "crypto-sha1", "3d-morph"};

  std::vector<EngineOptions> Options;
  for (const Config &C : Configs) {
    Options.push_back(tracingOptions());
    Options.back().Passes = C.Passes;
    Options.back().CollectStats = true;
  }
  for (const char *N : Names) {
    const BenchProgram *P = nullptr;
    for (const BenchProgram &Q : suite())
      if (std::string(Q.Name) == N)
        P = &Q;
    if (!P)
      continue;
    printf("\n%s:\n", P->Name);
    // The configurations interleave rep by rep, so the process warm-up and
    // host drift do not land on whichever row runs first.
    Timing T = timeConfigs(*P, Options, 5);
    if (!T.Ok) {
      printf("  FAILED: %s\n", T.Error.c_str());
      continue;
    }
    printf("  %-14s %10s %12s %12s %10s\n", "config", "time(ms)", "LIR-after",
           "guards-elim", "hoisted");
    for (size_t C = 0; C < Configs.size(); ++C) {
      const VMStats &S = T.Stats[C];
      printf("  %-14s %10.2f %12llu %12llu %10llu\n", Configs[C].Name.c_str(),
             T.MedianMs[C], (unsigned long long)S.LirAfterBackwardFilters,
             (unsigned long long)S.GuardsEliminated,
             (unsigned long long)(S.InsHoisted + S.GuardsHoisted));
    }
  }
  printf("\npaper shape check: the §5.1 filters shrink the LIR stream (dead "
         "stack\nstores dominate the removals); CSE drops dominated guards "
         "and hoisting then\ncuts the per-iteration guard count on loop "
         "kernels. No configuration may\nchange program output -- only time "
         "and counter columns move.\n");
  return 0;
}

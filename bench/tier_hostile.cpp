//===- tier_hostile.cpp - Trace-hostile kernels: interpreter vs trace ----------===//
//
// Three kernels that were built to defeat the trace pipeline: megamorphic
// dispatch, unbiased branching over megamorphic state, and a ten-deep call
// chain. The recorder traces through megamorphic sites with a generic
// lookup, and inlines call chains of any non-recursive depth, so all three
// compile. This bench runs each kernel with the JIT off (interp) and on
// (trace), and reports per-kernel times plus the trace speedup over the
// interpreter. The acceptance bar: trace >= 2x the interpreter on every
// kernel. The kernels are perfbench's (perfbench/programs), and every run
// of both configurations must print the committed .expected output.
//
// --json=FILE writes the canonical snapshot (BENCH_tier_hostile.json);
// scripts/check_bench_regression.py gates the trace rows against it.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "suite.h"

using namespace tracejit;

int main(int argc, char **argv) {
  std::string JsonPath;
  for (int I = 1; I < argc; ++I)
    if (!strncmp(argv[I], "--json=", 7))
      JsonPath = argv[I] + 7;

  EngineOptions Base;
  {
    // applyBenchArgs does not know --json=; strip it before forwarding.
    std::vector<char *> Args;
    for (int I = 0; I < argc; ++I)
      if (strncmp(argv[I], "--json=", 7))
        Args.push_back(argv[I]);
    tracejit_bench::applyBenchArgs(Base, (int)Args.size(), Args.data());
  }

  printf("=== Trace-hostile kernels: interpreter vs trace ===\n");
  printf("%-16s %12s %12s %10s\n", "kernel", "interp(ms)", "trace(ms)",
         "speedup");

  struct Row {
    const char *Name;
    double InterpMs, TraceMs, Speedup;
  };
  std::vector<Row> Rows;
  bool BarMet = true;
  for (const char *Name : {"megamorphic", "unbiased-branch", "deep-call"}) {
    tracejit_bench::BenchProgram K = tracejit_bench::loadProgram(Name);
    double Best[2] = {1e300, 1e300}; // [0] JIT off, [1] JIT on
    // Interleave the reps so frequency drift hits both configurations
    // evenly instead of whichever happened to run last.
    for (int Rep = 0; Rep < 5; ++Rep)
      for (int C = 0; C < 2; ++C) {
        EngineOptions O = Base;
        O.EnableJit = C == 1;
        O.CollectStats = true;
        std::string Error;
        double Ms = tracejit_bench::evalOnce(K, O, Error);
        if (Ms < 0) {
          fprintf(stderr, "%s (%s) failed: %s\n", Name,
                  C ? "trace" : "interp", Error.c_str());
          return 1;
        }
        Best[C] = std::min(Best[C], Ms);
      }
    double Speedup = Best[0] / Best[1];
    Rows.push_back({Name, Best[0], Best[1], Speedup});
    printf("%-16s %12.2f %12.2f %9.2fx\n", Name, Best[0], Best[1], Speedup);
    if (Speedup < 2.0) {
      fprintf(stderr, "%s: trace speedup %.2fx is below the 2x bar\n", Name,
              Speedup);
      BarMet = false;
    }
  }

  printf("\nacceptance bar (megamorphic, unbiased-branch, deep-call >= 2x): "
         "%s\n",
         BarMet ? "MET" : "NOT MET");

  if (!JsonPath.empty()) {
    FILE *F = fopen(JsonPath.c_str(), "w");
    if (!F) {
      fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    fprintf(F, "{\n  \"bench\": \"tier_hostile\",\n");
    fprintf(F, "  \"host\": %s,\n", tracejit_bench::hostJson().c_str());
    fprintf(F, "  \"kernels\": [\n");
    for (size_t I = 0; I < Rows.size(); ++I)
      fprintf(F,
              "    {\"name\": \"%s\", \"interp_ms\": %.2f, \"trace_ms\": "
              "%.2f, \"trace_speedup\": %.2f}%s\n",
              Rows[I].Name, Rows[I].InterpMs, Rows[I].TraceMs,
              Rows[I].Speedup, I + 1 < Rows.size() ? "," : "");
    fprintf(F, "  ]\n}\n");
    fclose(F);
    printf("wrote %s\n", JsonPath.c_str());
  }
  return BarMet ? 0 : 1;
}

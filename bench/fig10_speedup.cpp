//===- fig10_speedup.cpp - Reproduce Figure 10 -----------------------------------===//
//
// Paper Figure 10: "Speedup vs. a baseline interpreter (SpiderMonkey) for
// SunSpider. The tracing VM (TraceMonkey) is the fastest VM on 9 of the 26
// benchmarks... Tracing achieves the best speedups in integer-heavy
// benchmarks, up to the 25x speedup on bitops-bitwise-and."
//
// We report the speedup of the tracing JIT over our baseline interpreter
// per ported benchmark, using the SunSpider driver protocol (1 warmup + 10
// timed runs, mean). The SFX/V8 comparators are closed systems; see
// DESIGN.md for the substitution note. Expectations that must reproduce:
//   * integer/bit kernels show the largest speedups (order 10x-30x);
//   * FP/array kernels land in the 2x-10x band;
//   * the recursion benchmarks are not traced and stay near 1x.
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "suite.h"

using namespace tracejit_bench;

int main(int argc, char **argv) {
  // Optional canonical snapshot (the perf-trajectory record): --json=FILE.
  std::string JsonPath;
  for (int I = 1; I < argc; ++I)
    if (!strncmp(argv[I], "--json=", 7))
      JsonPath = argv[I] + 7;

  printf("=== Figure 10: speedup of tracing JIT over the baseline "
         "interpreter ===\n");
  printf("%-26s %12s %12s %9s  %s\n", "benchmark", "interp(ms)", "tracing(ms)",
         "speedup", "paper-expectation");

  struct Row {
    const char *Name;
    double InterpMs, TracingMs, Speedup;
  };
  std::vector<Row> Rows;
  double GeoProd = 1.0;
  int GeoN = 0;
  bool AllOk = true;
  for (const BenchProgram &P : suite()) {
    RunResult I = runProgram(P, interpreterOptions());
    RunResult T = runProgram(P, tracingOptions());
    if (!I.Ok || !T.Ok) {
      printf("%-26s FAILED: %s\n", P.Name,
             (!I.Ok ? I.Error : T.Error).c_str());
      AllOk = false;
      continue;
    }
    double Speedup = I.MeanMs / T.MeanMs;
    GeoProd *= Speedup;
    ++GeoN;
    Rows.push_back({P.Name, I.MeanMs, T.MeanMs, Speedup});
    printf("%-26s %12.2f %12.2f %8.2fx  %s\n", P.Name, I.MeanMs, T.MeanMs,
           Speedup, P.ExpectTraced ? "traced" : "untraced (recursion)");
  }
  double Geo = 0;
  if (GeoN) {
    // nth root via exp/log.
    Geo = __builtin_exp(__builtin_log(GeoProd) / GeoN);
    printf("\ngeometric-mean speedup over %d benchmarks: %.2fx\n", GeoN, Geo);
  }
  printf("\npaper shape check: integer-heavy kernels should lead; "
         "2x-20x typical; untraced ~1x.\n");

  if (!JsonPath.empty()) {
    FILE *F = fopen(JsonPath.c_str(), "w");
    if (!F) {
      fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    fprintf(F, "{\n  \"bench\": \"suite_speedup\",\n");
    fprintf(F, "  \"host\": %s,\n", hostJson().c_str());
    fprintf(F, "  \"geomean_speedup\": %.3f,\n  \"benchmarks\": [\n", Geo);
    for (size_t I = 0; I < Rows.size(); ++I)
      fprintf(F,
              "    {\"name\": \"%s\", \"interp_ms\": %.2f, \"tracing_ms\": "
              "%.2f, \"speedup\": %.2f}%s\n",
              Rows[I].Name, Rows[I].InterpMs, Rows[I].TracingMs,
              Rows[I].Speedup, I + 1 < Rows.size() ? "," : "");
    fprintf(F, "  ]\n}\n");
    fclose(F);
    printf("wrote %s\n", JsonPath.c_str());
  }
  return AllOk ? 0 : 1;
}

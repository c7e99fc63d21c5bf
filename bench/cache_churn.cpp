//===- cache_churn.cpp - Code-cache lifecycle under memory pressure ---------------------===//
//
// Measures the cost of whole-cache flushes when the working set of hot
// traces exceeds CodeCacheBytes. Workload: many distinct hot loops, each
// compiling to its own fragment. Three configurations: interpreter,
// tracing with an ample cache (no flushes), and tracing with a one-page
// cache (constant flush churn). The checksum line must match across all
// three -- a flush that corrupts state cannot masquerade as overhead.
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <string>

#include "suite.h"

using namespace tracejit;
using namespace tracejit_bench;

/// \p Loops distinct loop headers, each hot and each a distinct fragment.
static std::string churnSource(int Loops, int Iters) {
  std::string S = "var total = 0;\n";
  for (int L = 0; L < Loops; ++L) {
    std::string I = "i";
    I += std::to_string(L);
    std::string A = "a";
    A += std::to_string(L);
    S += "var " + A + " = 0;\n";
    S += "for (var " + I + " = 0; " + I + " < " + std::to_string(Iters) +
         "; ++" + I + ") { " + A + " += " + I + " * " +
         std::to_string(L + 1) + " + " + std::to_string(L % 5) + "; }\n";
    S += "total += " + A + ";\n";
  }
  S += "print(total);";
  return S;
}

int main() {
  printf("=== code-cache lifecycle: flush churn under a bounded cache ===\n");

  std::string Src = churnSource(24, 20000);
  const BenchProgram P{"cache-churn-24-loops", Src.c_str(), "", false};

  EngineOptions IO = interpreterOptions();

  EngineOptions Ample = tracingOptions();
  Ample.CollectStats = true; // default 32 MiB cache: everything fits

  EngineOptions Tiny = tracingOptions();
  Tiny.CollectStats = true;
  Tiny.CodeCacheBytes = 4096; // one page: a handful of fragments at most
  Tiny.MaxCacheFlushes = 1u << 20; // measure churn, not the kill switch

  RunResult I = runProgram(P, IO, 5);
  RunResult A = runProgram(P, Ample, 5);
  RunResult T = runProgram(P, Tiny, 5);
  if (!I.Ok || !A.Ok || !T.Ok) {
    printf("FAILED: %s%s%s\n", I.Error.c_str(), A.Error.c_str(),
           T.Error.c_str());
    return 1;
  }

  // Cross-configuration checksum: the flush-churned run must print exactly
  // what the interpreter prints.
  auto checksum = [&](const EngineOptions &O) {
    Engine E(O);
    std::string Out;
    E.setPrintHook([&](const std::string &S) { Out += S; });
    E.eval(P.Source);
    return Out;
  };
  std::string Want = checksum(IO);
  if (checksum(Ample) != Want || checksum(Tiny) != Want) {
    printf("FAILED: configurations disagree on the checksum\n");
    return 1;
  }

  printf("%-32s %10.2f ms\n", "interpreter", I.MeanMs);
  printf("%-32s %10.2f ms   (%.2fx of interpreter; trees=%llu, flushes=%llu)\n",
         "tracing, 32 MiB cache", A.MeanMs, A.MeanMs / I.MeanMs,
         (unsigned long long)A.Stats.TreesCompiled,
         (unsigned long long)A.Stats.CacheFlushes);
  printf("%-32s %10.2f ms   (%.2fx of interpreter; trees=%llu, flushes=%llu, "
         "retired=%llu, reclaimed=%llu KiB)\n",
         "tracing, 4 KiB cache", T.MeanMs, T.MeanMs / I.MeanMs,
         (unsigned long long)T.Stats.TreesCompiled,
         (unsigned long long)T.Stats.CacheFlushes,
         (unsigned long long)T.Stats.FragmentsRetired,
         (unsigned long long)(T.Stats.CacheBytesReclaimed / 1024));

  printf("\nshape check: the ample cache compiles each loop once and never "
         "flushes; the\none-page cache flushes repeatedly yet stays correct "
         "(identical checksum) and\nbounded -- each flush costs one pool "
         "reset plus re-warming the retired loops,\nnever unbounded memory.\n");
  return 0;
}

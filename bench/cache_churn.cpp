//===- cache_churn.cpp - Code-cache lifecycle under memory pressure ---------------------===//
//
// Measures the cost of whole-cache flushes when the working set of hot
// traces exceeds CodeCacheBytes. Workload: many distinct hot loops, each
// compiling to its own fragment. Three configurations: interpreter,
// tracing with an ample cache (no flushes), and tracing with a one-page
// cache (constant flush churn). Every run of all three must print the
// interpreter's checksum -- a flush that corrupts state cannot masquerade
// as overhead.
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

  const BenchProgram P{"cache-churn-24-loops", churnSource(24, 20000),
                       "59997920000\n", false};

  EngineOptions IO = interpreterOptions();

  EngineOptions Ample = tracingOptions();
  Ample.CollectStats = true; // default 32 MiB cache: everything fits

  EngineOptions Tiny = tracingOptions();
  Tiny.CollectStats = true;
  Tiny.CodeCacheBytes = 4096; // one page: a handful of fragments at most
  Tiny.MaxCacheFlushes = 1u << 20; // measure churn, not the kill switch

  Timing T = timeConfigs(P, {IO, Ample, Tiny}, 5);
  if (!T.Ok) {
    printf("FAILED: %s\n", T.Error.c_str());
    return 1;
  }
  const double *Ms = T.MedianMs.data();
  const VMStats &A = T.Stats[1], &Churn = T.Stats[2];

  printf("%-32s %10.2f ms\n", "interpreter", Ms[0]);
  printf("%-32s %10.2f ms   (%.2fx of interpreter; trees=%llu, flushes=%llu)\n",
         "tracing, 32 MiB cache", Ms[1], Ms[1] / Ms[0],
         (unsigned long long)A.TreesCompiled,
         (unsigned long long)A.CacheFlushes);
  printf("%-32s %10.2f ms   (%.2fx of interpreter; trees=%llu, flushes=%llu, "
         "retired=%llu, reclaimed=%llu KiB)\n",
         "tracing, 4 KiB cache", Ms[2], Ms[2] / Ms[0],
         (unsigned long long)Churn.TreesCompiled,
         (unsigned long long)Churn.CacheFlushes,
         (unsigned long long)Churn.FragmentsRetired,
         (unsigned long long)(Churn.CacheBytesReclaimed / 1024));

  printf("\nshape check: the ample cache compiles each loop once and never "
         "flushes; the\none-page cache flushes repeatedly yet stays correct "
         "(identical checksum) and\nbounded -- each flush costs one pool "
         "reset plus re-warming the retired loops,\nnever unbounded memory.\n");
  return 0;
}

//===- ablation_blacklist.cpp - §3.3: blacklisting -------------------------------------===//
//
// "If a hot loop contains traces that always fail, the VM could
// potentially run much more slowly than the base interpreter: the VM
// repeatedly spends time trying to record traces, but is never able to run
// any." (§3.3) -- blacklisting (backoff 32, failure limit 2, loop-header
// bytecode patching) bounds this cost.
//
// Workload: a hot loop whose body calls a recursive function, so every
// recording attempt aborts. We compare interpreter / tracing-with-
// blacklisting / tracing-without-blacklisting.
//
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "suite.h"

using namespace tracejit;
using namespace tracejit_bench;

int main() {
  printf("=== §3.3 ablation: blacklisting of untraceable hot loops ===\n");

  const BenchProgram P{
      "untraceable-hot-loop",
      "function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\n"
      "var s = 0;\n"
      "for (var i = 0; i < 60000; ++i) s += fib(3) + (i & 7);\n"
      "print(s);",
      "330000\n", false};

  EngineOptions IO = interpreterOptions();
  EngineOptions BlOn = tracingOptions();
  BlOn.CollectStats = true;
  EngineOptions BlOff = tracingOptions();
  BlOff.EnableBlacklisting = false;
  BlOff.CollectStats = true;

  Timing T = timeConfigs(P, {IO, BlOn, BlOff}, 5);
  if (!T.Ok) {
    printf("FAILED: %s\n", T.Error.c_str());
    return 1;
  }
  const double *Ms = T.MedianMs.data();

  printf("%-32s %10.2f ms\n", "interpreter", Ms[0]);
  printf("%-32s %10.2f ms   (%.2fx of interpreter; aborts=%llu, "
         "blacklisted=%llu)\n",
         "tracing + blacklisting", Ms[1], Ms[1] / Ms[0],
         (unsigned long long)T.Stats[1].TracesAborted,
         (unsigned long long)T.Stats[1].LoopsBlacklisted);
  printf("%-32s %10.2f ms   (%.2fx of interpreter; aborts=%llu)\n",
         "tracing, blacklisting OFF", Ms[2], Ms[2] / Ms[0],
         (unsigned long long)T.Stats[2].TracesAborted);

  printf("\npaper shape check: with blacklisting the overhead over the "
         "interpreter is\nbounded (a few failed attempts, then the header "
         "no-op is patched); without\nit the VM keeps re-attempting and "
         "recording overhead accumulates.\n");
  return 0;
}

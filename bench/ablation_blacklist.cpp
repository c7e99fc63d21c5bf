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

  RunResult I = runProgram(P, IO, 5);
  RunResult A = runProgram(P, BlOn, 5);
  RunResult B = runProgram(P, BlOff, 5);
  if (!I.Ok || !A.Ok || !B.Ok) {
    printf("FAILED: %s%s%s\n", I.Error.c_str(), A.Error.c_str(),
           B.Error.c_str());
    return 1;
  }

  printf("%-32s %10.2f ms\n", "interpreter", I.MeanMs);
  printf("%-32s %10.2f ms   (%.2fx of interpreter; aborts=%llu, "
         "blacklisted=%llu)\n",
         "tracing + blacklisting", A.MeanMs, A.MeanMs / I.MeanMs,
         (unsigned long long)A.Stats.TracesAborted,
         (unsigned long long)A.Stats.LoopsBlacklisted);
  printf("%-32s %10.2f ms   (%.2fx of interpreter; aborts=%llu)\n",
         "tracing, blacklisting OFF", B.MeanMs, B.MeanMs / I.MeanMs,
         (unsigned long long)B.Stats.TracesAborted);

  printf("\npaper shape check: with blacklisting the overhead over the "
         "interpreter is\nbounded (a few failed attempts, then the header "
         "no-op is patched); without\nit the VM keeps re-attempting and "
         "recording overhead accumulates.\n");
  return 0;
}

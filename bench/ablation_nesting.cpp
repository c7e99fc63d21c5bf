//===- ablation_nesting.cpp - §4: nested trace trees ----------------------------------===//
//
// §4 argues that without tree nesting a tracing VM must either duplicate
// outer-loop code O(n^k) times or give up on outer loops. Our ablation
// implements the second strawman (EnableNesting=false aborts any recording
// that reaches an inner loop header) and measures nested workloads both
// ways, also reporting how many traces were built.
//
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "suite.h"

using namespace tracejit;
using namespace tracejit_bench;

int main() {
  printf("=== §4 ablation: nested trace trees on vs. off ===\n");

  const BenchProgram Nested[] = {
      {"nest2-uniform",
       "var c = 0;\n"
       "for (var i = 0; i < 2000; ++i)\n"
       "  for (var j = 0; j < 200; ++j)\n"
       "    c = c + 1;\n"
       "print(c);",
       "400000\n", true},
      {"nest2-branchy-inner",
       "var a = 0, b = 0;\n"
       "for (var i = 0; i < 2000; ++i)\n"
       "  for (var j = 0; j < 200; ++j)\n"
       "    if ((i + j) % 3 == 0) a += 1; else b += 1;\n"
       "print(a, b);",
       "133333 266667\n", true},
      {"nest3-deep",
       "var c = 0;\n"
       "for (var i = 0; i < 64; ++i)\n"
       "  for (var j = 0; j < 64; ++j)\n"
       "    for (var k = 0; k < 64; ++k)\n"
       "      c = c + 1;\n"
       "print(c);",
       "262144\n", true},
      {"nest2-short-outer-work",
       "var s = 0;\n"
       "for (var i = 0; i < 30000; ++i) {\n"
       "  s += i & 7;\n"
       "  for (var j = 0; j < 8; ++j) s += 1;\n"
       "}\n"
       "print(s);",
       "345000\n", true},
  };

  printf("%-24s %12s %12s %9s %14s %14s\n", "workload", "nested(ms)",
         "no-nest(ms)", "benefit", "traces(nested)", "traces(none)");
  for (const BenchProgram &P : Nested) {
    EngineOptions On = tracingOptions();
    On.CollectStats = true;
    EngineOptions Off = tracingOptions();
    Off.EnableNesting = false;
    Off.CollectStats = true;
    Timing T = timeConfigs(P, {On, Off}, 5);
    if (!T.Ok) {
      printf("%-24s FAILED: %s\n", P.Name, T.Error.c_str());
      continue;
    }
    printf("%-24s %12.2f %12.2f %8.2fx %14llu %14llu\n", P.Name,
           T.MedianMs[0], T.MedianMs[1], T.MedianMs[1] / T.MedianMs[0],
           (unsigned long long)T.Stats[0].TracesCompleted,
           (unsigned long long)T.Stats[1].TracesCompleted);
  }
  printf("\npaper shape check: nesting wins when the outer loop carries "
         "real work per\niteration (the inner tree is called as one unit); "
         "with nesting off, outer\nloops never compile and every outer "
         "iteration re-enters the inner tree\nthrough the monitor.\n");
  return 0;
}

//===- sieve_trace_anatomy.cpp - Walk through the paper's §2 example --------------===//
//
// Runs the paper's Figure 1 program (sieve of Eratosthenes) and narrates
// what the trace machinery did, mirroring the §2 walkthrough: the inner
// loop compiles first (T45), the outer loop nests it (T16), and the hot
// `continue` side exit grows a branch trace (T23,1).
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <string>

#include "api/engine.h"
#include "lir/lir.h"
#include "trace/monitor.h"

using namespace tracejit;

int main() {
  EngineOptions Opts;
  Opts.CollectStats = true;

  Engine E(Opts);
  E.setPrintHook([](const std::string &S) { fputs(S.c_str(), stdout); });

  // Figure 1, plus initialization and a checksum.
  auto R = E.eval(R"js(
    var N = 1000;
    var primes = Array(N);
    for (var p = 0; p < N; ++p) primes[p] = true;

    for (var i = 2; i < N; ++i) {
      if (!primes[i]) continue;          // line 2-3: the branch that gets hot
      for (var k = i + i; k < N; k += i) // line 4-5: the inner loop (T45)
        primes[k] = false;
    }

    var count = 0;
    for (var n = 2; n < N; ++n) if (primes[n]) count = count + 1;
    print('primes below', N, '=', count);
  )js");
  if (!R.ok()) {
    fprintf(stderr, "%s\n", R.Err.describe().c_str());
    return 1;
  }

  TraceMonitor *M = E.context().Monitor;
  printf("\n--- trace anatomy (compare with paper §2) ---\n");
  for (const auto &F : M->fragments()) {
    if (F->Body.empty())
      continue;
    printf("fragment %u: %-6s anchor pc %u, entry %s\n", F->Id,
           F->Kind == FragmentKind::Root ? "root" : "branch", F->AnchorPc,
           F->EntryTypes.describe().c_str());
    printf("  %zu LIR instructions, %u native bytes, %u bytecodes/iteration,"
           " %llu iterations\n",
           F->Body.size(), F->NativeSize, F->BytecodesCovered,
           (unsigned long long)F->Iterations);
    int TreeCalls = 0;
    for (const LIns *I : F->Body)
      if (I->Op == LOp::TreeCall)
        ++TreeCalls;
    if (TreeCalls)
      printf("  calls %d nested tree(s) -- the outer loop treating the "
             "inner loop as one unit (paper Fig. 7b)\n",
             TreeCalls);
  }

  VMStats S = E.stats();
  printf("\ntrees=%llu branches=%llu tree-calls=%llu stitched=%llu "
         "side-exits=%llu\n",
         (unsigned long long)S.TreesCompiled,
         (unsigned long long)S.BranchesCompiled,
         (unsigned long long)S.TreeCalls,
         (unsigned long long)S.StitchedTransfers,
         (unsigned long long)S.SideExits);
  printf("\nExpected shape (paper §2): the inner loop compiles first; the\n"
         "outer loop's tree calls it; the `continue` path appears as a\n"
         "branch trace stitched to the outer tree.\n");
  return 0;
}

//===- fig1_sieve.cpp - The paper's running example (Figures 1-4) -------------------===//
//
// Figure 1's sieve of Eratosthenes is the paper's running example: the
// whole §2 narrative (record inner loop T45, nest it in outer tree T16,
// grow branch T23,1 at the hot `continue` exit) plays out on it. Figure 4
// additionally claims "The 17 instructions generated by the compiler
// compare favorably with the 100+ instructions that the interpreter would
// execute for the same code snippet".
//
// This harness runs the sieve, reports the speedup, and prints the trace
// topology (trees, branches, tree calls, stitches) plus the per-iteration
// LIR/native instruction footprint of the inner-loop trace versus the
// interpreter's per-iteration bytecode cost.
//
//===----------------------------------------------------------------------===//

#include <chrono>
#include <cstdio>
#include <string>

#include "api/engine.h"
#include "lir/lir.h"
#include "suite.h"
#include "trace/monitor.h"

using namespace tracejit;

static const char *Sieve = R"js(
var n = 30000;
var primes = Array(n);
var count = 0;
for (var rep = 0; rep < 10; rep++) {
  for (var p = 0; p < n; ++p) primes[p] = true;
  for (var i = 2; i < n; ++i) {
    if (!primes[i]) continue;
    for (var k = i + i; k < n; k += i)
      primes[k] = false;
  }
  count = 0;
  for (var q = 2; q < n; ++q) if (primes[q]) count = count + 1;
}
print(count);
)js";

static double timeRun(const EngineOptions &O, std::string *Out,
                      VMStats *Stats, JitEventListener *Listener = nullptr) {
  Engine E(O);
  if (Listener)
    E.addEventListener(Listener);
  std::string Captured;
  E.setPrintHook([&](const std::string &S) { Captured += S; });
  auto T0 = std::chrono::steady_clock::now();
  auto R = E.eval(Sieve);
  auto T1 = std::chrono::steady_clock::now();
  if (!R.ok()) {
    fprintf(stderr, "sieve failed: %s\n", R.Err.describe().c_str());
    return -1;
  }
  if (Out)
    *Out = Captured;
  if (Stats)
    *Stats = E.stats();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

int main(int argc, char **argv) {
  printf("=== Figure 1 example: sieve of Eratosthenes ===\n");

  EngineOptions Base;
  tracejit_bench::applyBenchArgs(Base, argc, argv);

  EngineOptions IO = Base;
  IO.EnableJit = false;
  std::string OutI;
  double TI = timeRun(IO, &OutI, nullptr);

  EngineOptions TO = Base;
  TO.EnableJit = true;
  TO.CollectStats = true;
  std::string OutT;
  VMStats S;
  double TT = timeRun(TO, &OutT, &S);

  printf("correctness: interp '%s' jit '%s' -> %s\n",
         OutI.substr(0, OutI.size() - 1).c_str(),
         OutT.substr(0, OutT.size() - 1).c_str(),
         OutI == OutT ? "MATCH" : "MISMATCH");
  printf("interp %.2f ms, tracing %.2f ms, speedup %.2fx\n", TI, TT, TI / TT);
  printf("trace topology: %llu trees, %llu branch traces, %llu tree calls, "
         "%llu stitched transfers\n",
         (unsigned long long)S.TreesCompiled,
         (unsigned long long)S.BranchesCompiled,
         (unsigned long long)S.TreeCalls,
         (unsigned long long)S.StitchedTransfers);

  // Observability overhead: the event-emission sites are gated on a single
  // listener-pointer branch, so a bare engine (no listener, CollectStats
  // off) should run at the same speed as before the event layer existed.
  {
    EngineOptions BO;
    BO.EnableJit = true;
    ChromeTraceCollector Capture;
    double TBare = 1e300, TCapture = 1e300;
    for (int K = 0; K < 3; ++K) {
      double T = timeRun(BO, nullptr, nullptr);
      if (T >= 0 && T < TBare)
        TBare = T;
      T = timeRun(BO, nullptr, nullptr, &Capture);
      if (T >= 0 && T < TCapture)
        TCapture = T;
    }
    printf("listener overhead: disabled %.2f ms, capturing %.2f ms "
           "(delta %+.2f%%, %zu events buffered)\n",
           TBare, TCapture, (TCapture / TBare - 1.0) * 100.0,
           Capture.events().size());
  }

  // Verifier overhead: the streaming VerifyWriter rides the recording
  // pipeline and verifyTrace runs once per finished trace, so the cost is
  // paid at compile time only -- steady-state loop iterations should be
  // untouched. Measure both configurations the same way as above.
  {
    EngineOptions VOff;
    VOff.EnableJit = true;
    VOff.VerifyLir = false;
    EngineOptions VOn = VOff;
    VOn.VerifyLir = true;
    VOn.CollectStats = true;
    double TOff = 1e300, TOn = 1e300;
    VMStats VS;
    for (int K = 0; K < 3; ++K) {
      double T = timeRun(VOff, nullptr, nullptr);
      if (T >= 0 && T < TOff)
        TOff = T;
      T = timeRun(VOn, nullptr, &VS);
      if (T >= 0 && T < TOn)
        TOn = T;
    }
    printf("verifier overhead: off %.2f ms, on %.2f ms (delta %+.2f%%, "
           "%llu traces / %llu instructions verified, %llu failures)\n",
           TOff, TOn, (TOn / TOff - 1.0) * 100.0,
           (unsigned long long)VS.TracesVerified,
           (unsigned long long)VS.LirInsVerified,
           (unsigned long long)VS.VerifyFailures);
  }

  // Static analysis: the abstract interpreter runs once per compiled
  // script, and every guard it lets the recorder skip is pure profit.
  // perfbench's analysis.us_per_script tracks its cost.
  printf("static analysis: %llu facts, %llu guards elided\n",
         (unsigned long long)S.AnalysisFacts,
         (unsigned long long)S.StaticGuardsElided);

  // Per-iteration footprint of the hottest fragment: reconstruct by
  // recompiling with a fresh engine and inspecting its fragments.
  {
    Engine E(TO);
    E.setPrintHook([](const std::string &) {});
    E.eval(Sieve);
    TraceMonitor *M = E.context().Monitor;
    const Fragment *Hot = nullptr;
    for (auto &F : M->fragments()) {
      if (F->Body.empty())
        continue;
      if (!Hot || F->Iterations > Hot->Iterations)
        Hot = F.get();
    }
    if (Hot) {
      printf("hottest fragment: %zu LIR instructions, %u native bytes, "
             "covering %u bytecodes per iteration (Figure 3/4 analog)\n",
             Hot->Body.size(), Hot->NativeSize, Hot->BytecodesCovered);
      printf("paper claim: specialized trace ~17 instructions vs 100+ "
             "interpreter steps for one sieve store line.\n");
    }
  }
  return OutI == OutT ? 0 : 1;
}

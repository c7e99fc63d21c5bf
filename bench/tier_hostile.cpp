//===- tier_hostile.cpp - Trace-hostile kernels across compilation tiers --------===//
//
// Three kernels that were built to defeat the trace pipeline: megamorphic
// dispatch, unbiased branching over megamorphic state, and call chains past
// the inline depth limit. The recorder now traces through megamorphic
// sites with a generic lookup, so only deep-call still aborts; under
// --tier=hybrid the first two stay on the trace tier and deep-call is
// promoted to the method tier. This bench runs each kernel on three
// configurations --
//
//   interp  -- JIT off (the floor);
//   trace   -- --tier=trace, the paper's pipeline with terminal
//              blacklisting/exit-blocking;
//   hybrid  -- --tier=hybrid, promotion to the method tier on aborts;
//
// and reports per-kernel times plus the hybrid speedup over the
// interpreter. The acceptance bar: hybrid >= 2x the interpreter on the
// megamorphic and unbiased-branch kernels.
//
// --json=FILE writes the canonical snapshot (BENCH_tier_hostile.json);
// scripts/check_bench_regression.py gates the hybrid speedups against it.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "suite.h"

using namespace tracejit;

// Megamorphic dispatch: eight shapes through one hot property site.
static const char *Megamorphic = R"js(
var objs = [];
for (var i = 0; i < 8; ++i) {
  var o = {};
  if (i == 0) { o.a = 1; }
  if (i == 1) { o.b = 1; o.a = 2; }
  if (i == 2) { o.c = 1; o.a = 3; }
  if (i == 3) { o.d = 1; o.a = 4; }
  if (i == 4) { o.e = 1; o.a = 5; }
  if (i == 5) { o.f = 1; o.a = 6; }
  if (i == 6) { o.g = 1; o.a = 7; }
  if (i == 7) { o.h = 1; o.a = 8; }
  objs[i] = o;
}
var t = 0;
for (var j = 0; j < 400000; ++j) {
  t = t + objs[j % 8].a;
}
print(t);
)js";

// Unbiased branches whose arms read megamorphic property sites (five
// shapes): each arm records the generic lookup, so the tree covers all
// four arms. The xorshift state machine stays in shift/mask arithmetic.
static const char *UnbiasedBranch = R"js(
var pool = [];
for (var i = 0; i < 8; ++i) {
  var o = {};
  var s = i % 5;
  if (s == 0) { o.p0 = 1; }
  if (s == 1) { o.p1 = 1; o.q1 = 2; }
  if (s == 2) { o.p2 = 1; }
  if (s == 3) { o.p3 = 1; o.q3 = 2; }
  if (s == 4) { o.p4 = 1; }
  o.v = i + 1;
  pool[i] = o;
}
var t = 0;
var x = 12345;
for (var j = 0; j < 400000; ++j) {
  x = (x ^ (x << 7)) & 1048575;
  x = x ^ (x >> 3);
  var k = x & 3;
  if (k == 0) { t = t + pool[x & 7].v; }
  else { if (k == 1) { t = t + pool[(x >> 1) & 7].v * 2; }
  else { if (k == 2) { t = t - pool[(x >> 2) & 7].v; }
  else { t = t + pool[(x >> 3) & 7].v + 1; } } }
}
print(t);
)js";

// A call chain deeper than MaxInlineDepth: the recorder aborts at the
// inline limit, hybrid promotes the loop shell. Calls run through the
// method tier's boxed call helper, so the win here is modest by design --
// the column documents that the method tier does not regress below the
// interpreter on call-heavy code.
static const char *DeepCall = R"js(
function fA(x) { return x + 1; }
function fB(x) { return fA(x) + 1; }
function fC(x) { return fB(x) + 1; }
function fD(x) { return fC(x) + 1; }
function fE(x) { return fD(x) + 1; }
function fF(x) { return fE(x) + 1; }
function fG(x) { return fF(x) + 1; }
function fH(x) { return fG(x) + 1; }
function fI(x) { return fH(x) + 1; }
function fJ(x) { return fI(x) + 1; }
var t = 0;
for (var i = 0; i < 100000; ++i) t = t + fJ(i & 1023);
print(t);
)js";

namespace {

struct Config {
  const char *Name;
  bool Jit;
  TierMode Tier;
};

double timeOnce(const char *Src, const EngineOptions &O, std::string *Out,
                VMStats *Stats) {
  Engine E(O);
  std::string Captured;
  E.setPrintHook([&](const std::string &S) { Captured += S; });
  auto T0 = std::chrono::steady_clock::now();
  auto R = E.eval(Src);
  auto T1 = std::chrono::steady_clock::now();
  if (!R.ok()) {
    fprintf(stderr, "tier_hostile failed: %s\n", R.Err.describe().c_str());
    return -1;
  }
  if (Out)
    *Out = Captured;
  if (Stats)
    *Stats = E.stats();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

} // namespace

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

  printf("=== Trace-hostile kernels across compilation tiers ===\n");
  printf("%-16s %12s %12s %12s %9s %9s\n", "kernel", "interp(ms)",
         "trace(ms)", "hybrid(ms)", "hyb-spd", "promoted");

  struct Kernel {
    const char *Name;
    const char *Src;
    bool MustDouble; ///< Acceptance bar: hybrid >= 2x interpreter.
  } Kernels[] = {
      {"megamorphic", Megamorphic, true},
      {"unbiased-branch", UnbiasedBranch, true},
      {"deep-call", DeepCall, false},
  };

  struct Row {
    const char *Name;
    double InterpMs, TraceMs, HybridMs, Speedup;
    uint64_t Promoted;
  };
  std::vector<Row> Rows;
  bool Ok = true;
  bool BarMet = true;
  for (const Kernel &K : Kernels) {
    Config Configs[] = {
        {"interp", false, TierMode::Trace},
        {"trace", true, TierMode::Trace},
        {"hybrid", true, TierMode::Hybrid},
    };
    double Best[3] = {1e300, 1e300, 1e300};
    std::string Outs[3];
    VMStats Stats[3];
    // Interleave the reps so frequency drift hits every configuration
    // evenly instead of whichever happened to run last.
    for (int Rep = 0; Rep < 5; ++Rep)
      for (int C = 0; C < 3; ++C) {
        EngineOptions O = Base;
        O.EnableJit = Configs[C].Jit;
        O.Tier = Configs[C].Tier;
        O.CollectStats = true;
        double Ms = timeOnce(K.Src, O, &Outs[C], &Stats[C]);
        if (Ms < 0)
          return 1;
        Best[C] = std::min(Best[C], Ms);
      }
    if (Outs[1] != Outs[0] || Outs[2] != Outs[0]) {
      fprintf(stderr, "%s: outputs diverge across tiers\n", K.Name);
      Ok = false;
      continue;
    }
    double Speedup = Best[0] / Best[2];
    uint64_t Promoted = Stats[2].LoopsPromoted;
    Rows.push_back({K.Name, Best[0], Best[1], Best[2], Speedup, Promoted});
    printf("%-16s %12.2f %12.2f %12.2f %8.2fx %9llu\n", K.Name, Best[0],
           Best[1], Best[2], Speedup, (unsigned long long)Promoted);
    if (K.MustDouble && Speedup < 2.0) {
      fprintf(stderr, "%s: hybrid speedup %.2fx is below the 2x bar\n",
              K.Name, Speedup);
      BarMet = false;
    }
  }

  printf("\nacceptance bar (megamorphic, unbiased-branch >= 2x): %s\n",
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
              "%.2f, \"hybrid_ms\": %.2f, \"hybrid_speedup\": %.2f, "
              "\"loops_promoted\": %llu}%s\n",
              Rows[I].Name, Rows[I].InterpMs, Rows[I].TraceMs,
              Rows[I].HybridMs, Rows[I].Speedup,
              (unsigned long long)Rows[I].Promoted,
              I + 1 < Rows.size() ? "," : "");
    fprintf(F, "  ]\n}\n");
    fclose(F);
    printf("wrote %s\n", JsonPath.c_str());
  }
  return Ok && BarMet ? 0 : 1;
}

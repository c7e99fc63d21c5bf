//===- tier_hostile.cpp - Trace-hostile kernels: interpreter vs trace ----------===//
//
// Three kernels that were built to defeat the trace pipeline: megamorphic
// dispatch, unbiased branching over megamorphic state, and call chains past
// the inline depth limit. The recorder traces through megamorphic sites
// with a generic lookup, so the first two compile; deep-call aborts at the
// inline limit and falls back to the interpreter through §3.3 backoff and
// blacklisting. This bench runs each kernel with the JIT off (interp) and
// on (trace), and reports per-kernel times plus the trace speedup over the
// interpreter. The acceptance bar: trace >= 2x the interpreter on the
// megamorphic and unbiased-branch kernels.
//
// --json=FILE writes the canonical snapshot (BENCH_tier_hostile.json);
// scripts/check_bench_regression.py gates the trace rows against it.
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
// inline limit and the loop is blacklisted. The row documents that the
// fallback does not run slower than the interpreter on call-heavy code.
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

double timeOnce(const char *Src, const EngineOptions &O, std::string *Out) {
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

  printf("=== Trace-hostile kernels: interpreter vs trace ===\n");
  printf("%-16s %12s %12s %10s\n", "kernel", "interp(ms)", "trace(ms)",
         "speedup");

  struct Kernel {
    const char *Name;
    const char *Src;
    bool MustDouble; ///< Acceptance bar: trace >= 2x interpreter.
  } Kernels[] = {
      {"megamorphic", Megamorphic, true},
      {"unbiased-branch", UnbiasedBranch, true},
      {"deep-call", DeepCall, false},
  };

  struct Row {
    const char *Name;
    double InterpMs, TraceMs, Speedup;
  };
  std::vector<Row> Rows;
  bool Ok = true;
  bool BarMet = true;
  for (const Kernel &K : Kernels) {
    double Best[2] = {1e300, 1e300}; // [0] JIT off, [1] JIT on
    std::string Outs[2];
    // Interleave the reps so frequency drift hits both configurations
    // evenly instead of whichever happened to run last.
    for (int Rep = 0; Rep < 5; ++Rep)
      for (int C = 0; C < 2; ++C) {
        EngineOptions O = Base;
        O.EnableJit = C == 1;
        O.CollectStats = true;
        double Ms = timeOnce(K.Src, O, &Outs[C]);
        if (Ms < 0)
          return 1;
        Best[C] = std::min(Best[C], Ms);
      }
    if (Outs[1] != Outs[0]) {
      fprintf(stderr, "%s: JIT output diverges from the interpreter\n",
              K.Name);
      Ok = false;
      continue;
    }
    double Speedup = Best[0] / Best[1];
    Rows.push_back({K.Name, Best[0], Best[1], Speedup});
    printf("%-16s %12.2f %12.2f %9.2fx\n", K.Name, Best[0], Best[1],
           Speedup);
    if (K.MustDouble && Speedup < 2.0) {
      fprintf(stderr, "%s: trace speedup %.2fx is below the 2x bar\n",
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
              "%.2f, \"trace_speedup\": %.2f}%s\n",
              Rows[I].Name, Rows[I].InterpMs, Rows[I].TraceMs,
              Rows[I].Speedup, I + 1 < Rows.size() ? "," : "");
    fprintf(F, "  ]\n}\n");
    fclose(F);
    printf("wrote %s\n", JsonPath.c_str());
  }
  return Ok && BarMet ? 0 : 1;
}

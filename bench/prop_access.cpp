//===- prop_access.cpp - Property-access inline-cache microbenchmark ------------===//
//
// Measures what the per-site property inline caches (vm/ic.h) buy on the
// interpreter tier, where every GetProp/SetProp otherwise pays a shape-
// dictionary lookup:
//
//   mono  -- one shape flows through the loop (the IC's best case: a
//            single shape compare + direct slot load);
//   poly  -- four shapes alternate (polymorphic stub array, still cached);
//   mega  -- eight shapes alternate (cache overflows to megamorphic and
//            the site falls back to the dictionary).
//
// Each variant runs on a JIT-less engine (3 reps, best time, with the IC
// hit/miss counts of one instrumented run), then with the JIT on to show
// the recorder consuming IC state end to end. Both tiers must print the
// same output.
//
//===----------------------------------------------------------------------===//

#include <chrono>
#include <cstdio>
#include <string>

#include "suite.h"

using namespace tracejit;

// One shape per site, and property reads dominate the loop: four chained
// walks of a seven-deep object chain per iteration (28 GetProps against
// ~5 GetGlobals), plus one SetProp to exercise the write IC. Chaining
// keeps the GetProp:dispatch-overhead ratio high, which is what the IC
// can actually speed up -- a flat `p.a + p.b + ...` loop spends most of
// its time on GetGlobal/Add dispatch, not on property lookup.
static const char *Mono = R"js(
var t = {}; t.v = 3;
var c6 = {}; c6.g = t;
var c5 = {}; c5.f = c6;
var c4 = {}; c4.e = c5;
var c3 = {}; c3.d = c4;
var c2 = {}; c2.c = c3;
var r = {}; r.b = c2;
var s = 0;
for (var i = 0; i < 400000; ++i) {
  s = s + r.b.c.d.e.f.g.v + r.b.c.d.e.f.g.v
        + r.b.c.d.e.f.g.v + r.b.c.d.e.f.g.v;
  t.v = 3 + s % 2;
}
print(s);
)js";

// Four distinct shapes (different property orders -> different shape-tree
// paths), all with `x` and `y`; the access site cycles through them.
static const char *Poly = R"js(
function mk0() { var o = {}; o.x = 1; o.y = 2; return o; }
function mk1() { var o = {}; o.y = 2; o.x = 1; return o; }
function mk2() { var o = {}; o.x = 1; o.z = 0; o.y = 2; return o; }
function mk3() { var o = {}; o.w = 0; o.x = 1; o.y = 2; return o; }
var os = Array(4);
os[0] = mk0(); os[1] = mk1(); os[2] = mk2(); os[3] = mk3();
var s = 0;
for (var i = 0; i < 400000; ++i) {
  var o = os[i % 4];
  s = s + o.x + o.y;
}
print(s);
)js";

// Eight shapes: overflows PropertyIC::MaxEntries, so the site goes
// megamorphic and both tiers fall back to the dictionary path.
static const char *Mega = R"js(
function mkA() { var o = {}; o.x = 1; o.p0 = 0; return o; }
function mkB() { var o = {}; o.p1 = 0; o.x = 1; return o; }
function mkC() { var o = {}; o.p2 = 0; o.p3 = 0; o.x = 1; return o; }
function mkD() { var o = {}; o.x = 1; o.p4 = 0; o.p5 = 0; return o; }
function mkE() { var o = {}; o.p6 = 0; o.x = 1; o.p7 = 0; return o; }
function mkF() { var o = {}; o.p8 = 0; o.p9 = 0; o.pa = 0; o.x = 1; return o; }
function mkG() { var o = {}; o.pb = 0; o.x = 1; o.pc = 0; o.pd = 0; return o; }
function mkH() { var o = {}; o.pe = 0; o.pf = 0; o.x = 1; o.pg = 0; return o; }
var os = Array(8);
os[0] = mkA(); os[1] = mkB(); os[2] = mkC(); os[3] = mkD();
os[4] = mkE(); os[5] = mkF(); os[6] = mkG(); os[7] = mkH();
var s = 0;
for (var i = 0; i < 400000; ++i) {
  var o = os[i % 8];
  s = s + o.x;
}
print(s);
)js";

static double timeOnce(const char *Src, const EngineOptions &O,
                       std::string *Out, VMStats *Stats) {
  Engine E(O);
  std::string Captured;
  E.setPrintHook([&](const std::string &S) { Captured += S; });
  auto T0 = std::chrono::steady_clock::now();
  auto R = E.eval(Src);
  auto T1 = std::chrono::steady_clock::now();
  if (!R.ok()) {
    fprintf(stderr, "prop_access failed: %s\n", R.Err.describe().c_str());
    return -1;
  }
  if (Out)
    *Out = Captured;
  if (Stats)
    *Stats = E.stats();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

static double bestRun(const char *Src, const EngineOptions &O,
                      std::string *Out, VMStats *Stats) {
  double Best = 1e300;
  for (int K = 0; K < 3; ++K) {
    double Ms = timeOnce(Src, O, Out, Stats);
    if (Ms < 0)
      return -1;
    if (Ms < Best)
      Best = Ms;
  }
  return Best;
}

int main(int argc, char **argv) {
  printf("=== Property-access inline caches ===\n");

  EngineOptions Base;
  tracejit_bench::applyBenchArgs(Base, argc, argv);

  struct Variant {
    const char *Name;
    const char *Src;
  } Variants[] = {{"mono", Mono}, {"poly", Poly}, {"mega", Mega}};

  bool AllMatch = true;
  printf("interpreter tier (JIT off):\n");
  printf("  %-6s %12s %24s\n", "shape", "time(ms)", "ic hits/misses");
  std::string InterpOut[3];
  for (size_t K = 0; K < 3; ++K) {
    const Variant &V = Variants[K];
    EngineOptions Interp = Base;
    Interp.EnableJit = false;
    double T = bestRun(V.Src, Interp, &InterpOut[K], nullptr);
    if (T < 0)
      return 1;
    // Counters come from a separate instrumented run so the timed runs
    // don't pay the per-bytecode CollectStats increments.
    EngineOptions Counted = Interp;
    Counted.CollectStats = true;
    VMStats S;
    if (bestRun(V.Src, Counted, nullptr, &S) < 0)
      return 1;
    printf("  %-6s %12.2f %15llu/%-8llu\n", V.Name, T,
           (unsigned long long)S.IcHits, (unsigned long long)S.IcMisses);
  }

  // JIT on: mono/poly sites feed the recorder (IcRecorderHits); the mega
  // site is recorded as a call to the generic lookup (IcRecorderGeneric)
  // instead of a shape-guard ladder that would always exit.
  printf("tracing tier (JIT on):\n");
  for (size_t K = 0; K < 3; ++K) {
    const Variant &V = Variants[K];
    EngineOptions Jit = Base;
    Jit.EnableJit = true;
    Jit.CollectStats = true;
    std::string Out;
    VMStats S;
    double T = bestRun(V.Src, Jit, &Out, &S);
    if (T < 0)
      return 1;
    bool Match = Out == InterpOut[K];
    AllMatch = AllMatch && Match;
    printf("  %-6s %9.2f ms  recorder-hits=%llu recorder-generic=%llu "
           "megamorphic-sites=%llu traces=%llu%s\n",
           V.Name, T, (unsigned long long)S.IcRecorderHits,
           (unsigned long long)S.IcRecorderGeneric,
           (unsigned long long)S.IcMegamorphicSites,
           (unsigned long long)S.TracesCompleted,
           Match ? "" : "  OUTPUT MISMATCH");
  }

  return AllMatch ? 0 : 1;
}

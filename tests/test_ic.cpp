//===- test_ic.cpp - Property inline caches + threaded dispatch -----------------===//
//
// Covers the IC ladder (mono -> poly -> mega), both invalidation paths
// (shape-transition self-invalidation and the whole-table reset on a
// code-cache flush), the recorder's consumption of IC state (mono replay, poly multi-shape guards, mega
// sites recorded as generic-lookup calls), and switch-vs-threaded dispatch
// equivalence.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "api/engine.h"
#include "frontend/bytecode.h"
#include "support/events.h"
#include "trace/monitor.h"
#include "vm/ic.h"

using namespace tracejit;

namespace {

struct RunInfo {
  std::string Out;
  VMStats Stats;
  bool Ok;
  std::string Error;
};

RunInfo runWith(const std::string &Src, EngineOptions O) {
  O.CollectStats = true;
  Engine E(O);
  RunInfo R;
  E.setPrintHook([&](const std::string &S) { R.Out += S; });
  auto Res = E.eval(Src);
  R.Ok = Res.ok();
  R.Error = Res.Err.describe();
  R.Stats = E.stats();
  return R;
}

EngineOptions interpIc() {
  EngineOptions O;
  O.EnableJit = false;
  return O;
}

EngineOptions jitIc() {
  EngineOptions O;
  O.EnableJit = true;
  return O;
}

/// Per-ICState site counts over every script the engine compiled.
void countStates(Engine &E, size_t C[4]) {
  C[0] = C[1] = C[2] = C[3] = 0;
  for (auto &S : E.context().Scripts)
    for (const PropertyIC &IC : S->ICs)
      ++C[(size_t)IC.State];
}

} // namespace

TEST(InlineCaches, MonoSiteHitsAfterOneMiss) {
  EngineOptions O = interpIc();
  O.CollectStats = true;
  Engine E(O);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  ASSERT_TRUE(E.eval("var p = {}; p.a = 7; p.b = 35;\n"
                     "var s = 0;\n"
                     "for (var i = 0; i < 1000; ++i) s = s + p.a + p.b;\n"
                     "print(s);")
                  .ok());
  EXPECT_EQ(Out, "42000\n");
  size_t C[4];
  countStates(E, C);
  EXPECT_GE(C[(size_t)ICState::Mono], 2u) << "p.a / p.b sites are mono";
  EXPECT_EQ(C[(size_t)ICState::Mega], 0u);
  VMStats S = E.stats();
  EXPECT_GT(S.IcHits, 1500u) << "~2000 reads, all but the first two hit";
  EXPECT_GT(S.IcMisses, 0u);
  // The counters surface through the human-readable report.
  EXPECT_NE(S.report().find("inline caches:"), std::string::npos);
}

TEST(InlineCaches, PolyThenMegaLadder) {
  // Four shapes at one site: Poly. Eight shapes: overflow to Mega.
  std::string Mk = "function mk(k) {\n"
                   "  var o = {};\n"
                   "  if (k == 1) o.p1 = 0;\n"
                   "  if (k == 2) { o.p2 = 0; o.p3 = 0; }\n"
                   "  if (k == 3) { o.p4 = 0; o.p5 = 0; o.p6 = 0; }\n"
                   "  if (k == 4) o.p7 = 0;\n"
                   "  if (k == 5) { o.p8 = 0; o.p9 = 0; }\n"
                   "  if (k == 6) { o.pa = 0; o.pb = 0; o.pc = 0; }\n"
                   "  if (k == 7) { o.pd = 0; o.pe = 0; o.pf = 0; o.pg = 0; }\n"
                   "  o.x = k;\n"
                   "  return o;\n"
                   "}\n";
  {
    EngineOptions O = interpIc();
    O.CollectStats = true;
    Engine E(O);
    E.setPrintHook([](const std::string &) {});
    ASSERT_TRUE(E.eval(Mk + "var os = Array(4);\n"
                            "for (var k = 0; k < 4; ++k) os[k] = mk(k);\n"
                            "var s = 0;\n"
                            "for (var i = 0; i < 400; ++i) s = s + os[i % 4].x;\n"
                            "print(s);")
                    .ok());
    size_t C[4];
    countStates(E, C);
    EXPECT_GE(C[(size_t)ICState::Poly], 1u) << "the os[i%4].x site is poly";
    EXPECT_EQ(C[(size_t)ICState::Mega], 0u);
    EXPECT_EQ(E.stats().IcMegaSites, 0u);
  }
  {
    EngineOptions O = interpIc();
    O.CollectStats = true;
    Engine E(O);
    E.setPrintHook([](const std::string &) {});
    ASSERT_TRUE(E.eval(Mk + "var os = Array(8);\n"
                            "for (var k = 0; k < 8; ++k) os[k] = mk(k);\n"
                            "var s = 0;\n"
                            "for (var i = 0; i < 800; ++i) s = s + os[i % 8].x;\n"
                            "print(s);")
                    .ok());
    size_t C[4];
    countStates(E, C);
    EXPECT_GE(C[(size_t)ICState::Mega], 1u) << "five-plus shapes overflow";
    EXPECT_GE(E.stats().IcMegaSites, 1u);
  }
}

TEST(InlineCaches, EveryGenericFallCountsAsAMiss) {
  // One IC site (object literals initialize through InitProp, which has
  // none), read 4000 times over eight shapes. The site goes megamorphic;
  // its frozen entries keep hitting for four shapes and every other read
  // takes the dictionary path, which is a miss whatever the site's state.
  EngineOptions O = interpIc();
  O.CollectStats = true;
  Engine E(O);
  E.setPrintHook([](const std::string &) {});
  ASSERT_TRUE(E.eval("var os = [{x: 1}, {a: 0, x: 2}, {b: 0, x: 3},\n"
                     "  {c: 0, x: 4}, {d: 0, x: 5}, {e: 0, x: 6},\n"
                     "  {f: 0, x: 7}, {g: 0, x: 8}];\n"
                     "var s = 0;\n"
                     "for (var i = 0; i < 4000; ++i) s = s + os[i % 8].x;\n"
                     "print(s);")
                  .ok());
  VMStats S = E.stats();
  EXPECT_EQ(S.IcMegaSites, 1u);
  EXPECT_EQ(S.IcHits + S.IcMisses, 4000u) << "one count per read";
  EXPECT_GE(S.IcMisses, 2000u) << "four of eight shapes miss every time";
}

TEST(InlineCaches, ShapeTransitionSelfInvalidates) {
  // Train p.a on shape {a}, then transition p to {a, b}: the stale entry
  // keys on the old Shape pointer, fails to match, and the site refills --
  // reads stay correct throughout (no explicit invalidation hook needed).
  RunInfo R = runWith("var p = {}; p.a = 5;\n"
                      "var s = 0;\n"
                      "for (var i = 0; i < 100; ++i) s = s + p.a;\n"
                      "p.b = 1;\n"
                      "for (var j = 0; j < 100; ++j) s = s + p.a;\n"
                      "print(s);",
                      interpIc());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "1000\n");
  EXPECT_GE(R.Stats.IcMisses, 2u) << "initial fill + post-transition refill";
}

TEST(InlineCaches, CacheFlushResetsEveryIC) {
  EngineOptions O = jitIc();
  O.CollectStats = true;
  Engine E(O);
  E.setPrintHook([](const std::string &) {});
  ASSERT_TRUE(E.eval("var p = {}; p.a = 1;\n"
                     "var s = 0;\n"
                     "for (var i = 0; i < 200; ++i) s = s + p.a;\n"
                     "print(s);")
                  .ok());
  size_t C[4];
  countStates(E, C);
  ASSERT_GE(C[(size_t)ICState::Mono], 1u);

  E.flushCodeCache(); // safe point: flush (and IC reset) run immediately
  countStates(E, C);
  EXPECT_EQ(C[(size_t)ICState::Mono], 0u);
  EXPECT_EQ(C[(size_t)ICState::Poly], 0u);
  EXPECT_EQ(C[(size_t)ICState::Mega], 0u);
  EXPECT_GE(E.stats().IcInvalidations, 1u);

  // The engine retrains and keeps answering correctly after the reset.
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  ASSERT_TRUE(E.eval("var t = 0;\n"
                     "for (var i = 0; i < 200; ++i) t = t + p.a;\n"
                     "print(t);")
                  .ok());
  EXPECT_EQ(Out, "200\n");
}

TEST(InlineCaches, RecorderReplaysMonoSite) {
  RunInfo R = runWith("var p = {}; p.a = 2; p.b = 3;\n"
                      "var s = 0;\n"
                      "for (var i = 0; i < 2000; ++i) s = s + p.a * p.b;\n"
                      "print(s);",
                      jitIc());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "12000\n");
  EXPECT_GE(R.Stats.TracesCompleted, 1u);
  EXPECT_GE(R.Stats.IcRecorderHits, 1u)
      << "the recorder consumed the interpreter-trained shape+slot";
}

TEST(InlineCaches, RecorderEmitsMultiShapeGuardForPolySite) {
  // Two shapes whose `x` lives at the same slot (slot 0 in both): the poly
  // site gets one multi-shape guard, so a single trace serves both
  // receivers instead of side-exiting every other iteration.
  RunInfo R = runWith(
      "function mk0() { var o = {}; o.x = 1; o.y = 9; return o; }\n"
      "function mk1() { var o = {}; o.x = 2; o.z = 9; return o; }\n"
      "var os = Array(2); os[0] = mk0(); os[1] = mk1();\n"
      "var s = 0;\n"
      "for (var i = 0; i < 4000; ++i) s = s + os[i % 2].x;\n"
      "print(s);",
      jitIc());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "6000\n");
  EXPECT_GE(R.Stats.TracesCompleted, 1u);
  EXPECT_GE(R.Stats.IcRecorderHits, 1u);
  // The multi-shape guard keeps both shapes on trace: the dominant exit
  // pattern is the loop-condition exit, not a per-iteration shape exit.
  EXPECT_EQ(R.Stats.IcRecorderGeneric, 0u)
      << "a poly site gets shape guards, not the generic lookup";
}

TEST(InlineCaches, RecorderTracesThroughMegamorphicSite) {
  RunInfo R = runWith(
      "function mk(k) {\n"
      "  var o = {};\n"
      "  if (k == 1) o.p1 = 0;\n"
      "  if (k == 2) { o.p2 = 0; o.p3 = 0; }\n"
      "  if (k == 3) { o.p4 = 0; o.p5 = 0; o.p6 = 0; }\n"
      "  if (k == 4) o.p7 = 0;\n"
      "  if (k == 5) { o.p8 = 0; o.p9 = 0; }\n"
      "  if (k == 6) { o.pa = 0; o.pb = 0; o.pc = 0; }\n"
      "  if (k == 7) { o.pd = 0; o.pe = 0; o.pf = 0; o.pg = 0; }\n"
      "  o.x = k;\n"
      "  return o;\n"
      "}\n"
      "var os = Array(8);\n"
      "for (var k = 0; k < 8; ++k) os[k] = mk(k);\n"
      "var s = 0;\n"
      "for (var i = 0; i < 4000; ++i) s = s + os[i % 8].x;\n"
      "print(s);",
      jitIc());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "14000\n");
  // The one abort is the setup loop's shape-growing store inside mk(); the
  // hot loop over the megamorphic site records without aborting.
  EXPECT_EQ(R.Stats.TracesAborted,
            R.Stats.AbortsByReason[(size_t)AbortReason::PropAddsSlot]);
  EXPECT_GE(R.Stats.IcRecorderGeneric, 1u)
      << "the megamorphic read is recorded as a generic-lookup call";
  EXPECT_LT(R.Stats.SideExits, 20u)
      << "no shape guard at the mega site, so the loop stays on trace";
}

TEST(Dispatch, HarnessMatchesReferenceOutputs) {
  // The corpus prints the reference output with the JIT off and on. Calls,
  // returns, and loop edges that run a trace are where the dispatch loop
  // refreshes its cached frame, so the corpus crosses each of them.
  struct Case {
    const char *Src;
    const char *Out;
  } Corpus[] = {
      {"var s = 0; for (var i = 0; i < 1000; ++i) s += i; print(s);",
       "499500\n"},
      {"var o = {}; o.a = 1; var t = 0;\n"
       "for (var i = 0; i < 500; ++i) { t = t + o.a; o.a = t % 7; }\n"
       "print(t);",
       "1164\n"},
      {"function f(n) { if (n < 2) return n; return f(n - 1) + f(n - 2); }\n"
       "print(f(15));",
       "610\n"},
      {"var a = Array(64); for (var i = 0; i < 64; ++i) a[i] = i * i;\n"
       "var s = 0; for (var j = 0; j < 64; ++j) s = s + a[j];\n"
       "print(s); print(a.length);",
       "85344\n64\n"},
  };
  for (const Case &K : Corpus) {
    for (bool Jit : {false, true}) {
      EngineOptions O;
      O.EnableJit = Jit;
      RunInfo R = runWith(K.Src, O);
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.Out, K.Out) << K.Src << " jit=" << Jit;
    }
  }
  // Runtime errors unwind the same way with the JIT off and on.
  EngineOptions Off;
  Off.EnableJit = false;
  EngineOptions On;
  RunInfo A = runWith("var u; u.x;", Off);
  RunInfo B = runWith("var u; u.x;", On);
  EXPECT_FALSE(A.Ok);
  EXPECT_FALSE(B.Ok);
  EXPECT_EQ(A.Error, B.Error);
}

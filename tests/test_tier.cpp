//===- test_tier.cpp - Compilation-tier policy and method-tier pipeline --------===//
//
// The TierPolicy state machine (trace/tier.h) and the hybrid method-
// compilation tier end to end: promotion of trace-hostile loops, the
// method-only pipeline, bit-for-bit preservation of the trace-only
// pipeline, cache-flush survival, interrupt delivery inside method code,
// and the stitched re-entry behavior of optimized trace roots.
//
// Every suite here is named `Tier` so the TSan CI leg can sweep it with
// --gtest_filter='Tier.*'.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "api/engine.h"
#include "trace/tier.h"

using namespace tracejit;

namespace {

/// Records every event it sees (same idiom as test_observability.cpp).
struct CollectingListener final : JitEventListener {
  std::vector<JitEvent> Events;
  void onEvent(const JitEvent &E) override { Events.push_back(E); }

  int64_t firstIndexOf(JitEventKind K) const {
    for (size_t I = 0; I < Events.size(); ++I)
      if (Events[I].Kind == K)
        return (int64_t)I;
    return -1;
  }
  uint64_t count(JitEventKind K) const {
    uint64_t N = 0;
    for (const JitEvent &E : Events)
      N += E.Kind == K;
    return N;
  }
};

// Megamorphic dispatch: eight shapes flow through one property site inside
// the hot loop. The recorder calls the generic lookup at the megamorphic
// site, so the loop stays on trace in every mode.
std::string megamorphicKernel(int Iters) {
  return R"js(
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
for (var j = 0; j < )js" +
         std::to_string(Iters) + R"js(; ++j) {
  t = t + objs[j % 8].a;
}
print(t);
)js";
}

// Unbiased branches whose arms each read a megamorphic property site (five
// shapes): every arm records the generic lookup, so each branch trace
// compiles and the tree covers all four arms.
std::string branchyKernel(int Iters) {
  return R"js(
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
for (var j = 0; j < )js" +
         std::to_string(Iters) + R"js(; ++j) {
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
}

// A call chain deeper than MaxInlineDepth: every root recording aborts at
// the inline limit, so hybrid mode promotes the loop after
// MaxRecordingFailures (repeated-aborts path).
std::string deepCallKernel(int Iters) {
  return R"js(
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
for (var i = 0; i < )js" +
         std::to_string(Iters) + R"js(; ++i) t = t + fJ(i & 1023);
print(t);
)js";
}

// One arm of a branch calls a recursive function. The root trace records
// the common arm; every recording from the rare arm's side exit aborts
// with RecursiveCall until the exit overflows its recording budget, and
// hybrid mode then promotes the loop (branch-overflow path).
std::string recursiveArmKernel(int Iters) {
  return R"js(
function depth(n) { if (n == 0) return 0; return 1 + depth(n - 1); }
var t = 0;
for (var j = 0; j < )js" +
         std::to_string(Iters) + R"js(; ++j) {
  if ((j & 7) == 7) { t = t + depth(3); } else { t = t + 1; }
}
print(t);
)js";
}

/// Effectively infinite: only a governor can end it.
const char *InfiniteLoop = "var t = 0; for (var i = 0; i < 1e18; ++i) t += 1;";

/// Allocates strings without bound (same bomb as test_governance.cpp).
const char *AllocBomb = "function bomb() {\n"
                        "  var a = [];\n"
                        "  for (var i = 0; i < 100000000; ++i) a[i] = \"x\" + i;\n"
                        "  return a;\n"
                        "}\n"
                        "bomb();";

struct TierRun {
  std::string Out;
  VMStats Stats;
  bool Ok = true;
  std::string Err;
};

TierRun runTier(const std::string &Src, TierMode T, bool Jit = true) {
  EngineOptions O;
  O.EnableJit = Jit;
  O.Tier = T;
  // Megamorphic verdicts come from IC feedback; opt in even where the
  // build defaults ICs off (the CI fallback leg).
  O.EnableIC = true;
  O.CollectStats = true;
  Engine E(O);
  TierRun R;
  E.setPrintHook([&](const std::string &S) { R.Out += S; });
  auto Res = E.eval(Src);
  R.Ok = Res.ok();
  if (!R.Ok)
    R.Err = Res.Err.describe();
  R.Stats = E.stats();
  return R;
}

std::string interpOutput(const std::string &Src) {
  return runTier(Src, TierMode::Trace, /*Jit=*/false).Out;
}

/// Count loops across every script of \p E currently in \p T.
uint32_t loopsInTier(Engine &E, Tier T) {
  uint32_t N = 0;
  for (const auto &S : E.context().Scripts)
    for (uint16_t L = 0; L < S->Loops.size(); ++L)
      if (E.tierOf(S->Id, (uint16_t)L) == T)
        ++N;
  return N;
}

} // namespace

// --- TierPolicy unit tests -----------------------------------------------------

TEST(Tier, PolicyInitialTierFollowsMode) {
  EngineOptions O;
  O.Tier = TierMode::Trace;
  EXPECT_EQ(TierPolicy(O).initialTier(), Tier::Trace);
  O.Tier = TierMode::Hybrid;
  EXPECT_EQ(TierPolicy(O).initialTier(), Tier::Trace);
  O.Tier = TierMode::Method;
  EXPECT_EQ(TierPolicy(O).initialTier(), Tier::Method);
  EXPECT_FALSE(TierPolicy(O).tracingEnabled());
}

TEST(Tier, PolicyRepeatedAbortsPromoteInHybridDemoteInTrace) {
  EngineOptions O;
  O.Tier = TierMode::Hybrid;
  TierPolicy P(O);
  TierState S;
  TierAction Last = TierAction::Stay;
  for (uint32_t K = 0; K < O.MaxRecordingFailures; ++K)
    Last = P.onRootAbort(S, /*Counts=*/true, 10 + K);
  EXPECT_EQ(Last, TierAction::Promote);

  // Trace mode never promotes; it backs off and demotes at the cap.
  ASSERT_EQ(O.MaxRecordingFailures, 2u);
  O.Tier = TierMode::Trace;
  TierPolicy PT(O);
  TierState ST;
  EXPECT_EQ(PT.onRootAbort(ST, /*Counts=*/true, 10), TierAction::Stay);
  EXPECT_EQ(ST.Failures, 1u);
  EXPECT_EQ(ST.BackoffUntil, 10u + O.BlacklistBackoff);
  EXPECT_EQ(PT.onRootAbort(ST, /*Counts=*/true, 50), TierAction::Demote);

  // Forgiven aborts back off briefly but never accumulate failures.
  TierState SF;
  EXPECT_EQ(P.onRootAbort(SF, /*Counts=*/false, 7), TierAction::Stay);
  EXPECT_EQ(SF.Failures, 0u);
  EXPECT_EQ(SF.BackoffUntil, 11u);
}

TEST(Tier, PolicyBranchOverflowAndCompileFailure) {
  EngineOptions O;
  O.Tier = TierMode::Hybrid;
  TierPolicy P(O);
  TierState S;
  EXPECT_EQ(P.onBranchOverflow(S), TierAction::Promote);
  S.Current = Tier::Method;
  EXPECT_EQ(P.onBranchOverflow(S), TierAction::Stay);
  EXPECT_EQ(P.onMethodCompileFailed(S), TierAction::Demote);

  O.Tier = TierMode::Trace;
  TierPolicy PT(O);
  TierState ST;
  EXPECT_EQ(PT.onBranchOverflow(ST), TierAction::Stay)
      << "trace mode keeps the historical block-the-exit behavior";
}

TEST(Tier, PolicyMethodCompileGate) {
  EngineOptions O;
  O.Tier = TierMode::Method;
  O.MethodJitThreshold = 8;
  TierPolicy P(O);
  TierState S;
  S.Current = Tier::Method;
  EXPECT_FALSE(P.shouldMethodCompile(S, 7, false));
  EXPECT_TRUE(P.shouldMethodCompile(S, 8, false));
  EXPECT_FALSE(P.shouldMethodCompile(S, 8, true)) << "already has a body";
  S.MethodCompilePending = true;
  EXPECT_FALSE(P.shouldMethodCompile(S, 8, false)) << "job in flight";
  S.MethodCompilePending = false;
  S.Current = Tier::Trace;
  EXPECT_FALSE(P.shouldMethodCompile(S, 100, false));
}

// --- Hybrid promotion end to end -----------------------------------------------

TEST(Tier, DeepCallLoopPromotesCompilesAndEnters) {
  std::string Src = deepCallKernel(50000);
  std::string Want = interpOutput(Src);

  EngineOptions O;
  O.EnableJit = true;
  O.Tier = TierMode::Hybrid;
  O.CollectStats = true;
  Engine E(O);
  CollectingListener L;
  E.addEventListener(&L);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  ASSERT_TRUE(E.eval(Src).ok());
  EXPECT_EQ(Out, Want);

  VMStats S = E.stats();
  EXPECT_GE(S.LoopsPromoted, 1u);
  EXPECT_GE(S.MethodCompiles, 1u);
  EXPECT_GE(S.MethodEnters, 1u);
  EXPECT_EQ(S.LoopsDemoted, 0u) << "hybrid promotes instead of blacklisting";

  // Event ordering: the promotion precedes the compile which precedes the
  // first entry.
  int64_t IP = L.firstIndexOf(JitEventKind::TierPromoted);
  int64_t IC = L.firstIndexOf(JitEventKind::MethodCompiled);
  int64_t IE = L.firstIndexOf(JitEventKind::MethodEntered);
  ASSERT_GE(IP, 0);
  ASSERT_GE(IC, 0);
  ASSERT_GE(IE, 0);
  EXPECT_LT(IP, IC);
  EXPECT_LT(IC, IE);
  EXPECT_EQ(L.count(JitEventKind::MethodEntered), 1u)
      << "MethodEntered fires only on the first entry";

  // The public tier probe agrees, and the profile snapshot attributes the
  // method body to its tier.
  EXPECT_GE(loopsInTier(E, Tier::Method), 1u);
  bool SawMethodProfile = false;
  for (const FragmentProfile &P : E.fragmentProfiles())
    if (P.IsMethod) {
      SawMethodProfile = true;
      EXPECT_STREQ(P.TierName, "method");
      EXPECT_GE(P.Enters, 1u);
    }
  EXPECT_TRUE(SawMethodProfile);
  E.removeEventListener(&L);
}

TEST(Tier, BranchOverflowPromotesInHybrid) {
  std::string Src = recursiveArmKernel(50000);
  EngineOptions O;
  O.EnableJit = true;
  O.Tier = TierMode::Hybrid;
  O.CollectStats = true;
  Engine E(O);
  CollectingListener L;
  E.addEventListener(&L);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  ASSERT_TRUE(E.eval(Src).ok());
  E.removeEventListener(&L);
  EXPECT_EQ(Out, interpOutput(Src));
  VMStats S = E.stats();
  EXPECT_GE(S.AbortsByReason[(size_t)AbortReason::RecursiveCall], 1u);
  EXPECT_GE(S.LoopsPromoted, 1u);
  EXPECT_GE(S.MethodEnters, 1u);
  int64_t IP = L.firstIndexOf(JitEventKind::TierPromoted);
  ASSERT_GE(IP, 0);
  EXPECT_EQ(L.Events[IP].Arg0, (uint32_t)TierChangeReason::BranchOverflow)
      << "the root traced; the rare arm's exit overflowed";
}

// --- Method-only pipeline -------------------------------------------------------

TEST(Tier, MethodModeCompilesWithoutTracing) {
  std::string Src = "var t = 0; for (var i = 0; i < 20000; ++i) t = t + i;"
                    "print(t);";
  TierRun M = runTier(Src, TierMode::Method);
  ASSERT_TRUE(M.Ok) << M.Err;
  EXPECT_EQ(M.Out, interpOutput(Src));
  EXPECT_EQ(M.Stats.TracesStarted, 0u) << "--tier=method never records";
  EXPECT_GE(M.Stats.MethodCompiles, 1u);
  EXPECT_GE(M.Stats.MethodEnters, 1u);
}

TEST(Tier, TierOfReportsInitialTierPerMode) {
  std::string Src = "var t = 0; for (var i = 0; i < 20000; ++i) t = t + i;";
  for (TierMode Mode : {TierMode::Trace, TierMode::Method}) {
    EngineOptions O;
    O.EnableJit = true;
    O.Tier = Mode;
    Engine E(O);
    ASSERT_TRUE(E.eval(Src).ok());
    Tier Want = Mode == TierMode::Method ? Tier::Method : Tier::Trace;
    EXPECT_GE(loopsInTier(E, Want), 1u) << tierModeName(Mode);
    // An unseen loop id reports the configured initial tier.
    EXPECT_EQ(E.tierOf(9999, 0), Want);
  }
  EngineOptions Off;
  Off.EnableJit = false;
  Engine E(Off);
  ASSERT_TRUE(E.eval(Src).ok());
  EXPECT_EQ(E.tierOf(0, 0), Tier::Interpreter) << "JIT off: everything interprets";
}

// --- Trace mode is bit-for-bit the historical pipeline --------------------------

TEST(Tier, TraceModeNeverTouchesTheMethodTier) {
  // A corpus that exercises compile success, megamorphic sites, and
  // branchy trees. In trace mode the method tier must be completely inert
  // and two identical runs must produce identical pipelines.
  std::vector<std::string> Corpus = {
      "var t = 0; for (var i = 0; i < 5000; ++i) t = t + i; print(t);",
      megamorphicKernel(20000),
      branchyKernel(20000),
      "var t = 0.5; for (var i = 0; i < 3000; ++i) t = t + 0.25; print(t);",
  };
  for (const std::string &Src : Corpus) {
    std::string Want = interpOutput(Src);
    TierRun A = runTier(Src, TierMode::Trace);
    TierRun B = runTier(Src, TierMode::Trace);
    ASSERT_TRUE(A.Ok && B.Ok) << A.Err << B.Err;
    EXPECT_EQ(A.Out, Want);
    EXPECT_EQ(B.Out, Want);
    EXPECT_EQ(A.Stats.MethodCompiles, 0u);
    EXPECT_EQ(A.Stats.MethodEnters, 0u);
    EXPECT_EQ(A.Stats.LoopsPromoted, 0u);
    // Deterministic pipeline: same recordings, same aborts, same
    // blacklist verdicts on every run.
    EXPECT_EQ(A.Stats.TracesStarted, B.Stats.TracesStarted);
    EXPECT_EQ(A.Stats.TracesCompleted, B.Stats.TracesCompleted);
    EXPECT_EQ(A.Stats.TracesAborted, B.Stats.TracesAborted);
    EXPECT_EQ(A.Stats.LoopsBlacklisted, B.Stats.LoopsBlacklisted);
    EXPECT_EQ(A.Stats.TraceEnters, B.Stats.TraceEnters);
  }
  // The megamorphic kernel stays on trace: the site is recorded as a
  // generic lookup, so the tree takes only a handful of side exits.
  TierRun M = runTier(megamorphicKernel(20000), TierMode::Trace);
  EXPECT_GE(M.Stats.IcRecorderGeneric, 1u);
  EXPECT_LE(M.Stats.SideExits, 10u);
}

// --- Cache lifecycle ------------------------------------------------------------

TEST(Tier, MethodCodeSurvivesCacheFlushViaGenerationDrop) {
  std::string Src = "var t = 0; for (var i = 0; i < 20000; ++i) t = t + i;"
                    "print(t);";
  std::string Want = interpOutput(Src);

  EngineOptions O;
  O.EnableJit = true;
  O.Tier = TierMode::Method;
  O.CollectStats = true;
  Engine E(O);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  ASSERT_TRUE(E.eval(Src).ok());
  EXPECT_EQ(Out, Want);
  uint64_t FirstCompiles = E.stats().MethodCompiles;
  ASSERT_GE(FirstCompiles, 1u);
  uint32_t Gen = E.cacheGeneration();

  // Flush: the method body dies with its generation, but the loop keeps
  // its tier and recompiles -- a flush must not act like a demotion.
  E.flushCodeCache();
  Out.clear();
  ASSERT_TRUE(E.eval(Src).ok());
  EXPECT_EQ(Out, Want);
  EXPECT_GT(E.cacheGeneration(), Gen);
  EXPECT_GT(E.stats().MethodCompiles, FirstCompiles)
      << "the loop must recompile after the flush";
  EXPECT_GE(loopsInTier(E, Tier::Method), 1u) << "tier survives the flush";
  EXPECT_EQ(E.stats().LoopsDemoted, 0u);
}

// --- Governance inside method code ----------------------------------------------

TEST(Tier, DeadlineFiresInsideMethodCode) {
  EngineOptions O;
  O.EnableJit = true;
  O.Tier = TierMode::Method;
  O.CollectStats = true;
  O.EvalDeadlineMs = 100;
  Engine E(O);
  auto T0 = std::chrono::steady_clock::now();
  auto R = E.eval(InfiniteLoop);
  double Wall = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, ErrorKind::Timeout);
  EXPECT_LT(Wall, 5000.0);
  VMStats S = E.stats();
  EXPECT_GE(S.Timeouts, 1u);
  EXPECT_GE(S.MethodEnters, 1u)
      << "the loop must have been in method code when the timer fired";
}

TEST(Tier, HeapQuotaFiresUnderMethodCode) {
  EngineOptions O;
  O.EnableJit = true;
  O.Tier = TierMode::Method;
  O.CollectStats = true;
  O.MaxHeapBytes = 6u << 20;
  Engine E(O);
  auto R = E.eval(AllocBomb);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, ErrorKind::OutOfMemory);
  EXPECT_GE(E.stats().HeapQuotaHits, 1u);
  EXPECT_GE(E.stats().MethodEnters, 1u);
}

// --- Performance floor ----------------------------------------------------------

TEST(Tier, HybridBeatsInterpreterOnHostileKernels) {
  // The acceptance bar lives in bench/tier_hostile (>= 2x); this test
  // keeps a conservative floor so a catastrophic regression of whatever
  // tier hybrid mode picks (the trace tier, for these two kernels) fails
  // fast in the unit suite. Interleaved best-of-3 per config.
  for (const std::string &Src :
       {megamorphicKernel(200000), branchyKernel(200000)}) {
    double BestI = 1e300, BestH = 1e300;
    std::string OutI, OutH;
    for (int K = 0; K < 3; ++K) {
      auto T0 = std::chrono::steady_clock::now();
      TierRun I = runTier(Src, TierMode::Trace, /*Jit=*/false);
      auto T1 = std::chrono::steady_clock::now();
      TierRun H = runTier(Src, TierMode::Hybrid);
      auto T2 = std::chrono::steady_clock::now();
      ASSERT_TRUE(I.Ok && H.Ok);
      OutI = I.Out;
      OutH = H.Out;
      double MsI = std::chrono::duration<double, std::milli>(T1 - T0).count();
      double MsH = std::chrono::duration<double, std::milli>(T2 - T1).count();
      BestI = std::min(BestI, MsI);
      BestH = std::min(BestH, MsH);
    }
    EXPECT_EQ(OutI, OutH);
    EXPECT_LT(BestH, BestI)
        << "hybrid slower than the interpreter on a trace-hostile kernel ("
        << BestH << "ms vs " << BestI << "ms)";
  }
}

// --- Stitched re-entry (trace tier pin) -----------------------------------------

TEST(Tier, StitchedReentryReRunsOptimizedTracePrologue) {
  // A branchy loop over an invariant object: -O2 hoists the shape guard
  // and invariant loads into an entry prologue, and the untraced arm
  // stitches back into the tree via JmpFrag. Trace-tier JmpFrag re-entry
  // must re-run that prologue (re-validating the hoisted guards) -- the
  // method tier skips prologues precisely because its bodies never have
  // one, and this pins the trace side of that asymmetry.
  std::string Src = R"js(
var o = {scale: 3, bias: 7};
var t = 0;
for (var i = 0; i < 30000; ++i) {
  if ((i & 3) == 0) { t = t + o.scale * i; }
  else { t = t + o.bias; }
}
print(t);
)js";
  TierRun T = runTier(Src, TierMode::Trace);
  ASSERT_TRUE(T.Ok) << T.Err;
  EXPECT_EQ(T.Out, interpOutput(Src));
  EXPECT_GE(T.Stats.LoopsWithPrologue, 1u)
      << "the optimizer must have built an entry prologue";
  EXPECT_GE(T.Stats.BranchesCompiled, 1u);
  EXPECT_GE(T.Stats.StitchedTransfers, 1u)
      << "the cold arm must re-enter the tree through a stitched JmpFrag";
  EXPECT_EQ(T.Stats.MethodCompiles, 0u);
}

//===- test_tier.cpp - §3.3 blacklisting and the trace tier end to end -------===//
//
// The TierPolicy backoff/blacklist rule (trace/tier.h) and the trace tier
// end to end: blacklisting of trace-hostile loops, branch overflow that
// blocks one exit but keeps the tree, a blacklist surviving a cache flush,
// run-to-run determinism, a performance floor on the trace-hostile
// kernels, and the stitched re-entry behavior of optimized trace roots.
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

  uint64_t count(JitEventKind K) const {
    uint64_t N = 0;
    for (const JitEvent &E : Events)
      N += E.Kind == K;
    return N;
  }
};

// Megamorphic dispatch: eight shapes flow through one property site inside
// the hot loop. The recorder calls the generic lookup at the megamorphic
// site, so the loop stays on trace.
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

// A call chain ten frames deep: the recorder inlines all of it, so the
// loop becomes one tree.
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

// Every iteration calls a recursive function. Recursion is not traced, so
// every root recording aborts and the loop is blacklisted after
// MaxRecordingFailures.
std::string recursiveCallKernel(int Iters) {
  return R"js(
function depth(n) { if (n == 0) return 0; return 1 + depth(n - 1); }
var t = 0;
for (var i = 0; i < )js" +
         std::to_string(Iters) + R"js(; ++i) t = t + depth(i & 3);
print(t);
)js";
}

// One arm of a branch calls a recursive function. The root trace records
// the common arm; every recording from the rare arm's side exit aborts
// with RecursiveCall until the exit overflows its recording budget, and
// then only that exit stops recording (branch-overflow path).
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

struct TierRun {
  std::string Out;
  VMStats Stats;
  bool Ok = true;
  std::string Err;
};

TierRun runTier(const std::string &Src, bool Jit = true) {
  EngineOptions O;
  O.EnableJit = Jit;
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
  return runTier(Src, /*Jit=*/false).Out;
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

TEST(Tier, PolicyRepeatedAbortsBackOffThenBlacklist) {
  EngineOptions O;
  ASSERT_EQ(O.MaxRecordingFailures, 2u);
  TierPolicy P(O);
  TierState S;
  EXPECT_FALSE(P.onRootAbort(S, /*Counts=*/true, 10));
  EXPECT_EQ(S.Failures, 1u);
  EXPECT_EQ(S.BackoffUntil, 10u + O.BlacklistBackoff);
  EXPECT_TRUE(P.onRootAbort(S, /*Counts=*/true, 50)) << "the failure cap";

  // Forgiven aborts back off briefly but never accumulate failures.
  TierState SF;
  EXPECT_FALSE(P.onRootAbort(SF, /*Counts=*/false, 7));
  EXPECT_EQ(SF.Failures, 0u);
  EXPECT_EQ(SF.BackoffUntil, 11u);

  // A blacklisted loop is out of the policy's hands.
  TierState SB;
  SB.Current = Tier::Interpreter;
  EXPECT_FALSE(P.onRootAbort(SB, /*Counts=*/true, 10));
  EXPECT_EQ(SB.Failures, 0u);

  // The §3.3 ablation: with blacklisting off the loop never leaves the
  // trace tier.
  O.EnableBlacklisting = false;
  TierPolicy PO(O);
  TierState SO;
  for (uint32_t K = 0; K < 2 * O.MaxRecordingFailures; ++K)
    EXPECT_FALSE(PO.onRootAbort(SO, /*Counts=*/true, 10 + K));
}

TEST(Tier, PolicyDiscardsOneExitOnlyRecordingThenKeepsThem) {
  EngineOptions O;
  TierPolicy P(O);
  TierState S;
  // Discarded: no failure, and no backoff, so the next crossing records.
  for (uint32_t K = 0; K < TierPolicy::MaxExitOnlyDiscards; ++K) {
    EXPECT_TRUE(TierPolicy::discardsExitOnly(S));
    P.onExitOnlyAbort(S);
    EXPECT_EQ(S.Failures, 0u);
    EXPECT_EQ(S.BackoffUntil, 0u);
  }
  // Past the allowance the exit-only trunk is kept.
  EXPECT_FALSE(TierPolicy::discardsExitOnly(S));
  TierState Blacklisted;
  Blacklisted.Current = Tier::Interpreter;
  EXPECT_FALSE(TierPolicy::discardsExitOnly(Blacklisted));
}

// --- Blacklisting end to end ---------------------------------------------------

TEST(Tier, DeepCallLoopTracesAndEnters) {
  std::string Src = deepCallKernel(50000);
  TierRun R = runTier(Src);
  ASSERT_TRUE(R.Ok) << R.Err;
  EXPECT_EQ(R.Out, interpOutput(Src));
  EXPECT_EQ(R.Stats.TracesAborted, 0u) << "the whole chain inlines";
  EXPECT_EQ(R.Stats.LoopsBlacklisted, 0u);
  EXPECT_EQ(R.Stats.TreesCompiled, 1u);
  EXPECT_GE(R.Stats.TraceEnters, 1u);
  EXPECT_GT(R.Stats.BytecodesNative, 10 * R.Stats.BytecodesInterpreted)
      << "the loop must run on trace, not in the interpreter";
}

TEST(Tier, RecursiveCallLoopIsBlacklisted) {
  std::string Src = recursiveCallKernel(50000);
  std::string Want = interpOutput(Src);

  EngineOptions O;
  O.EnableJit = true;
  O.CollectStats = true;
  Engine E(O);
  CollectingListener L;
  E.addEventListener(&L);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  ASSERT_TRUE(E.eval(Src).ok());
  E.removeEventListener(&L);
  EXPECT_EQ(Out, Want);

  VMStats S = E.stats();
  EXPECT_GE(S.AbortsByReason[(size_t)AbortReason::RecursiveCall],
            (uint64_t)O.MaxRecordingFailures);
  EXPECT_EQ(S.LoopsBlacklisted, 1u);
  EXPECT_EQ(L.count(JitEventKind::Blacklisted), 1u);
  EXPECT_EQ(S.TracesCompleted, 0u);
  EXPECT_EQ(loopsInTier(E, Tier::Interpreter), 1u);
}

TEST(Tier, BranchOverflowBlocksTheExitAndKeepsTheTree) {
  std::string Src = recursiveArmKernel(50000);
  TierRun R = runTier(Src);
  ASSERT_TRUE(R.Ok) << R.Err;
  EXPECT_EQ(R.Out, interpOutput(Src));
  EXPECT_GE(R.Stats.AbortsByReason[(size_t)AbortReason::RecursiveCall], 1u);
  EXPECT_GE(R.Stats.TreesCompiled, 1u) << "the root traced the common arm";
  EXPECT_EQ(R.Stats.LoopsBlacklisted, 0u)
      << "a failing branch blocks its exit, not the whole loop";
}

TEST(Tier, TierOfReportsTraceUntilBlacklisted) {
  EngineOptions O;
  O.EnableJit = true;
  Engine E(O);
  ASSERT_TRUE(
      E.eval("var t = 0; for (var i = 0; i < 20000; ++i) t = t + i;").ok());
  EXPECT_GE(loopsInTier(E, Tier::Trace), 1u);
  EXPECT_EQ(loopsInTier(E, Tier::Interpreter), 0u);
  // An unseen loop id reports the trace tier every loop starts in.
  EXPECT_EQ(E.tierOf(9999, 0), Tier::Trace);
  ASSERT_TRUE(E.eval(recursiveCallKernel(20000)).ok());
  EXPECT_EQ(loopsInTier(E, Tier::Interpreter), 1u);

  EngineOptions Off;
  Off.EnableJit = false;
  Engine EOff(Off);
  ASSERT_TRUE(EOff.eval("var t = 0; for (var i = 0; i < 100; ++i) t = t + i;")
                  .ok());
  EXPECT_EQ(EOff.tierOf(0, 0), Tier::Interpreter)
      << "JIT off: everything interprets";
}

// --- The trace pipeline is deterministic ---------------------------------------

TEST(Tier, TracePipelineIsDeterministic) {
  // A corpus that exercises compile success, megamorphic sites, and
  // branchy trees: two identical runs must produce identical pipelines.
  std::vector<std::string> Corpus = {
      "var t = 0; for (var i = 0; i < 5000; ++i) t = t + i; print(t);",
      megamorphicKernel(20000),
      branchyKernel(20000),
      "var t = 0.5; for (var i = 0; i < 3000; ++i) t = t + 0.25; print(t);",
  };
  for (const std::string &Src : Corpus) {
    std::string Want = interpOutput(Src);
    TierRun A = runTier(Src);
    TierRun B = runTier(Src);
    ASSERT_TRUE(A.Ok && B.Ok) << A.Err << B.Err;
    EXPECT_EQ(A.Out, Want);
    EXPECT_EQ(B.Out, Want);
    // Same recordings, same aborts, same blacklist verdicts on every run.
    EXPECT_EQ(A.Stats.TracesStarted, B.Stats.TracesStarted);
    EXPECT_EQ(A.Stats.TracesCompleted, B.Stats.TracesCompleted);
    EXPECT_EQ(A.Stats.TracesAborted, B.Stats.TracesAborted);
    EXPECT_EQ(A.Stats.LoopsBlacklisted, B.Stats.LoopsBlacklisted);
    EXPECT_EQ(A.Stats.TraceEnters, B.Stats.TraceEnters);
  }
  // The megamorphic kernel stays on trace: the site is recorded as a
  // generic lookup, so the tree takes only a handful of side exits.
  TierRun M = runTier(megamorphicKernel(20000));
  EXPECT_GE(M.Stats.IcRecorderGeneric, 1u);
  EXPECT_LE(M.Stats.SideExits, 10u);
}

// --- Cache lifecycle ------------------------------------------------------------

TEST(Tier, BlacklistSurvivesCacheFlush) {
  // The loop lives in a function, so the second eval reaches the same
  // loop header after the flush.
  std::string Src = recursiveCallKernel(0) + R"js(
function spin(n) {
  var s = 0;
  for (var i = 0; i < n; ++i) s = s + depth(i & 3);
  return s;
}
print(spin(20000));
)js";
  std::string Want = interpOutput(Src);

  EngineOptions O;
  O.EnableJit = true;
  O.CollectStats = true;
  Engine E(O);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  ASSERT_TRUE(E.eval(Src).ok());
  EXPECT_EQ(Out, Want);
  ASSERT_EQ(E.stats().LoopsBlacklisted, 1u);
  uint32_t Gen = E.cacheGeneration();

  // Flush: fragments die with their generation, but the blacklisted
  // header stays patched -- a flush must not resurrect the loop.
  E.flushCodeCache();
  uint64_t Started = E.stats().TracesStarted;
  Out.clear();
  ASSERT_TRUE(E.eval("print(spin(20000));").ok());
  EXPECT_EQ(Out, Want.substr(Want.find('\n') + 1)) << "spin's line again";
  EXPECT_GT(E.cacheGeneration(), Gen);
  EXPECT_EQ(E.stats().TracesStarted, Started) << "the loop re-recorded";
  EXPECT_EQ(E.stats().LoopsBlacklisted, 1u);
  EXPECT_GE(loopsInTier(E, Tier::Interpreter), 1u);
}

// --- Performance floor ----------------------------------------------------------

TEST(Tier, TraceBeatsInterpreterOnHostileKernels) {
  // The acceptance bar (>= 2x) is the bench gate's, on bench/snapshot's
  // trace-hostile rows; this test keeps a conservative floor so a
  // catastrophic regression of the trace tier on these kernels fails fast
  // in the unit suite. Interleaved best-of-3 per config.
  for (const std::string &Src :
       {megamorphicKernel(200000), branchyKernel(200000)}) {
    double BestI = 1e300, BestT = 1e300;
    std::string OutI, OutT;
    for (int K = 0; K < 3; ++K) {
      auto T0 = std::chrono::steady_clock::now();
      TierRun I = runTier(Src, /*Jit=*/false);
      auto T1 = std::chrono::steady_clock::now();
      TierRun T = runTier(Src);
      auto T2 = std::chrono::steady_clock::now();
      ASSERT_TRUE(I.Ok && T.Ok);
      OutI = I.Out;
      OutT = T.Out;
      double MsI = std::chrono::duration<double, std::milli>(T1 - T0).count();
      double MsT = std::chrono::duration<double, std::milli>(T2 - T1).count();
      BestI = std::min(BestI, MsI);
      BestT = std::min(BestT, MsT);
    }
    EXPECT_EQ(OutI, OutT);
    EXPECT_LT(BestT, BestI)
        << "trace slower than the interpreter on a trace-hostile kernel ("
        << BestT << "ms vs " << BestI << "ms)";
  }
}

// --- Stitched re-entry ----------------------------------------------------------

TEST(Tier, StitchedReentryReRunsOptimizedTracePrologue) {
  // A branchy loop over an invariant object: -O2 hoists the shape guard
  // and invariant loads into an entry prologue, and the untraced arm
  // stitches back into the tree via JmpFrag. JmpFrag re-entry must re-run
  // that prologue, re-validating the hoisted guards.
  std::string Src = R"js(
var o = {scale: 3, bias: 7};
var t = 0;
for (var i = 0; i < 30000; ++i) {
  if ((i & 3) == 0) { t = t + o.scale * i; }
  else { t = t + o.bias; }
}
print(t);
)js";
  TierRun T = runTier(Src);
  ASSERT_TRUE(T.Ok) << T.Err;
  EXPECT_EQ(T.Out, interpOutput(Src));
  EXPECT_GE(T.Stats.LoopsWithPrologue, 1u)
      << "the optimizer must have built an entry prologue";
  EXPECT_GE(T.Stats.BranchesCompiled, 1u);
  EXPECT_GE(T.Stats.StitchedTransfers, 1u)
      << "the cold arm must re-enter the tree through a stitched JmpFrag";
}

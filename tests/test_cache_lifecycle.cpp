//===- test_cache_lifecycle.cpp - Code-cache lifecycle governance ----------===//
//
// Covers the bounded executable pool (reserve/commit/rewind, floor/reset),
// whole-cache flush under a tiny CodeCacheBytes with results identical to
// the pure interpreter, the deterministic fault-injection sites of the code
// cache (map, alloc, compile -- the last with and without
// OffThreadCompile), flush deferral while a trace is on the native stack,
// and the MaxCacheFlushes kill switch.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "jit/execmem.h"
#include "trace/monitor.h"

using namespace tracejit;

namespace {

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

/// N distinct hot loops, each compiling to its own fragment; `total` (the
/// final expression) deterministically folds every loop's result.
std::string churnWorkload(int Loops, int Iters) {
  std::string S = "var total = 0;\n";
  for (int L = 0; L < Loops; ++L) {
    std::string I = "i";
    I += std::to_string(L);
    std::string A = "a";
    A += std::to_string(L);
    S += "var " + A + " = 0;\n";
    S += "for (var " + I + " = 0; " + I + " < " + std::to_string(Iters) +
         "; ++" + I + ") { " + A + " += " + I + " * " +
         std::to_string(L + 1) + " + " + std::to_string(L % 3) + "; }\n";
    S += "total += " + A + ";\n";
  }
  S += "total;";
  return S;
}

/// Ground truth for a workload: what the pure interpreter computes.
double interpretedResult(const std::string &Src) {
  EngineOptions O;
  O.EnableJit = false;
  Engine E(O);
  auto R = E.eval(Src);
  EXPECT_TRUE(R.ok()) << R.Err.describe();
  return R.LastValue.numberValue();
}

} // namespace

// --- ExecMemPool: reservation protocol, floor, faults ------------------------

TEST(ExecPool, ReserveCommitKeepsOnlyActualBytes) {
  ExecMemPool Pool(1 << 16);
  ASSERT_TRUE(Pool.valid());
  size_t Before = Pool.used();
  uint8_t *P = Pool.reserve(4096);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(Pool.used(), Before + 4096);
  Pool.commit(100); // the assembler only emitted 100 bytes
  EXPECT_EQ(Pool.used(), Before + 100);
  // The next reservation starts 16-byte aligned after the committed bytes.
  uint8_t *Q = Pool.reserve(64);
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ((uintptr_t)Q % 16, 0u);
  EXPECT_GE(Q, P + 100);
  Pool.rewind();
  // Rewind returns to the reservation's (aligned) start; only the 15-byte
  // alignment pad in front of it stays consumed.
  EXPECT_EQ(Pool.used(), (Before + 100 + 15) & ~(size_t)15)
      << "rewind must return the whole reservation";
}

TEST(ExecPool, ReserveFailsWhenExhaustedAndPoolStaysUsable) {
  ExecMemPool Pool(4096); // one page
  ASSERT_TRUE(Pool.valid());
  EXPECT_EQ(Pool.reserve(Pool.capacity() + 1), nullptr);
  uint8_t *P = Pool.allocate(128); // failed reserve left no reservation open
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(Pool.used(), 128u);
}

TEST(ExecPool, ResetRewindsToFloor) {
  ExecMemPool Pool(1 << 16);
  ASSERT_TRUE(Pool.valid());
  ASSERT_NE(Pool.allocate(200), nullptr); // "runtime stubs"
  Pool.setFloor();
  ASSERT_NE(Pool.allocate(1000), nullptr);
  ASSERT_NE(Pool.allocate(500), nullptr);
  size_t Reclaimed = Pool.reset();
  EXPECT_GE(Reclaimed, 1500u); // plus alignment padding
  EXPECT_EQ(Pool.used(), Pool.floorBytes());
  EXPECT_EQ(Pool.used(), 200u);
}

TEST(ExecPool, InjectedMapFailureLeavesPoolInvalid) {
  FaultHook Hook = [](FaultSite S) { return S == FaultSite::ExecMapFail; };
  ExecMemPool Pool(1 << 16, &Hook);
  EXPECT_FALSE(Pool.valid());
  EXPECT_EQ(Pool.reserve(64), nullptr);
}

TEST(ExecPool, InjectedAllocFailureLeavesPoolUsable) {
  bool FailAlloc = false;
  FaultHook Hook = [&](FaultSite S) {
    return S == FaultSite::ExecAllocFail && FailAlloc;
  };
  ExecMemPool Pool(1 << 16, &Hook);
  ASSERT_TRUE(Pool.valid());

  FailAlloc = true;
  EXPECT_EQ(Pool.reserve(64), nullptr);
  EXPECT_EQ(Pool.used(), 0u);
  FailAlloc = false;
  ASSERT_NE(Pool.allocate(64), nullptr);
}

// --- Whole-cache flush under memory pressure ---------------------------------

TEST(CacheLifecycle, TinyCacheFlushesAndMatchesInterpreter) {
  // Twenty loops: ten compiled to 1.6 KiB with 4-byte exit stubs and
  // fitted in the page next to the call table, without a flush.
  std::string Src = churnWorkload(20, 60);
  double Want = interpretedResult(Src);

  EngineOptions O;

  O.EnableJit = true;
  O.CollectStats = true;
  O.CodeCacheBytes = 4096;   // one page: a handful of fragments at most
  O.MaxCacheFlushes = 1000;  // keep the kill switch out of this test
  O.StaticAnalysis = false;  // elided guards shrink traces enough to fit
  Engine E(O);
  CollectingListener L;
  E.addEventListener(&L);

  auto R = E.eval(Src);
  ASSERT_TRUE(R.ok()) << R.Err.describe();
  EXPECT_EQ(R.LastValue.numberValue(), Want)
      << "flush-churned JIT run diverged from the interpreter";

  VMStats S = E.stats();
  EXPECT_GE(S.CacheFlushes, 1u) << "twenty loops cannot fit in one page";
  EXPECT_GT(S.CacheBytesReclaimed, 0u);
  EXPECT_GT(S.FragmentsRetired, 0u);
  EXPECT_EQ(E.cacheGeneration(), S.CacheFlushes);
  EXPECT_GE(L.count(JitEventKind::CacheFlush), 1u);
  EXPECT_GE(L.count(JitEventKind::FragmentRetired), 1u);
  EXPECT_NE(S.report().find("code cache:"), std::string::npos);

  // Surviving fragments were all compiled in the current generation --
  // nothing from a retired generation is still reachable.
  for (const FragmentProfile &P : E.fragmentProfiles())
    EXPECT_EQ(P.Generation, E.cacheGeneration());

  // The engine is not wedged: the same workload still evaluates correctly.
  auto R2 = E.eval(Src);
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(R2.LastValue.numberValue(), Want);
}

TEST(CacheLifecycle, CommittedBytesMatchFragmentSizes) {
  EngineOptions O;
  O.EnableJit = true;
  Engine E(O);
  size_t StubBytes = E.codeCacheUsed(); // floor: the runtime stubs
  EXPECT_GT(E.codeCacheCapacity(), 0u);

  ASSERT_TRUE(E.eval(churnWorkload(3, 60)).ok());
  std::vector<FragmentProfile> Profiles = E.fragmentProfiles();
  ASSERT_FALSE(Profiles.empty());
  size_t SumNative = 0, Compiled = 0;
  for (const FragmentProfile &P : Profiles) {
    SumNative += P.NativeBytes;
    Compiled += P.NativeBytes > 0;
  }
  ASSERT_GT(Compiled, 0u);
  size_t Delta = E.codeCacheUsed() - StubBytes;
  // commit() keeps exactly NativeSize per fragment; reserve() adds at most
  // 15 bytes of alignment padding in front of each.
  EXPECT_GE(Delta, SumNative);
  EXPECT_LE(Delta, SumNative + 16 * Compiled);
}

// --- Host-requested flush and deferral ---------------------------------------

TEST(CacheLifecycle, HostFlushRetiresAndRecompiles) {
  EngineOptions O;
  O.EnableJit = true;
  O.CollectStats = true;
  Engine E(O);
  std::string Src = churnWorkload(2, 60);
  double Want = interpretedResult(Src);

  ASSERT_TRUE(E.eval(Src).ok());
  EXPECT_FALSE(E.fragmentProfiles().empty());
  size_t UsedBefore = E.codeCacheUsed();

  E.flushCodeCache(); // safe point: flush runs immediately
  EXPECT_EQ(E.cacheGeneration(), 1u);
  EXPECT_TRUE(E.fragmentProfiles().empty());
  EXPECT_LT(E.codeCacheUsed(), UsedBefore) << "fragment code was reclaimed";

  auto R = E.eval(Src); // re-enters monitoring cold and recompiles
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.LastValue.numberValue(), Want);
  EXPECT_FALSE(E.fragmentProfiles().empty());
}

TEST(CacheLifecycle, FlushDefersWhileTraceOnNativeStack) {
  EngineOptions O;
  O.EnableJit = true;
  Engine E(O);
  ASSERT_TRUE(E.eval(churnWorkload(2, 60)).ok());
  ASSERT_FALSE(E.fragmentProfiles().empty());

  // Simulate the host requesting a flush from a native callback while a
  // trace is running: the flush must be deferred, not executed under the
  // running code, and not dropped.
  E.context().OnTrace = true;
  E.flushCodeCache();
  EXPECT_EQ(E.cacheGeneration(), 0u) << "flush must not run on-trace";
  EXPECT_FALSE(E.fragmentProfiles().empty());
  E.context().OnTrace = false;

  // The next loop edge is the safe point that runs the deferred flush.
  ASSERT_TRUE(E.eval("var z = 0; for (var q = 0; q < 50; ++q) z += q;").ok());
  EXPECT_EQ(E.cacheGeneration(), 1u) << "deferred flush never ran";
}

// --- Fault injection --------------------------------------------------------

TEST(FaultInjection, ExecMapFailFallsBackToExecutor) {
  std::string Src = churnWorkload(2, 60);
  double Want = interpretedResult(Src);

  EngineOptions O;

  O.EnableJit = true;
  O.CollectStats = true;
  O.CaptureTraceEvents = true; // built-in listener sees construction events
  O.FaultInjector = [](FaultSite S) { return S == FaultSite::ExecMapFail; };
  Engine E(O);

  auto R = E.eval(Src);
  ASSERT_TRUE(R.ok()) << R.Err.describe();
  EXPECT_EQ(R.LastValue.numberValue(), Want);

  VMStats S = E.stats();
  EXPECT_EQ(S.BackendFallbacks, 1u);
  EXPECT_GT(S.TracesCompleted, 0u) << "the executor backend still traces";
  for (const FragmentProfile &P : E.fragmentProfiles())
    EXPECT_EQ(P.NativeBytes, 0u) << "no native code without a pool";
  EXPECT_EQ(E.codeCacheCapacity(), 0u);

  std::string Path = testing::TempDir() + "mapfail_events.json";
  ASSERT_TRUE(E.exportTraceEvents(Path));
  std::string J;
  {
    FILE *F = fopen(Path.c_str(), "r");
    ASSERT_NE(F, nullptr);
    char Buf[4096];
    size_t N;
    while ((N = fread(Buf, 1, sizeof(Buf), F)) > 0)
      J.append(Buf, N);
    fclose(F);
  }
  remove(Path.c_str());
  EXPECT_NE(J.find("\"BackendFallback\""), std::string::npos)
      << "construction-time fallback event must reach built-in listeners";
}

TEST(FaultInjection, AllocFailFlushesThenTripsKillSwitch) {
  std::string Src = churnWorkload(3, 120);
  double Want = interpretedResult(Src);

  // Let the backend's one stub reservation through, then refuse every
  // fragment reservation: each compile ends in PoolExhausted, each
  // exhaustion forces a flush, and MaxCacheFlushes=2 trips the kill switch.
  auto Allocs = std::make_shared<int>(0);
  EngineOptions O;
  O.EnableJit = true;
  O.CollectStats = true;
  O.MaxCacheFlushes = 2;
  O.FaultInjector = [Allocs](FaultSite S) {
    if (S != FaultSite::ExecAllocFail)
      return false;
    return ++*Allocs > 1;
  };
  Engine E(O);
  CollectingListener L;
  E.addEventListener(&L);

  auto R = E.eval(Src);
  ASSERT_TRUE(R.ok()) << R.Err.describe();
  EXPECT_EQ(R.LastValue.numberValue(), Want);

  VMStats S = E.stats();
  EXPECT_GT(S.AbortsByReason[(size_t)AbortReason::CompilePoolExhausted], 0u);
  EXPECT_EQ(S.CacheFlushes, 2u);
  EXPECT_EQ(S.JitDisables, 1u);
  EXPECT_TRUE(E.jitDisabled());
  EXPECT_EQ(L.count(JitEventKind::JitDisabled), 1u);
  EXPECT_NE(S.report().find("compile-pool-exhausted"), std::string::npos);

  // Kill-switched engine: still correct, and permanently interpreter-only.
  auto R2 = E.eval(Src);
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(R2.LastValue.numberValue(), Want);
  EXPECT_EQ(E.stats().CacheFlushes, 2u) << "no further flushes once disabled";
  EXPECT_TRUE(E.jitDisabled());
}

TEST(FaultInjection, CompileFailAbortsIntoBlacklistBackoff) {
  std::string Src = churnWorkload(2, 200);
  double Want = interpretedResult(Src);

  EngineOptions O;

  O.EnableJit = true;
  O.CollectStats = true;
  O.FaultInjector = [](FaultSite S) { return S == FaultSite::CompileFail; };
  Engine E(O);
  CollectingListener L;
  E.addEventListener(&L);

  auto R = E.eval(Src);
  ASSERT_TRUE(R.ok()) << R.Err.describe();
  EXPECT_EQ(R.LastValue.numberValue(), Want);

  VMStats S = E.stats();
  EXPECT_GT(S.AbortsByReason[(size_t)AbortReason::CompileFault], 0u);
  EXPECT_EQ(S.TreesCompiled, 0u);
  // Repeated compile failures feed the normal recording-failure governance:
  // MaxRecordingFailures=2 blacklists the headers instead of re-recording
  // forever.
  EXPECT_GT(S.LoopsBlacklisted, 0u);
  EXPECT_GE(L.count(JitEventKind::Blacklisted), 1u);
  EXPECT_EQ(S.CacheFlushes, 0u) << "a compile fault is not memory pressure";
}

// --- One compile-failure path, queued or not ---------------------------------

namespace {

/// Every recording becomes a CompileJob; with OffThreadCompile the worker
/// runs it and a later loop edge publishes it, without it the monitor runs
/// and publishes it at once. Either way a failed compile must leave the
/// same abort, backoff and blacklist state behind once the queue settles.
/// The loops run long enough for the worker to finish every job while they
/// still run, so the queued pipeline records as often as the inline one.
struct CompileFailPath : ::testing::TestWithParam<bool> {
  /// Fail every compile after the first \p Passing ones. The hook runs on
  /// the compiler thread when the queue is on, hence the atomic.
  VMStats run(const char *Src, double Want, int Passing) {
    auto Compiles = std::make_shared<std::atomic<int>>(0);
    EngineOptions O;
    O.JitBackend = Backend::Native;
    O.CollectStats = true;
    O.OffThreadCompile = GetParam();
    O.FaultInjector = [Compiles, Passing](FaultSite S) {
      return S == FaultSite::CompileFail && Compiles->fetch_add(1) >= Passing;
    };
    Engine E(O);
    auto R = E.eval(Src);
    EXPECT_TRUE(R.ok()) << R.Err.describe();
    EXPECT_EQ(R.LastValue.numberValue(), Want);
    E.waitForCompileQueue();
    for (const auto &F : E.context().Monitor->fragments())
      for (const auto &X : F->Exits)
        if (X->FailedRecordings) {
          ExitFailures.push_back(X->FailedRecordings);
          ExitsBlocked += X->RecordingBlocked;
        }
    return E.stats();
  }

  std::vector<uint32_t> ExitFailures;
  uint32_t ExitsBlocked = 0;
};

} // namespace

TEST_P(CompileFailPath, RootFailuresBlacklistTheLoop) {
  VMStats S = run("var s = 0; for (var i = 0; i < 200000; ++i) s += 2; s;",
                  400000, 0);
  EXPECT_EQ(S.TracesAborted, 2u);
  EXPECT_EQ(S.AbortsByReason[(size_t)AbortReason::CompileFault], 2u);
  EXPECT_EQ(S.LoopsBlacklisted, 1u);
  EXPECT_EQ(S.TreesCompiled, 0u);
  EXPECT_EQ(S.CacheFlushes, 0u);
  EXPECT_TRUE(ExitFailures.empty());
  EXPECT_EQ(S.CompileJobsQueued, GetParam() ? 2u : 0u)
      << "only jobs that went through the queue count as queued";
  EXPECT_EQ(S.CompileJobsDropped, GetParam() ? 2u : 0u);
  EXPECT_EQ(S.CompileJobsPublished, 0u);
}

TEST_P(CompileFailPath, BranchFailuresBlockTheExitAndKeepTheTree) {
  // The root compiles; every branch compile fails.
  VMStats S = run("var s = 0;\n"
                  "for (var i = 0; i < 200000; ++i) {\n"
                  "  if ((i & 7) == 0) s += 3; else s += 1;\n"
                  "}\n"
                  "s;",
                  250000, 1);
  EXPECT_EQ(S.TreesCompiled, 1u);
  EXPECT_EQ(S.BranchesCompiled, 0u);
  EXPECT_EQ(S.TracesAborted, 2u);
  EXPECT_EQ(S.AbortsByReason[(size_t)AbortReason::CompileFault], 2u);
  EXPECT_EQ(S.LoopsBlacklisted, 0u) << "branch failures never blacklist";
  ASSERT_EQ(ExitFailures.size(), 1u) << "one hot side exit";
  EXPECT_EQ(ExitFailures[0], 2u);
  EXPECT_EQ(ExitsBlocked, 1u) << "blocked after MaxRecordingFailures";
  EXPECT_EQ(S.CompileJobsQueued, GetParam() ? 3u : 0u);
  EXPECT_EQ(S.CompileJobsPublished, GetParam() ? 1u : 0u);
  EXPECT_EQ(S.CompileJobsDropped, GetParam() ? 2u : 0u);
}

INSTANTIATE_TEST_SUITE_P(
    , CompileFailPath, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool> &I) {
      return I.param ? "OffThread" : "Inline";
    });

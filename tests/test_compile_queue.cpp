//===- test_compile_queue.cpp - Off-thread trace compilation -------------------===//
//
// Covers the background compile pipeline (EngineOptions::OffThreadCompile):
// the CompileService/CompileClient queue mechanics in isolation (bounded
// submit, drain order, quiesce, shutdown with jobs in flight), and the
// full engine pipeline (results identical to the interpreter, backpressure
// degrading to the normal blacklist backoff, publish-after-flush dropped
// by generation, destruction with jobs in flight, and the flag-off
// configuration keeping every new path inert).
//
//===----------------------------------------------------------------------===//

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "jit/compile_queue.h"

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

/// N distinct hot loops; `total` (the final expression) folds every loop's
/// result deterministically.
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

double interpretedResult(const std::string &Src) {
  EngineOptions O;
  O.EnableJit = false;
  Engine E(O);
  auto R = E.eval(Src);
  EXPECT_TRUE(R.ok()) << R.Err.describe();
  return R.LastValue.numberValue();
}

/// Null-backend job: exercises queue mechanics without compiling anything.
CompileJob markerJob(uint32_t Id) {
  CompileJob J;
  J.FragmentId = Id;
  return J;
}

/// Poll until the engine's compile queue has no unfinished jobs (the
/// worker is asynchronous; completion is not publication).
void awaitCompiled(Engine &E) {
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (E.pendingCompileJobs() > 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), Deadline)
        << "compile worker never finished";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

} // namespace

// --- CompileService / CompileClient mechanics --------------------------------

TEST(CompileQueue, BoundedSubmitThenDrainInOrder) {
  CompileService Svc;
  Svc.setPausedForTest(true); // deterministic: nothing runs until we say so
  auto C = Svc.createClient(2);

  EXPECT_FALSE(C->hasCompleted());
  EXPECT_TRUE(C->trySubmit(markerJob(1)));
  EXPECT_TRUE(C->trySubmit(markerJob(2)));
  EXPECT_FALSE(C->trySubmit(markerJob(3))) << "depth 2 means 2 in flight";
  EXPECT_EQ(C->pendingCount(), 2u);

  Svc.setPausedForTest(false);
  C->waitIdle();
  EXPECT_EQ(C->pendingCount(), 0u);
  EXPECT_TRUE(C->hasCompleted());

  std::vector<CompileJob> Done;
  C->drainCompleted(Done);
  ASSERT_EQ(Done.size(), 2u);
  EXPECT_EQ(Done[0].FragmentId, 1u) << "completion preserves submit order";
  EXPECT_EQ(Done[1].FragmentId, 2u);
  for (const CompileJob &J : Done) {
    EXPECT_TRUE(J.Compiled);
    EXPECT_EQ(J.Result, CompileResult::BackendUnavailable);
  }
  EXPECT_FALSE(C->hasCompleted()) << "drain clears the poll flag";

  // The freed slots are usable again.
  EXPECT_TRUE(C->trySubmit(markerJob(4)));
  C->waitIdle();
}

TEST(CompileQueue, QuiescePullsQueuedJobsBack) {
  CompileService Svc;
  Svc.setPausedForTest(true);
  auto C = Svc.createClient(4);
  ASSERT_TRUE(C->trySubmit(markerJob(7)));
  ASSERT_TRUE(C->trySubmit(markerJob(8)));

  std::vector<CompileJob> Dropped;
  C->quiesce(&Dropped);
  ASSERT_EQ(Dropped.size(), 2u);
  EXPECT_EQ(Dropped[0].FragmentId, 7u);
  EXPECT_FALSE(Dropped[0].Compiled) << "never reached the worker";
  EXPECT_EQ(C->pendingCount(), 0u);
  Svc.setPausedForTest(false);
  C->waitIdle(); // trivially idle; must not hang after a quiesce
}

TEST(CompileQueue, TwoClientsAreIsolated) {
  CompileService Svc;
  Svc.setPausedForTest(true);
  auto A = Svc.createClient(8);
  auto B = Svc.createClient(8);
  ASSERT_TRUE(A->trySubmit(markerJob(1)));
  ASSERT_TRUE(B->trySubmit(markerJob(100)));
  ASSERT_TRUE(A->trySubmit(markerJob(2)));

  // Quiescing A must not disturb B's queued job.
  std::vector<CompileJob> Dropped;
  A->quiesce(&Dropped);
  EXPECT_EQ(Dropped.size(), 2u);
  EXPECT_EQ(B->pendingCount(), 1u);

  Svc.setPausedForTest(false);
  B->waitIdle();
  std::vector<CompileJob> Done;
  B->drainCompleted(Done);
  ASSERT_EQ(Done.size(), 1u);
  EXPECT_EQ(Done[0].FragmentId, 100u);
}

TEST(CompileQueue, ClientDestructionWithJobsInFlightIsClean) {
  CompileService Svc;
  Svc.setPausedForTest(true);
  {
    auto C = Svc.createClient(4);
    ASSERT_TRUE(C->trySubmit(markerJob(1)));
    ASSERT_TRUE(C->trySubmit(markerJob(2)));
    // dtor quiesces: queued jobs are pulled back, nothing dangles.
  }
  Svc.setPausedForTest(false);
  // The service worker must still be healthy.
  auto C2 = Svc.createClient(1);
  ASSERT_TRUE(C2->trySubmit(markerJob(3)));
  C2->waitIdle();
}

// --- Engine pipeline ---------------------------------------------------------

TEST(OffThreadCompile, CompilesOffThreadAndMatchesInterpreter) {
  // Long loops: the publish happens mid-loop (on nproc=1 hosts the worker
  // still gets scheduled within a few ms), so the trace actually runs.
  std::string Src = churnWorkload(4, 20000);
  double Want = interpretedResult(Src);

  EngineOptions O;

  O.EnableJit = true;
  O.CollectStats = true;
  O.OffThreadCompile = true;
  Engine E(O);
  CollectingListener L;
  E.addEventListener(&L);

  auto R = E.eval(Src);
  ASSERT_TRUE(R.ok()) << R.Err.describe();
  EXPECT_EQ(R.LastValue.numberValue(), Want);
  E.waitForCompileQueue();

  VMStats S = E.stats();
  EXPECT_GT(S.CompileJobsQueued, 0u) << "hot loops must go off-thread";
  EXPECT_GT(S.CompileJobsPublished, 0u);
  EXPECT_EQ(S.CompileJobsQueued, S.CompileJobsPublished + S.CompileJobsDropped)
      << "every job is accounted for after the queue settles";
  EXPECT_GT(S.TreesCompiled, 0u);
  EXPECT_GE(L.count(JitEventKind::CompileJobQueued), S.CompileJobsPublished);
  EXPECT_NE(S.report().find("compile queue:"), std::string::npos);

  // Long loops publish mid-eval and then actually run natively.
  EXPECT_GT(S.TraceEnters, 0u) << "published traces were never entered";

  // Second eval re-uses the published trees and still agrees.
  auto R2 = E.eval(Src);
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(R2.LastValue.numberValue(), Want);
}

TEST(OffThreadCompile, BackpressureDegradesToInterpreterWithBackoff) {
  std::string Src = churnWorkload(5, 200);
  double Want = interpretedResult(Src);

  CompileService Svc;
  Svc.setPausedForTest(true); // the queue can only fill, never drain

  EngineOptions O;

  O.EnableJit = true;
  O.CollectStats = true;
  O.OffThreadCompile = true;
  O.CompileQueueDepth = 1;
  O.SharedCompileService = &Svc;
  {
    Engine E(O);
    auto R = E.eval(Src);
    ASSERT_TRUE(R.ok()) << R.Err.describe();
    EXPECT_EQ(R.LastValue.numberValue(), Want)
        << "a saturated compile queue must not affect results";

    VMStats S = E.stats();
    EXPECT_EQ(S.CompileJobsQueued, 1u) << "depth 1 admits exactly one job";
    EXPECT_GT(S.AbortsByReason[(size_t)AbortReason::CompileQueueFull], 0u)
        << "later hot loops must abort with the queue-full reason";
    EXPECT_EQ(S.TreesCompiled, 0u) << "nothing can publish while paused";
    EXPECT_NE(S.report().find("compile-queue-full"), std::string::npos);

    Svc.setPausedForTest(false);
    E.waitForCompileQueue();
    S = E.stats();
    EXPECT_EQ(S.CompileJobsQueued,
              S.CompileJobsPublished + S.CompileJobsDropped);
    // Engine dies here, while the shared service lives on.
  }
  Svc.setPausedForTest(false);
}

TEST(OffThreadCompile, PublishAfterFlushIsDroppedByGeneration) {
  CompileService Svc;
  Svc.setPausedForTest(true);

  EngineOptions O;

  O.EnableJit = true;
  O.CollectStats = true;
  O.OffThreadCompile = true;
  O.SharedCompileService = &Svc;
  Engine E(O);
  CollectingListener L;
  E.addEventListener(&L);

  // One hot loop: the job is submitted at a loop edge and still unfinished
  // (worker paused) when the script ends.
  ASSERT_TRUE(E.eval(churnWorkload(1, 200)).ok());
  ASSERT_GE(E.pendingCompileJobs(), 1u);

  // Let the worker finish the compile, but do NOT publish it yet.
  Svc.setPausedForTest(false);
  awaitCompiled(E);

  // Flush first: the cache generation moves past the job's.
  E.flushCodeCache();
  EXPECT_EQ(E.cacheGeneration(), 1u);

  // Publication now sees a stale generation and drops the finished code.
  E.pumpCompileQueue();
  VMStats S = E.stats();
  EXPECT_GE(S.CompileJobsDropped, 1u);
  EXPECT_EQ(S.CompileJobsPublished, 0u);
  EXPECT_EQ(S.TreesCompiled, 0u) << "stale code must never be installed";
  EXPECT_TRUE(E.fragmentProfiles().empty());
  ASSERT_GE(L.count(JitEventKind::CompileJobDropped), 1u);
  for (const JitEvent &Ev : L.Events)
    if (Ev.Kind == JitEventKind::CompileJobDropped) {
      EXPECT_EQ(Ev.Arg0, 0u) << "job was submitted in generation 0";
      EXPECT_EQ(Ev.Arg1, 1u) << "dropped against generation 1";
    }

  // The engine is not wedged: the loop re-records and republishes.
  ASSERT_TRUE(E.eval(churnWorkload(1, 200)).ok());
  E.waitForCompileQueue();
  EXPECT_GT(E.stats().CompileJobsPublished, 0u);
}

TEST(OffThreadCompile, EngineDestructionWithJobsInFlightIsClean) {
  // Shared service: the engine dies with a job still queued; its client
  // must quiesce so the worker never touches freed fragments.
  CompileService Svc;
  Svc.setPausedForTest(true);
  {
    EngineOptions O;
    O.EnableJit = true;
    O.OffThreadCompile = true;
    O.SharedCompileService = &Svc;
    Engine E(O);
    ASSERT_TRUE(E.eval(churnWorkload(2, 200)).ok());
    ASSERT_GE(E.pendingCompileJobs(), 1u);
  }
  Svc.setPausedForTest(false);

  // Engine-owned service: destruction joins the worker thread.
  {
    EngineOptions O;
    O.EnableJit = true;
    O.OffThreadCompile = true;
    Engine E(O);
    ASSERT_TRUE(E.eval(churnWorkload(2, 200)).ok());
  }
}

TEST(OffThreadCompile, OffByDefaultKeepsPipelineInert) {
  // The corpus runs three ways: interpreter (ground truth), default
  // options, and explicit OffThreadCompile=false. The default must be
  // byte-identical to the explicit-off configuration -- same output, same
  // values, same trace pipeline counters -- and neither may ever touch the
  // queue.
  const char *Corpus[] = {
      "var t = 0; for (var i = 0; i < 3000; ++i) t += i * 3 + 1; t;",
      "function f(n) { var s = 0; for (var i = 0; i < n; ++i) s += i; "
      "return s; }\nvar r = 0; for (var j = 0; j < 40; ++j) r = f(200); r;",
      "var m = 0;\nfor (var a = 0; a < 60; ++a)\n  for (var b = 0; b < 60; "
      "++b)\n    m += a * b;\nm;",
  };
  for (const char *Src : Corpus) {
    double Want = interpretedResult(Src);

    auto run = [&](const EngineOptions &O) {
      Engine E(O);
      auto R = E.eval(Src);
      EXPECT_TRUE(R.ok()) << R.Err.describe();
      EXPECT_EQ(R.LastValue.numberValue(), Want);
      EXPECT_EQ(E.pendingCompileJobs(), 0u);
      return E.stats();
    };

    EngineOptions Default;
    Default.EnableJit = true;
    Default.CollectStats = true;
    EXPECT_FALSE(Default.OffThreadCompile) << "the flag must default off";

    EngineOptions ExplicitOff = Default;
    ExplicitOff.OffThreadCompile = false;
    ExplicitOff.CompileQueueDepth = 2; // must be ignored when off

    VMStats A = run(Default), B = run(ExplicitOff);
    EXPECT_EQ(A.CompileJobsQueued, 0u);
    EXPECT_EQ(B.CompileJobsQueued, 0u);
    EXPECT_EQ(A.CompileJobsPublished, 0u);
    EXPECT_EQ(A.CompileJobsDropped, 0u);
    EXPECT_EQ(A.TreesCompiled, B.TreesCompiled);
    EXPECT_EQ(A.BranchesCompiled, B.BranchesCompiled);
    EXPECT_EQ(A.TracesCompleted, B.TracesCompleted);
    EXPECT_EQ(A.TraceEnters, B.TraceEnters);
    EXPECT_EQ(A.SideExits, B.SideExits);
    EXPECT_EQ(A.TracesAborted, B.TracesAborted);
  }
}

TEST(OffThreadCompile, FlagsParseThroughApplyFlag) {
  EngineOptions O;
  EXPECT_TRUE(O.applyFlag("--off-thread-compile"));
  EXPECT_TRUE(O.OffThreadCompile);
  EXPECT_TRUE(O.applyFlag("--no-off-thread-compile"));
  EXPECT_FALSE(O.OffThreadCompile);
  EXPECT_TRUE(O.applyFlag("--compile-queue-depth=32"));
  EXPECT_EQ(O.CompileQueueDepth, 32u);
  EXPECT_FALSE(O.applyFlag("--compile-queue-depth="));
  EXPECT_FALSE(O.applyFlag("--compile-queue-depth=0"));
  EXPECT_FALSE(O.applyFlag("--compile-queue-depth=abc"));
  EXPECT_EQ(O.CompileQueueDepth, 32u) << "bad values must not clobber";
}

//===- test_governance.cpp - Resource governance & interruption ----------------===//
//
// Covers the cooperative-interruption machinery: the interrupt bitmask and
// its safe points, script deadlines (in-thread clock poll and the engine
// timer thread reaching hot traces through the §6.4 guard), heap quotas
// terminating as OutOfMemory with a fully reusable engine, structured
// stack-overflow errors with source positions, fault-injected allocation
// failure, and the serving watchdog: per-request deadlines, hostile-traffic
// chaos across four workers, and the engine-recycle policy.
//
// The Watchdog suite runs under ThreadSanitizer in CI (see ci.yml).
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "jit/fragment.h"
#include "serve/server.h"
#include "support/events.h"

using namespace tracejit;
using namespace tracejit::serve;

namespace {

/// Effectively infinite: only a governor can end it.
const char *InfiniteLoop = "var t = 0; for (var i = 0; i < 1e18; ++i) t += 1;";

/// Allocates strings without bound -- but inside a function, so the error
/// unwind drops every reference and a later GC can reclaim the garbage.
const char *AllocBomb = "function bomb() {\n"
                        "  var a = [];\n"
                        "  for (var i = 0; i < 100000000; ++i) a[i] = \"x\" + i;\n"
                        "  return a;\n"
                        "}\n"
                        "bomb();";

/// A hot-loop script whose print output is its deterministic checksum.
std::string loopScript(int Variant, int Iters) {
  return "var t = 0; for (var i = 0; i < " + std::to_string(Iters) +
         "; ++i) t += i * " + std::to_string(Variant + 1) + " + " +
         std::to_string(Variant % 5) + "; print(t);";
}

std::string interpreterOutput(const std::string &Src) {
  EngineOptions O;
  O.EnableJit = false;
  Engine E(O);
  std::string Out;
  E.setPrintHook([&Out](const std::string &S) { Out += S; });
  EXPECT_TRUE(E.eval(Src).ok());
  return Out;
}

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

/// Raises the host-interrupt bit the moment the recorder attaches, so the
/// termination lands mid-recording (natives cannot do this: calling one
/// aborts the recording for its own reason).
class InterruptOnRecordStart final : public JitEventListener {
public:
  explicit InterruptOnRecordStart(VMContext &Ctx) : Ctx(Ctx) {}
  void onEvent(const JitEvent &E) override {
    if (E.Kind == JitEventKind::RecordStart && !Fired) {
      Fired = true;
      Ctx.requestInterrupt(InterruptHost);
    }
  }
  bool Fired = false;

private:
  VMContext &Ctx;
};

} // namespace

// --- Options plumbing ---------------------------------------------------------

TEST(Governance, FlagsParse) {
  EngineOptions O;
  EXPECT_TRUE(O.applyFlag("--deadline-ms=250"));
  EXPECT_EQ(O.EvalDeadlineMs, 250u);
  EXPECT_TRUE(O.applyFlag("--max-heap=1048576"));
  EXPECT_EQ(O.MaxHeapBytes, (size_t)1048576);
  EXPECT_TRUE(O.applyFlag("--max-frames=64"));
  EXPECT_EQ(O.MaxFrames, 64u);
  EXPECT_FALSE(O.applyFlag("--max-frames=0")) << "a frameless VM cannot run";
  EXPECT_FALSE(O.applyFlag("--max-frames=lots"));
  EXPECT_FALSE(O.applyFlag("--deadline-forever"));
}

// --- Structured stack overflow ------------------------------------------------

TEST(Governance, ConfigurableFrameLimitOverflowsStructured) {
  EngineOptions O;
  O.EnableJit = false;
  O.MaxFrames = 64;
  Engine E(O);
  auto R = E.eval("function f(n) { return f(n + 1); } f(0);");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, ErrorKind::StackOverflow);
  EXPECT_NE(R.Err.describe().find("StackOverflowError"), std::string::npos);
  EXPECT_GT(R.Err.Line, 0u) << "overflow must carry the call site";
  EXPECT_GE(E.stats().StackOverflows, 1u);

  // Same depth under a deeper limit completes: the limit is the knob.
  EngineOptions O2;
  O2.EnableJit = false;
  O2.MaxFrames = 128;
  Engine E2(O2);
  auto R2 = E2.eval(
      "function g(n) { if (n < 100) { return g(n + 1); } return n; } g(0);");
  EXPECT_TRUE(R2.ok()) << R2.Err.describe();
  auto R3 = E.eval(
      "function g(n) { if (n < 100) { return g(n + 1); } return n; } g(0);");
  ASSERT_FALSE(R3.ok()) << "depth 100 must not fit in 64 frames";
  EXPECT_EQ(R3.Err.Kind, ErrorKind::StackOverflow);
}

// --- Host interruption --------------------------------------------------------

TEST(Governance, HostInterruptTerminatesFromAnotherThread) {
  EngineOptions O;
  O.EnableJit = true;
  Engine E(O);
  std::atomic<bool> Done{false};
  // Re-raise until eval returns, as a real watchdog would: a single raise
  // landing before eval (which clears stale termination bits) would be
  // dropped and the loop would run forever.
  std::thread Killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    while (!Done.load(std::memory_order_acquire)) {
      E.requestInterrupt();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  auto R = E.eval(InfiniteLoop);
  Done.store(true, std::memory_order_release);
  Killer.join();
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, ErrorKind::Interrupted);
  EXPECT_NE(R.Err.describe().find("InterruptedError"), std::string::npos);
  EXPECT_GE(E.stats().HostInterrupts, 1u);
  // The engine is fully reusable afterwards.
  auto R2 = E.eval("var s = 0; for (var i = 0; i < 100; ++i) s += i; s;");
  ASSERT_TRUE(R2.ok()) << R2.Err.describe();
  EXPECT_EQ(R2.LastValue.numberValue(), 4950.0);
}

TEST(Governance, InterruptMidRecordingIsForgiven) {
  EngineOptions O;
  O.EnableJit = true;
  O.CollectStats = true;
  Engine E(O);
  InterruptOnRecordStart L(E.context());
  E.addEventListener(&L);
  auto R = E.eval(InfiniteLoop);
  ASSERT_TRUE(L.Fired) << "the loop never got hot enough to record";
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, ErrorKind::Interrupted);
  VMStats S = E.stats();
  EXPECT_GE(S.AbortsByReason[(size_t)AbortReason::Interrupted], 1u)
      << "the in-flight recording must be torn down via the forgiven abort";
  E.removeEventListener(&L);
  // Forgiven means no blacklist pressure: the same loop (bounded now)
  // records, compiles, and completes on reuse.
  auto R2 = E.eval(loopScript(1, 5000));
  EXPECT_TRUE(R2.ok()) << R2.Err.describe();
}

// --- Deadlines ----------------------------------------------------------------

TEST(Governance, DeadlineTerminatesHotLoopOnTrace) {
  EngineOptions O;
  O.EnableJit = true;
  O.CollectStats = true;
  O.EvalDeadlineMs = 100;
  Engine E(O);
  auto T0 = std::chrono::steady_clock::now();
  auto R = E.eval(InfiniteLoop);
  double Wall = msSince(T0);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, ErrorKind::Timeout);
  EXPECT_NE(R.Err.describe().find("TimeoutError"), std::string::npos);
  EXPECT_GE(Wall, 50.0) << "terminated well before the deadline";
  EXPECT_LT(Wall, 5000.0) << "deadline service latency is way off";
  EXPECT_GE(E.stats().Timeouts, 1u);
  // The loop was on-trace when the timer fired, so the termination must
  // have travelled through a §6.4 preempt guard.
  uint64_t PreemptHits = 0;
  for (const FragmentProfile &F : E.fragmentProfiles())
    for (const GuardProfile &G : F.Guards)
      if (G.ExitKindRaw == (uint8_t)ExitKind::Preempt)
        PreemptHits += G.Hits;
  EXPECT_GE(PreemptHits, 1u) << "hot loop should die through its trace guard";
  // Reusable: the next (bounded) eval completes inside the same deadline.
  auto R2 = E.eval("var s = 0; for (var i = 0; i < 1000; ++i) s += 2; s;");
  ASSERT_TRUE(R2.ok()) << R2.Err.describe();
  EXPECT_EQ(R2.LastValue.numberValue(), 2000.0);
}

TEST(Governance, DeadlineAlsoCoversTheInterpreter) {
  EngineOptions O;
  O.EnableJit = false; // only the in-thread clock poll can catch it
  O.EvalDeadlineMs = 60;
  Engine E(O);
  auto R = E.eval(InfiniteLoop);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, ErrorKind::Timeout);
  EXPECT_TRUE(E.eval("42;").ok());
}

TEST(Governance, DeadlineAndHeapQuotaReachABlacklistedLoop) {
  // Blacklisting patches the loop header to Nop3, which must stay a safe
  // point: a blacklisted hot loop still services deadlines and the heap
  // quota. Recursion is not traced, so this loop is blacklisted.
  const char *Src = "function d(n) { if (n == 0) return 'x'; return d(n - 1); }\n"
                    "var a = [];\n"
                    "for (var i = 0; i < 100000000; ++i) a[i & 1048575] = d(2) + i;\n";
  EngineOptions O;
  O.EnableJit = true;
  O.CollectStats = true;
  O.EvalDeadlineMs = 100;
  Engine E(O);
  auto R = E.eval(Src);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, ErrorKind::Timeout);
  EXPECT_EQ(E.stats().LoopsBlacklisted, 1u);

  EngineOptions Q = O;
  Q.EvalDeadlineMs = 0;
  Q.MaxHeapBytes = 6u << 20;
  Engine EQ(Q);
  auto RQ = EQ.eval(Src);
  ASSERT_FALSE(RQ.ok());
  EXPECT_EQ(RQ.Err.Kind, ErrorKind::OutOfMemory);
  EXPECT_EQ(EQ.stats().LoopsBlacklisted, 1u);
}

// --- A callee loop under GC pressure, called from a hot megamorphic loop -----
//
// The callee has its own loop and allocates strings, so collections are
// requested at loop edges of both loops while the caller's loop is hot.
// Both loops trace: the callee's `s += number` records a string/number
// concat call, and the caller calls the callee's loop as a nested tree.
// Every collection must be serviced and the script must make progress; a
// deadline must end the unbounded variant at whatever loop depth it lands.

std::string calleeLoopScript(const std::string &OuterIters) {
  return "var objs = [{a: 1}, {b: 1, a: 2}, {c: 1, a: 3}, {d: 1, a: 4},"
         " {e: 1, a: 5}, {f: 1, a: 6}, {g: 1, a: 7}, {h: 1, a: 8}];\n"
         "function build(n) {\n"
         "  var s = '';\n"
         "  for (var i = 0; i < n; i++) s += objs[i % 8].a;\n"
         "  return s.length;\n"
         "}\n"
         "var t = 0;\n"
         "for (var j = 0; j < " +
         OuterIters +
         "; ++j) t = t + objs[j % 8].a + build(50);\n"
         "print(t);\n";
}

class CalleeLoopUnderGc : public ::testing::TestWithParam<Backend> {
protected:
  EngineOptions opts() const {
    EngineOptions O;
    O.EnableJit = true;
    O.JitBackend = GetParam();
    O.CollectStats = true;
    return O;
  }
};

TEST_P(CalleeLoopUnderGc, FinishesWithTheInterpretersOutput) {
  std::string Src = calleeLoopScript("20000");
  ASSERT_EQ(interpreterOutput(Src), "1090000\n");
  Engine E(opts());
  std::string Out;
  E.setPrintHook([&Out](const std::string &S) { Out += S; });
  auto R = E.eval(Src);
  ASSERT_TRUE(R.ok()) << R.Err.describe();
  EXPECT_EQ(Out, "1090000\n");
  EXPECT_GE(E.stats().GCs, 1u) << "the script must collect while it runs";
  EXPECT_GE(E.stats().TracesCompleted, 2u) << "both loops compile";
  EXPECT_EQ(E.stats().AbortsByReason[(size_t)AbortReason::MixedConcat], 0u);
  EXPECT_EQ(E.stats().LoopsBlacklisted, 0u);
}

TEST_P(CalleeLoopUnderGc, DeadlineEndsItAndTheEngineIsReusable) {
  EngineOptions O = opts();
  O.EvalDeadlineMs = 100;
  Engine E(O);
  std::string Out;
  E.setPrintHook([&Out](const std::string &S) { Out += S; });
  auto T0 = std::chrono::steady_clock::now();
  auto R = E.eval(calleeLoopScript("1e9"));
  double Wall = msSince(T0);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, ErrorKind::Timeout);
  EXPECT_LT(Wall, 5000.0) << "deadline service latency is way off";
  EXPECT_TRUE(Out.empty());
  // Reusable: a short bounded run finishes inside the same deadline (kept
  // small so sanitizer builds stay well under it too).
  auto R2 = E.eval(calleeLoopScript("20"));
  ASSERT_TRUE(R2.ok()) << R2.Err.describe();
  EXPECT_EQ(Out, interpreterOutput(calleeLoopScript("20")));
}

INSTANTIATE_TEST_SUITE_P(
    Governance, CalleeLoopUnderGc,
    ::testing::Values(Backend::Native, Backend::Executor),
    [](const ::testing::TestParamInfo<Backend> &I) {
      return std::string(I.param == Backend::Native ? "Native" : "Executor");
    });

// --- Heap quotas --------------------------------------------------------------

TEST(Governance, HeapQuotaTerminatesAsOOMThenEngineReusesBitForBit) {
  EngineOptions O;
  O.EnableJit = true;
  O.MaxHeapBytes = 6u << 20;
  Engine E(O);
  auto R = E.eval(AllocBomb);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, ErrorKind::OutOfMemory);
  EXPECT_NE(R.Err.describe().find("OutOfMemoryError"), std::string::npos);
  EXPECT_GE(E.stats().HeapQuotaHits, 1u);

  // The bomb's garbage died with its frames; the survivor engine must now
  // behave exactly like a fresh engine with the same options.
  std::string Clean;
  for (int V = 0; V < 3; ++V)
    Clean += loopScript(V, 3000);
  EngineOptions FO = O;
  Engine Fresh(FO);
  std::string FreshOut, ReusedOut;
  Fresh.setPrintHook([&FreshOut](const std::string &S) { FreshOut += S; });
  E.setPrintHook([&ReusedOut](const std::string &S) { ReusedOut += S; });
  ASSERT_TRUE(Fresh.eval(Clean).ok());
  auto R2 = E.eval(Clean);
  ASSERT_TRUE(R2.ok()) << R2.Err.describe();
  EXPECT_EQ(ReusedOut, FreshOut) << "survivor diverged from a fresh engine";
}

TEST(Governance, InjectedHeapAllocFailTerminatesAsOOM) {
  EngineOptions O;
  O.EnableJit = false;
  int AllocChecks = 0;
  O.FaultInjector = [&AllocChecks](FaultSite S) {
    if (S != FaultSite::HeapAllocFail)
      return false;
    return ++AllocChecks > 50;
  };
  Engine E(O);
  auto R = E.eval(AllocBomb);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, ErrorKind::OutOfMemory);
  EXPECT_GT(AllocChecks, 50) << "injector never reached the failure point";
}

// --- Serving watchdog ---------------------------------------------------------

TEST(Watchdog, SubmitAfterStopReturnsZero) {
  ServerConfig C;
  ScriptServer S(C);
  EXPECT_NE(S.submit("print(1);"), 0u);
  S.stop();
  EXPECT_EQ(S.submit("print(2);"), 0u) << "a stopped server refuses work";
  EXPECT_EQ(S.takeResults().size(), 1u);
}

TEST(Watchdog, PerRequestDeadlineOverridesConfig) {
  ServerConfig C;
  C.Workers = 1;
  C.Engine.EnableJit = true;
  ScriptServer S(C); // no default deadline
  uint64_t Hostile = S.submit(InfiniteLoop, 80); // per-request override
  uint64_t Good = S.submit(loopScript(0, 1000));
  S.drain();
  std::vector<RequestResult> Results = S.takeResults();
  ASSERT_EQ(Results.size(), 2u);
  for (const RequestResult &R : Results) {
    if (R.Id == Hostile) {
      EXPECT_FALSE(R.Ok);
      EXPECT_TRUE(R.TimedOut);
      EXPECT_EQ(R.ErrKind, ErrorKind::Timeout);
    } else {
      EXPECT_EQ(R.Id, Good);
      EXPECT_TRUE(R.Ok) << R.Error;
    }
  }
  S.stop();
}

TEST(Watchdog, ChaosMixedHostileTraffic) {
  // The acceptance scenario: four workers fed a mix of infinite loops,
  // allocation bombs, and well-behaved scripts. Every well-behaved request
  // completes with the right answer, every hostile one is terminated
  // within 2x its deadline, and the pool is still fully alive afterwards.
  ServerConfig C;
  C.Workers = 4;
  C.QueueDepth = 64;
  C.DeadlineMs = 250; // headroom for sanitizer builds
  C.Engine.EnableJit = true;
  C.Engine.MaxHeapBytes = 4u << 20;
  ScriptServer S(C);

  std::set<uint64_t> InfiniteIds, BombIds;
  std::map<uint64_t, std::string> WantById;
  std::vector<std::string> Good, GoodWant;
  for (int V = 0; V < 4; ++V) {
    Good.push_back(loopScript(V, 2000));
    GoodWant.push_back(interpreterOutput(Good.back()));
  }
  for (int I = 0; I < 24; ++I) {
    if (I % 3 == 0) {
      InfiniteIds.insert(S.submit(InfiniteLoop));
    } else if (I % 3 == 1) {
      BombIds.insert(S.submit(AllocBomb));
    } else {
      int V = I % 4;
      WantById[S.submit(Good[V])] = GoodWant[V];
    }
  }
  S.drain();

  std::vector<RequestResult> Results = S.takeResults();
  ASSERT_EQ(Results.size(), 24u);
  for (const RequestResult &R : Results) {
    if (InfiniteIds.count(R.Id)) {
      EXPECT_FALSE(R.Ok);
      EXPECT_TRUE(R.TimedOut) << R.Error;
      EXPECT_LE(R.EvalMs, 2.0 * C.DeadlineMs)
          << "hostile request outlived 2x its deadline";
    } else if (BombIds.count(R.Id)) {
      // A bomb dies of its quota, or of the deadline if allocation is slow
      // (sanitizer builds) -- either way it dies on time.
      EXPECT_FALSE(R.Ok);
      EXPECT_TRUE(R.ErrKind == ErrorKind::OutOfMemory || R.TimedOut)
          << R.Error;
      EXPECT_LE(R.EvalMs, 2.0 * C.DeadlineMs);
    } else {
      ASSERT_TRUE(WantById.count(R.Id));
      EXPECT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.Output, WantById[R.Id]);
    }
  }

  // Every worker is still alive and serving.
  std::map<uint64_t, std::string> FinalWant;
  for (int I = 0; I < 8; ++I)
    FinalWant[S.submit(Good[I % 4])] = GoodWant[I % 4];
  S.drain();
  std::vector<RequestResult> Final = S.takeResults();
  ASSERT_EQ(Final.size(), 8u);
  std::set<uint32_t> WorkersSeen;
  for (const RequestResult &R : Final) {
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, FinalWant[R.Id]);
    WorkersSeen.insert(R.Worker);
  }
  EXPECT_GE(WorkersSeen.size(), 1u);
  S.stop();
  ASSERT_EQ(S.workerStats().size(), C.Workers);
}

TEST(Watchdog, InjectedFaultsForceRecyclesAndServerSurvives) {
  // Chaos phase two: a fault injector makes roughly every 500th allocation
  // check fail as a heap-quota hit, on top of tiny deadlines. Workers OOM,
  // recycle their engines, and keep serving; disarming the injector
  // returns the pool to full health.
  auto Armed = std::make_shared<std::atomic<bool>>(true);
  auto Checks = std::make_shared<std::atomic<uint64_t>>(0);
  ServerConfig C;
  C.Workers = 4;
  C.QueueDepth = 64;
  C.DeadlineMs = 100;
  C.RecycleAfterFailures = 3;
  C.Engine.EnableJit = true;
  C.Engine.FaultInjector = [Armed, Checks](FaultSite S) {
    if (S != FaultSite::HeapAllocFail || !Armed->load(std::memory_order_relaxed))
      return false;
    return (Checks->fetch_add(1, std::memory_order_relaxed) % 500) == 499;
  };
  ScriptServer S(C);

  for (int I = 0; I < 24; ++I) {
    if (I % 4 == 0)
      S.submit(InfiniteLoop);
    else if (I % 4 == 1)
      S.submit(AllocBomb); // thousands of alloc checks: injection is certain
    else
      S.submit(loopScript(I % 4, 2000));
  }
  S.drain();
  std::vector<RequestResult> Chaos = S.takeResults();
  ASSERT_EQ(Chaos.size(), 24u);
  int Ooms = 0;
  for (const RequestResult &R : Chaos)
    if (R.ErrKind == ErrorKind::OutOfMemory)
      ++Ooms;
  EXPECT_GE(Ooms, 1) << "the injector never fired";
  uint32_t Recycles = 0;
  for (uint32_t N : S.workerRecycles())
    Recycles += N;
  EXPECT_GE(Recycles, 1u) << "an OOM death must recycle the engine";

  // Disarm and run a clean round: every worker serves correctly again.
  Armed->store(false, std::memory_order_relaxed);
  std::string Clean = loopScript(2, 2000);
  std::string Want = interpreterOutput(Clean);
  for (int I = 0; I < 8; ++I)
    S.submit(Clean);
  S.drain();
  std::vector<RequestResult> Final = S.takeResults();
  ASSERT_EQ(Final.size(), 8u);
  for (const RequestResult &R : Final) {
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, Want);
  }
  S.stop();
}

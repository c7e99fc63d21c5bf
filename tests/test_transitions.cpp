//===- test_transitions.cpp - Interpreter <-> trace transitions -----------===//
//
// The cheap path between the interpreter and compiled traces:
//  - peer matching at a loop edge (golden enter/exit counts, fixed before
//    the in-place matcher replaced the one that built a TypeMap per edge);
//  - VMContext::Recording, which must equal "a recorder exists" after every
//    path that drops the recorder, or plain bytecodes would keep paying the
//    recording hook;
//  - TAR sizing from the installed-fragment maximum, across narrow/wide
//    fragments and a cache flush (run under ASan in CI).
//
//===----------------------------------------------------------------------===//

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "jit/compile_queue.h"
#include "trace/monitor.h"

using namespace tracejit;

namespace {

EngineOptions traceOpts() {
  EngineOptions O;
  O.EnableJit = true;
  O.CollectStats = true;
  return O;
}

std::string evalOut(Engine &E, const std::string &Src) {
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  EvalResult R = E.eval(Src);
  EXPECT_TRUE(R.ok()) << R.Err.describe();
  E.setPrintHook([](const std::string &) {});
  return Out;
}

/// Runs a callback at every RecordStart event, i.e. with a recorder live.
struct OnRecordStart final : JitEventListener {
  std::function<void()> Fn;
  void onEvent(const JitEvent &E) override {
    if (E.Kind == JitEventKind::RecordStart)
      Fn();
  }
};

/// No recorder may outlive \p E's last eval: the flag is down, and a
/// loop-free script interprets without recording a single bytecode.
void expectRecorderGone(Engine &E) {
  EXPECT_FALSE(E.context().Recording);
  VMStats Before = E.stats();
  ASSERT_TRUE(E.eval("var z = 1 + 2; z = z * 3;").ok());
  VMStats After = E.stats();
  EXPECT_EQ(After.BytecodesRecorded, Before.BytecodesRecorded);
  EXPECT_GT(After.BytecodesInterpreted, Before.BytecodesInterpreted);
  EXPECT_FALSE(E.context().Recording);
}

const char *HotLoop =
    "var s = 0; for (var i = 0; i < 200; ++i) s = s + i; print(s);";

} // namespace

// --- Peer matching golden ----------------------------------------------------

namespace {

struct PeerGolden {
  const char *Name;
  const char *Src;
  const char *Out;
  uint64_t TraceEnters;
  uint64_t SideExits;
  std::vector<uint64_t> FragmentEnters; ///< In fragment-id order.
};

const PeerGolden PeerGoldens[] = {
    // A type-unstable loop: x cycles double/string/int, one peer per entry
    // map, linked through their unstable tails.
    {"unstable-peers",
     "var x = 0; var s = 0;\n"
     "for (var i = 0; i < 300; ++i) {\n"
     "  if (i % 3 == 0) x = 1.5; else if (i % 3 == 1) x = \"a\"; else x = 1;\n"
     "  s = s + i;\n"
     "}\n"
     "print(s);",
     "44850\n", 3, 3, {3, 0, 0, 0}},
    // Global d is demoted by the oracle; every outer iteration resets it to
    // the int 0, which must enter the Double peer. The inner tree leaves
    // its loop through the loop test's own LoopExit, so the outer loop
    // nests it on its first recording.
    {"demoted-global",
     "var t = 0;\n"
     "for (var j = 0; j < 20; ++j) {\n"
     "  var d = 0;\n"
     "  for (var i = 0; i < 50; ++i) d = d + 0.5;\n"
     "  t = t + d;\n"
     "}\n"
     "print(t);",
     "500\n", 3, 3, {2, 1}},
    // The same for local a of f: each call starts it at the int 0. f's
    // loop never touches global u, so u turning double does not split f's
    // tree; the top-level loop calls that one tree once u is a double.
    {"demoted-local",
     "function f(n) { var a = 0; for (var i = 0; i < n; ++i) a = a + 0.25;"
     " return a; }\n"
     "var u = 0;\n"
     "for (var k = 0; k < 30; ++k) u = u + f(40);\n"
     "print(u);",
     "300\n", 4, 4, {3, 0, 1}},
    // g's loop is reached under two frame chains (top->g, top->h->g); a
    // peer for one shape must never be entered from the other.
    {"frame-shape",
     "function g(n) { var s = 0; for (var i = 0; i < n; ++i) s = s + i;"
     " return s; }\n"
     "function h(n) { return g(n); }\n"
     "var r = 0;\n"
     "for (var k = 0; k < 10; ++k) { r = r + g(50); r = r + h(50); }\n"
     "print(r);",
     "24500\n", 5, 5, {2, 2, 1}},
    // Same depth, same types, same bases -- only the caller script differs
    // (top->h1->g vs top->h2->g), so the frame check alone keeps a trace
    // exit from resuming in the wrong caller.
    {"frame-script",
     "function g(n) { var s = 0; for (var i = 0; i < n; ++i) s = s + i;"
     " return s; }\n"
     "function h1(n) { return g(n) + 1; }\n"
     "function h2(n) { return g(n) + 2; }\n"
     "var r = 0;\n"
     "for (var k = 0; k < 10; ++k) { r = r + h1(50); r = r + h2(50); }\n"
     "print(r);",
     "24530\n", 5, 5, {2, 2, 1}},
};

void PrintTo(const PeerGolden &G, std::ostream *OS) { *OS << G.Name; }

class PeerMatching : public ::testing::TestWithParam<PeerGolden> {};

} // namespace

TEST_P(PeerMatching, EntersAndExitsMatchGolden) {
  const PeerGolden &G = GetParam();
  Engine E(traceOpts());
  EXPECT_EQ(evalOut(E, G.Src), G.Out);
  VMStats S = E.stats();
  EXPECT_EQ(S.TraceEnters, G.TraceEnters);
  EXPECT_EQ(S.SideExits, G.SideExits);
  std::vector<uint64_t> Enters;
  for (const FragmentProfile &P : E.fragmentProfiles())
    Enters.push_back(P.Enters);
  EXPECT_EQ(Enters, G.FragmentEnters);
}

INSTANTIATE_TEST_SUITE_P(Goldens, PeerMatching,
                         ::testing::ValuesIn(PeerGoldens),
                         [](const auto &Info) {
                           std::string N = Info.param.Name;
                           for (char &C : N)
                             if (C == '-')
                               C = '_';
                           return N;
                         });

TEST(PeerMatchingOracle, DemotedSlotsAreTheOnesTheGoldensAssume) {
  // The demoted-* goldens only test the int-enters-Double rule if the
  // oracle really demoted those variables.
  Engine E(traceOpts());
  evalOut(E, PeerGoldens[1].Src);
  VMContext &C = E.context();
  uint32_t D = C.Globals.slotFor(C.Atoms.intern("d"));
  EXPECT_TRUE(C.Monitor->oracle().isDemoted(Oracle::globalKey(D)));

  Engine L(traceOpts());
  evalOut(L, PeerGoldens[2].Src);
  const FunctionScript *F = nullptr;
  for (const auto &S : L.context().Scripts)
    if (S->Name == "f")
      F = S.get();
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(L.context().Monitor->oracle().isDemoted(
      Oracle::localKey(F->Id, /*LocalSlot (n, a, i)=*/1)));
}

// Every eval runs under a new top-level script, the bottom frame of each
// call it makes. A function's tree must still match when later evals call
// it: were the bottom script part of the frame check, each eval would
// record one more peer until MaxPeersPerLoop, and from then on the loop
// would run interpreted.
TEST(PeerMatchingAcrossEvals, FunctionLoopKeepsItsTree) {
  Engine E(traceOpts());
  evalOut(E, "function g(n) { var s = 0; for (var i = 0; i < n; ++i)"
             " s = s + i; return s; }");
  uint64_t EntersBefore = 0;
  for (int K = 0; K < 12; ++K) {
    EntersBefore = E.stats().TraceEnters;
    EXPECT_EQ(evalOut(E, "print(g(64));"), "2016\n") << "eval " << K;
  }
  EXPECT_EQ(E.stats().TreesCompiled, 1u);
  EXPECT_GT(E.stats().TraceEnters, EntersBefore) << "last eval interpreted";
}

// --- Recording flag on every path that drops the recorder --------------------

TEST(RecordingFlag, VerifyFailure) {
  EngineOptions O = traceOpts();
  O.VerifyLir = true;
  O.FaultInjector = [](FaultSite S) { return S == FaultSite::VerifyFail; };
  Engine E(O);
  EXPECT_EQ(evalOut(E, HotLoop), "19900\n");
  VMStats S = E.stats();
  EXPECT_GE(S.AbortsByReason[(size_t)AbortReason::VerifyFailed], 1u);
  EXPECT_EQ(S.TreesCompiled, 0u);
  expectRecorderGone(E);
}

TEST(RecordingFlag, InjectedCompileFailure) {
  EngineOptions O = traceOpts();
  O.FaultInjector = [](FaultSite S) { return S == FaultSite::CompileFail; };
  Engine E(O);
  EXPECT_EQ(evalOut(E, HotLoop), "19900\n");
  EXPECT_GE(E.stats().AbortsByReason[(size_t)AbortReason::CompileFault], 1u);
  expectRecorderGone(E);
}

TEST(RecordingFlag, CompileQueueFull) {
  CompileService Svc;
  Svc.setPausedForTest(true); // the first job never leaves the queue
  EngineOptions O = traceOpts();
  O.OffThreadCompile = true;
  O.CompileQueueDepth = 1;
  O.SharedCompileService = &Svc;
  {
    Engine E(O);
    EXPECT_EQ(evalOut(E, "var a = 0; for (var i = 0; i < 200; ++i) a = a + i;"
                         "var b = 0; for (var j = 0; j < 200; ++j) b = b + j;"
                         "print(a + b);"),
              "39800\n");
    EXPECT_GE(E.stats().AbortsByReason[(size_t)AbortReason::CompileQueueFull],
              1u);
    expectRecorderGone(E);
    Svc.setPausedForTest(false);
    E.waitForCompileQueue();
  }
}

TEST(RecordingFlag, ErrorUnwind) {
  // HotLoopThreshold 2: recording starts at the top of iteration 1, which
  // then raises, so the unwind runs with the recorder live.
  // The negative index records fine (an int index) and only the
  // interpreter's bounds check raises.
  Engine E(traceOpts());
  EvalResult R = E.eval("var u = [1, 2]; var s = 0;\n"
                        "for (var i = 0; i < 10; ++i) { s = s + i;"
                        " if (i == 1) s = s + u[0 - i]; }");
  EXPECT_FALSE(R.ok());
  VMStats S = E.stats();
  EXPECT_EQ(S.TracesStarted, 1u);
  EXPECT_EQ(S.AbortsByReason[(size_t)AbortReason::DispatchUnwound], 1u);
  expectRecorderGone(E);
}

TEST(RecordingFlag, DeadlineMidRecording) {
  // Raise the deadline bit the instant a recording starts -- exactly what
  // the deadline timer does when it expires -- so the next safe point
  // terminates the script with the recorder live.
  Engine E(traceOpts());
  OnRecordStart L;
  L.Fn = [&E] { E.context().requestInterrupt(InterruptDeadline); };
  E.addEventListener(&L);
  EvalResult R = E.eval(HotLoop);
  E.removeEventListener(&L);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, ErrorKind::Timeout);
  EXPECT_GE(E.stats().AbortsByReason[(size_t)AbortReason::Interrupted], 1u);
  expectRecorderGone(E);
  EXPECT_EQ(evalOut(E, HotLoop), "19900\n") << "engine stays usable";
}

TEST(RecordingFlag, CacheFlushRequestedWhileRecording) {
  // A flush requested with a recorder live is deferred to the next safe
  // loop edge; the recording it waited for must not leave the flag up.
  Engine E(traceOpts());
  OnRecordStart L;
  L.Fn = [&E] { E.flushCodeCache(); };
  E.addEventListener(&L);
  EXPECT_EQ(evalOut(E, HotLoop), "19900\n");
  E.removeEventListener(&L);
  EXPECT_GE(E.stats().CacheFlushes, 1u);
  expectRecorderGone(E);
}

TEST(RecordingFlag, PoolExhaustionFlush) {
  // Compiles that do not fit the pool abort their recording and schedule a
  // whole-cache flush.
  EngineOptions O = traceOpts();
  O.CodeCacheBytes = 4096;
  O.MaxCacheFlushes = 1000;
  Engine E(O);
  // Twenty loops: ten fit in the page with 4-byte exit stubs.
  std::string Src = "var t = 0;\n";
  for (int L = 0; L < 20; ++L) {
    std::string I = "i";
    I += std::to_string(L);
    std::string K = std::to_string(L + 1);
    Src += "for (var " + I + " = 0; " + I + " < 60; ++" + I + ") t = t + " +
           I + " * " + K + " + " + K + ";\n";
  }
  Src += "print(t);";
  EXPECT_EQ(evalOut(E, Src), "384300\n");
  VMStats S = E.stats();
  EXPECT_GE(S.AbortsByReason[(size_t)AbortReason::CompilePoolExhausted], 1u);
  EXPECT_GE(S.CacheFlushes, 1u);
  expectRecorderGone(E);
}

// --- TAR sizing --------------------------------------------------------------

TEST(TarSizing, WideFragmentAfterNarrowAndAfterFlush) {
  Engine E(traceOpts());
  EXPECT_EQ(evalOut(E, HotLoop), "19900\n");
  uint64_t Enters = E.stats().TraceEnters;
  EXPECT_GE(Enters, 1u);

  // 200 more globals: the wide loop's TAR holds every global, so it needs
  // far more than the 64-slot floor plus slack.
  std::string Wide;
  for (int G = 0; G < 200; ++G)
    Wide += "var g" + std::to_string(G) + " = " + std::to_string(G) + ";\n";
  Wide += "var w = 0; for (var j = 0; j < 200; ++j) w = w + g199 + j;"
          " print(w);";
  EXPECT_EQ(evalOut(E, Wide), "59700\n");
  EXPECT_GT(E.stats().TraceEnters, Enters);
  uint32_t MaxSlots = 0;
  for (const auto &F : E.context().Monitor->fragments())
    MaxSlots = std::max(MaxSlots, F->RequiredTarSlots);
  EXPECT_GT(MaxSlots, 128u);

  E.flushCodeCache();
  EXPECT_EQ(E.cacheGeneration(), 1u);
  Enters = E.stats().TraceEnters;
  EXPECT_EQ(evalOut(E, Wide), "59700\n");
  EXPECT_GT(E.stats().TraceEnters, Enters);
  EXPECT_EQ(evalOut(E, HotLoop), "19900\n");
}

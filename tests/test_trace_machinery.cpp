//===- test_trace_machinery.cpp - Trees, nesting, blacklisting, oracle -------===//

#include <gtest/gtest.h>

#include "api/engine.h"
#include "trace/monitor.h"

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

EngineOptions jit() {
  EngineOptions O;
  O.EnableJit = true;
  return O;
}

} // namespace

TEST(TraceTrees, HotLoopThresholdRespected) {
  // Below threshold: no recording at all.
  std::string Src = "var s = 0; for (var i = 0; i < 50; ++i) s += i;"
                    "print(s);";
  EngineOptions O = jit();
  O.HotLoopThreshold = 1000;
  RunInfo R = runWith(Src, O);
  EXPECT_EQ(R.Stats.TracesStarted, 0u);
  EXPECT_EQ(R.Out, "1225\n");

  O.HotLoopThreshold = 2;
  RunInfo R2 = runWith(Src, O);
  EXPECT_GE(R2.Stats.TracesCompleted, 1u);
  EXPECT_EQ(R2.Out, "1225\n");
}

TEST(TraceTrees, BranchTracesAttachAtHotExits) {
  // The minor path becomes hot and must be stitched, not re-entered via
  // the monitor every time.
  RunInfo R = runWith("var a = 0, b = 0;\n"
                  "for (var i = 0; i < 5000; ++i) {\n"
                  "  if (i % 4 == 0) a += 1; else b += 1;\n"
                  "}\n"
                  "print(a, b);",
                  jit());
  EXPECT_EQ(R.Out, "1250 3750\n");
  EXPECT_GE(R.Stats.BranchesCompiled, 1u);
  EXPECT_GE(R.Stats.StitchedTransfers, 1u);
}

TEST(TraceTrees, NestedTreesCallInnerTree) {
  RunInfo R = runWith("var c = 0;\n"
                  "for (var i = 0; i < 300; ++i)\n"
                  "  for (var j = 0; j < 40; ++j)\n"
                  "    c = c + 1;\n"
                  "print(c);",
                  jit());
  EXPECT_EQ(R.Out, "12000\n");
  EXPECT_GE(R.Stats.TreesCompiled, 2u) << "inner and outer trees";
  EXPECT_GE(R.Stats.TreeCalls, 1u) << "outer recording called the inner tree";
}

TEST(TraceTrees, NestingDisabledStillCorrect) {
  EngineOptions O = jit();
  O.EnableNesting = false;
  RunInfo R = runWith("var c = 0;\n"
                  "for (var i = 0; i < 300; ++i)\n"
                  "  for (var j = 0; j < 40; ++j)\n"
                  "    c = c + 1;\n"
                  "print(c);",
                  O);
  EXPECT_EQ(R.Out, "12000\n");
  EXPECT_EQ(R.Stats.TreeCalls, 0u);
}

TEST(Blacklisting, UntraceableLoopGetsBlacklisted) {
  // Recursion aborts recording; after MaxRecordingFailures the loop header
  // bytecode is patched and the monitor is never consulted again (§3.3).
  RunInfo R = runWith(
      "function r(n) { if (n <= 0) return 0; return r(n - 1) + 1; }\n"
      "var s = 0;\n"
      "for (var i = 0; i < 500; ++i) s += r(3);\n"
      "print(s);",
      jit());
  EXPECT_EQ(R.Out, "1500\n");
  EXPECT_GE(R.Stats.LoopsBlacklisted, 1u);
  // Bounded: at most a handful of attempts, not hundreds.
  EXPECT_LE(R.Stats.TracesAborted, 10u);
}

TEST(Blacklisting, BackoffDelaysReattempts) {
  EngineOptions O = jit();
  O.MaxRecordingFailures = 1000000; // never blacklist outright
  O.BlacklistBackoff = 64;
  RunInfo R = runWith(
      "function r(n) { if (n <= 0) return 0; return r(n - 1) + 1; }\n"
      "var s = 0;\n"
      "for (var i = 0; i < 1000; ++i) s += r(2);\n"
      "print(s);",
      O);
  EXPECT_EQ(R.Out, "2000\n");
  // ~1000 iterations / backoff 64 => on the order of 16 attempts.
  EXPECT_LE(R.Stats.TracesAborted, 40u);
  EXPECT_GE(R.Stats.TracesAborted, 2u);
}

TEST(Oracle, DemotesFlipFloppingVariables) {
  // s flips from int to double during the very iteration being recorded
  // (i == 1 is the recording iteration at threshold 2): the trace closes
  // type-unstable, the oracle notes the mis-speculation, and the retrace
  // enters with s demoted to double (§3.2). Static analysis off: it would
  // seed the demotion up front, and this test pins the runtime path.
  EngineOptions DemoteOpts = jit();
  DemoteOpts.StaticAnalysis = false;
  RunInfo R = runWith("var s = 0;\n"
                      "for (var i = 0; i < 2000; ++i) {\n"
                      "  if (i == 1) s = s + 0.5; else s = s + 1;\n"
                      "}\n"
                      "print(s);",
                      DemoteOpts);
  EXPECT_EQ(R.Out, "1999.5\n");
  EXPECT_GE(R.Stats.OracleDemotions, 1u);
  EXPECT_GE(R.Stats.TraceEnters, 1u);
}

TEST(Oracle, StableLoopNeedsNoDemotion) {
  // With threshold 2, recording starts after the first iteration already
  // made s a double: the loop is type-stable from the start.
  RunInfo R = runWith("var s = 0;\n"
                      "for (var i = 0; i < 2000; ++i) s = s + 0.25;\n"
                      "print(s);",
                      jit());
  EXPECT_EQ(R.Out, "500\n");
  EXPECT_GE(R.Stats.TraceEnters, 1u);
}

TEST(Oracle, DisabledOracleStillCorrect) {
  EngineOptions O = jit();
  O.EnableOracle = false;
  RunInfo R = runWith("var s = 0;\n"
                  "for (var i = 0; i < 2000; ++i) s = s + 0.25;\n"
                  "print(s);",
                  O);
  EXPECT_EQ(R.Out, "500\n");
}

TEST(TypeInstability, PeerTracesCoverBothTypes) {
  // x alternates between int-typed and double-typed work per iteration
  // block; peers and/or branch traces must cover both without
  // miscompiling.
  RunInfo R = runWith("var total = 0;\n"
                  "for (var i = 0; i < 4000; ++i) {\n"
                  "  var x;\n"
                  "  if ((i & 1) == 0) x = 1; else x = 1.5;\n"
                  "  total = total + x;\n"
                  "}\n"
                  "print(total);",
                  jit());
  EXPECT_EQ(R.Out, "5000\n");
}

TEST(TraceCache, MultipleTreesPerHeaderByEntryTypes) {
  // The same function is driven with int and with double arguments: the
  // loop header needs one tree per entry type map ("there may be several
  // trees for a given loop header", §3.2).
  RunInfo R = runWith("function sum(step, n) {\n"
                  "  var s = 0;\n"
                  "  for (var i = 0; i < n; ++i) s = s + step;\n"
                  "  return s;\n"
                  "}\n"
                  "var a = 0, b = 0;\n"
                  "for (var r = 0; r < 50; ++r) { a = sum(1, 100);"
                  " b = sum(0.5, 100); }\n"
                  "print(a, b);",
                  jit());
  EXPECT_EQ(R.Out, "100 50\n");
  EXPECT_GE(R.Stats.TreesCompiled, 2u);
}

TEST(SameTreeDifferentCallSites, ReturnPcsAreDynamic) {
  // Regression test: a tree recorded at one call site must resume
  // correctly when entered via a different call site (dynamic return pcs
  // in the call-stack area).
  RunInfo R = runWith("var n = 8;\n"
                  "function Au(u, v, n) {\n"
                  "  for (var i = 0; i < n; ++i) v[i] = u[i] + 1;\n"
                  "}\n"
                  "var u = Array(n), v = Array(n);\n"
                  "for (var i = 0; i < n; ++i) { u[i] = 1; v[i] = 0; }\n"
                  "for (var r = 0; r < 30; ++r) { Au(u, v, n); Au(v, u, n); }\n"
                  "print(u[3], v[3]);",
                  jit());
  EXPECT_EQ(R.Out, "61 60\n");
}

TEST(SameTreeDifferentCallSites, SequentialLoopsSharingLocals) {
  RunInfo R = runWith("function f(n) {\n"
                  "  var i, s = 0;\n"
                  "  for (i = 0; i < n; ++i) s += i;\n"
                  "  for (i = 0; i < n; ++i) s += i * 2;\n"
                  "  return s;\n"
                  "}\n"
                  "var t = 0;\n"
                  "for (var r = 0; r < 20; ++r) t += f(50);\n"
                  "print(t);",
                  jit());
  EXPECT_EQ(R.Out, "73500\n");
}

TEST(Stitching, DisabledStitchingStaysCorrect) {
  EngineOptions O = jit();
  O.EnableStitching = false;
  RunInfo R = runWith("var a = 0, b = 0;\n"
                  "for (var i = 0; i < 3000; ++i) {\n"
                  "  if (i % 3 == 0) a += i; else b += i;\n"
                  "}\n"
                  "print(a, b);",
                  O);
  EXPECT_EQ(R.Out, "1498500 3000000\n");
  EXPECT_EQ(R.Stats.BranchesCompiled, 0u);
}

TEST(Filters, EveryFilterSubsetIsCorrect) {
  const std::string Src =
      "var primes = Array(500);\n"
      "for (var p = 0; p < 500; ++p) primes[p] = true;\n"
      "for (var i = 2; i < 500; ++i) {\n"
      "  if (!primes[i]) continue;\n"
      "  for (var k = i + i; k < 500; k += i) primes[k] = false;\n"
      "}\n"
      "var c = 0;\n"
      "for (var q = 2; q < 500; ++q) if (primes[q]) c = c + 1;\n"
      "print(c);";
  // Every subset of the pass registry must be semantics-preserving: the
  // pipeline owns ordering, so any combination (hoist without DCE, indvar
  // without guardelim, ...) has to produce the interpreter's answer.
  const uint32_t N = (uint32_t)OptPass::NumPasses;
  for (uint32_t Mask = 0; Mask < (1u << N); ++Mask) {
    EngineOptions O = jit();
    OptPipeline P;
    for (uint32_t B = 0; B < N; ++B)
      if (Mask & (1u << B))
        P.add((OptPass)B);
    O.Passes = P;
    RunInfo R = runWith(Src, O);
    EXPECT_EQ(R.Out, "95\n") << "pass set " << P.describe();
  }
}

TEST(Preemption, FlagServicedOnTrace) {
  EngineOptions O = jit();
  Engine E(O);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  E.requestPreempt();
  auto R = E.eval("var s = 0; for (var i = 0; i < 50000; ++i) s += 2;"
                  "print(s);");
  ASSERT_TRUE(R.ok()) << R.Err.describe();
  EXPECT_EQ(Out, "100000\n");
}

TEST(Preemption, GuardCanBeDisabled) {
  EngineOptions O = jit();
  O.EnablePreemptGuard = false;
  RunInfo R = runWith("var s = 0; for (var i = 0; i < 50000; ++i) s += 2;"
                  "print(s);",
                  O);
  EXPECT_EQ(R.Out, "100000\n");
}

TEST(TraceAnatomy, SieveMatchesPaperNarrative) {
  // §2: inner tree first, outer tree calls it, continue-branch stitched.
  EngineOptions O = jit();
  O.CollectStats = true;
  Engine E(O);
  E.setPrintHook([](const std::string &) {});
  auto R = E.eval("var N = 400;\n"
                  "var primes = Array(N);\n"
                  "for (var p = 0; p < N; ++p) primes[p] = true;\n"
                  "for (var i = 2; i < N; ++i) {\n"
                  "  if (!primes[i]) continue;\n"
                  "  for (var k = i + i; k < N; k += i) primes[k] = false;\n"
                  "}\n");
  ASSERT_TRUE(R.ok()) << R.Err.describe();
  VMStats S = E.stats();
  EXPECT_GE(S.TreesCompiled, 2u) << "inner (T45) and outer (T16) trees";
  EXPECT_GE(S.TreeCalls, 1u) << "outer tree nests the inner tree";
  EXPECT_GE(S.BranchesCompiled, 1u) << "the continue path (T23,1)";
}

TEST(ExecutorBackend, MatchesNativeOnTraceTopology) {
  const std::string Src = "var c = 0;\n"
                          "for (var i = 0; i < 100; ++i)\n"
                          "  for (var j = 0; j < 30; ++j)\n"
                          "    if ((i ^ j) & 1) c += 1; else c += 2;\n"
                          "print(c);";
  EngineOptions N = jit();
  EngineOptions X = jit();
  X.JitBackend = Backend::Executor;
  RunInfo A = runWith(Src, N);
  RunInfo B = runWith(Src, X);
  EXPECT_EQ(A.Out, B.Out);
  EXPECT_EQ(A.Out, "4500\n");
  // Same recorder, same policies: topology matches across backends.
  EXPECT_EQ(A.Stats.TreesCompiled, B.Stats.TreesCompiled);
}

TEST(TraceCache, EmbeddedRootsSurviveGC) {
  // Compiled traces embed string constants and callee objects; the trace
  // cache must root them across collections.
  EngineOptions O = jit();
  Engine E(O);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  ASSERT_TRUE(E.eval("var s = '';\n"
                     "for (var i = 0; i < 100; ++i) s = s + 'ab';\n")
                  .ok());
  E.context().TheHeap.collect(); // everything unrooted dies
  auto R = E.eval("for (var i = 0; i < 100; ++i) s = s + 'ab';\n"
                  "print(s.length);");
  ASSERT_TRUE(R.ok()) << R.Err.describe();
  EXPECT_EQ(Out, "400\n");
}

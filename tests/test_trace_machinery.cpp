//===- test_trace_machinery.cpp - Trees, nesting, blacklisting, oracle -------===//

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

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
  // enters with s demoted to double (§3.2). The flip comes from an array
  // element, whose type the static analysis does not track, so it cannot
  // seed the demotion up front: this pins the runtime path.
  RunInfo R = runWith("var d = [1, 0.5];\n"
                      "var s = 0;\n"
                      "for (var i = 0; i < 2000; ++i) {\n"
                      "  if (i == 1) s = s + d[1]; else s = s + d[0];\n"
                      "}\n"
                      "print(s);",
                      jit());
  EXPECT_EQ(R.Out, "1999.5\n");
  EXPECT_EQ(R.Stats.StaticDemotionsSeeded, 0u);
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
  // without CSE, ...) has to produce the interpreter's answer.
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

// --- Deep inlined frames -------------------------------------------------------
//
// A trace inlines call chains of any depth and stores no per-frame return
// pc: exits read the return pcs of inlined frames from their descriptors,
// and restore callees and literal operands from exit-constant slots. Each
// program runs on both backends and must agree with the interpreter on the
// printed output and on every global's final value.

namespace {

struct Observed {
  bool Ok = false;
  std::string Error;
  std::string Out;
  std::vector<std::string> Globals; ///< "name=value", in slot order.
  VMStats Stats;
};

Observed observe(const std::string &Src, EngineOptions O) {
  O.CollectStats = true;
  Engine E(O);
  Observed R;
  E.setPrintHook([&](const std::string &S) { R.Out += S; });
  auto Res = E.eval(Src);
  R.Ok = Res.ok();
  R.Error = Res.Err.describe();
  const GlobalTable &G = E.context().Globals;
  for (uint32_t I = 0; I < G.size(); ++I)
    R.Globals.push_back(std::string(G.Names[I]->view()) + "=" +
                        valueToString(G.Values[I]));
  R.Stats = E.stats();
  return R;
}

/// f0 .. f{N-1}: f0 is \p Innermost, each f{k} counts its call in the
/// global `calls` and returns f{k-1}(x) + 1. The count makes a frame that
/// resumes at a wrong return pc visible even where the result is not.
std::string callChain(int N, const std::string &Innermost) {
  std::string S = "var calls = 0;\nfunction f0(x) { " + Innermost + " }\n";
  for (int K = 1; K < N; ++K)
    S += "function f" + std::to_string(K) + "(x) { calls = calls + 1; " +
         "return f" + std::to_string(K - 1) + "(x) + 1; }\n";
  return S;
}

class DeepFrames : public ::testing::TestWithParam<Backend> {
protected:
  /// Run \p Src traced on this backend; it must match the interpreter.
  Observed runAgainstInterpreter(const std::string &Src) {
    EngineOptions Interp;
    Interp.EnableJit = false;
    Observed Want = observe(Src, Interp);
    EXPECT_TRUE(Want.Ok) << Want.Error;
    EngineOptions O = jit();
    O.JitBackend = GetParam();
    Observed Got = observe(Src, O);
    EXPECT_TRUE(Got.Ok) << Got.Error;
    EXPECT_EQ(Got.Out, Want.Out);
    EXPECT_EQ(Got.Globals, Want.Globals);
    return Got;
  }
};

} // namespace

TEST_P(DeepFrames, TwentyDeepChainExitsFromEveryDepth) {
  // Past i == 1000 the arguments sit at the top of the int32 range, so the
  // `+ 1` of the innermost frames overflows on some iterations and the
  // outer ones on others; past i == 2000 the innermost callee returns
  // doubles. Exits fire from deep frames and their branches grow there.
  std::string Src = "var flip = 0;\n" +
                    callChain(20, "if (flip) return x + 0.5; return x + 1;") +
                    "var t = 0, base = 0;\n"
                    "for (var i = 0; i < 3000; ++i) {\n"
                    "  if (i == 1000) base = 2147483630;\n"
                    "  if (i == 2000) flip = 1;\n"
                    "  t = t + f19(base + (i & 31));\n"
                    "  if ((i & 255) == 0) print(i, t, calls);\n"
                    "}\n"
                    "print(t);\n";
  Observed R = runAgainstInterpreter(Src);
  EXPECT_GE(R.Stats.TracesCompleted, 1u);
  EXPECT_GE(R.Stats.SideExits, 3u);
  EXPECT_EQ(R.Stats.LoopsBlacklisted, 0u);
}

TEST_P(DeepFrames, CalleeLoopReachedFromTwoCallSites) {
  // The outer loop reaches inner()'s loop from two call sites at the same
  // frame depth, so both share one inner tree, recorded at one of them.
  // The outer trace calls it as a nested tree; the tree's exits (a type
  // change inside the loop, a call inlined below it) take the return pc of
  // inner()'s own frame from the call-stack area, which the outer trace
  // fills in before the call. The guards after the loop exit from the
  // outer trace with inner()'s frame in their chain.
  std::string Src = "var calls = 0;\n"
                    "function g(k) {\n"
                    "  calls = calls + 1;\n"
                    "  if (k == 9) return 0.5;\n"
                    "  return k;\n"
                    "}\n"
                    "function inner(n) {\n"
                    "  var s = 0;\n"
                    "  for (var k = 0; k < n; ++k) s = s + g(k);\n"
                    "  if (n == 6) s = s * 2;\n"
                    "  if (n == 13) s = s * 3;\n"
                    "  return s;\n"
                    "}\n"
                    "var t = 0, u = 0;\n"
                    "for (var i = 0; i < 2000; ++i) {\n"
                    "  if (i & 1) t = t + inner(i & 15);\n"
                    "  else u = u - inner(i & 7) * 2;\n"
                    "}\n"
                    "print(t, u);\n";
  Observed R = runAgainstInterpreter(Src);
  EXPECT_GE(R.Stats.TreeCalls, 1u) << "the outer trace calls inner's tree";
}

TEST_P(DeepFrames, OuterTraceKeepsItsOwnReturnPcsAcrossATreeCall) {
  // inner()'s tree is recorded while the first call site runs; the branch
  // for the second call site then calls it as a nested tree. The exit the
  // branch takes after the call (the s > 40 guard, still inside inner())
  // must resume at the second call site, not at the one the inner tree's
  // exit descriptor was recorded under.
  std::string Src = "function inner(n) {\n"
                    "  var s = 0;\n"
                    "  for (var k = 0; k < n; ++k) s = s + k;\n"
                    "  if (s > 40) s = s - 1;\n"
                    "  return s;\n"
                    "}\n"
                    "var t = 0, u = 0;\n"
                    "for (var i = 0; i < 3000; ++i) {\n"
                    "  if (i < 1500) t = t + inner(i & 15);\n"
                    "  else u = u - inner(i & 15) * 2;\n"
                    "}\n"
                    "print(t, u);\n";
  Observed R = runAgainstInterpreter(Src);
  EXPECT_GE(R.Stats.TreeCalls, 2u) << "both call sites call inner's tree";
}

TEST_P(DeepFrames, BranchAnchoredAtAnExitWithConstantSlots) {
  // The guard inside pick() exits with the literal 7 and pick's callee
  // (pinned by its identity guard) in exit-constant slots. The branch grown
  // there imports them as immediates, then calls inner()'s tree, whose
  // entry map covers both slots: when that tree side-exits (k == 11), the
  // restore reads them from the TAR, so the branch must have stored them;
  // the interpreter then goes on to multiply by the 7.
  std::string Src = "function inner(n) {\n"
                    "  var s = '';\n"
                    "  for (var k = 0; k < n; ++k) {\n"
                    "    if (k == 11) s = s + 'x';\n"
                    "    s = s + k;\n"
                    "  }\n"
                    "  return s.length;\n"
                    "}\n"
                    "function pick(x) {\n"
                    "  if ((x & 3) == 0) return inner(x & 15) + 1;\n"
                    "  return x + 1;\n"
                    "}\n"
                    "var t = 0;\n"
                    "for (var i = 0; i < 4000; ++i) t = t + 7 * pick(i);\n"
                    "print(t);\n";
  Observed R = runAgainstInterpreter(Src);
  EXPECT_GE(R.Stats.BranchesCompiled, 1u);
  EXPECT_GE(R.Stats.TreeCalls, 1u);

  // The stitched exit the branch grew from has constant slots.
  EngineOptions O = jit();
  O.JitBackend = GetParam();
  Engine E(O);
  E.setPrintHook([](const std::string &) {});
  ASSERT_TRUE(E.eval(Src).ok());
  bool StitchedConstExit = false;
  for (const auto &F : E.context().Monitor->fragments())
    for (const auto &X : F->Exits)
      StitchedConstExit |= X->Target && !X->ConstSlots.empty();
  EXPECT_TRUE(StitchedConstExit)
      << "no branch trace was anchored at an exit with constant slots";
}

INSTANTIATE_TEST_SUITE_P(TraceTrees, DeepFrames,
                         ::testing::Values(Backend::Native, Backend::Executor),
                         [](const ::testing::TestParamInfo<Backend> &I) {
                           return std::string(I.param == Backend::Native
                                                  ? "Native"
                                                  : "Executor");
                         });

// --- Loop tests exit through their own LoopExit ----------------------------
//
// A guard whose other direction leaves the tree's loop, in the anchor
// frame, exits as a LoopExit at the pc it resumes at. No branch is grown
// there (it would only re-test the condition and leave), and an outer loop
// nests the tree on its first recording, since the tree leaves its loop
// through that exit.

namespace {

class LoopTestExits : public ::testing::TestWithParam<Backend> {
protected:
  /// Run \p Src traced on this backend and interpreted; the outputs must
  /// match. Leaves the traced engine in Traced.
  void run(const std::string &Src) {
    EngineOptions Off;
    Off.EnableJit = false;
    RunInfo Want = runWith(Src, Off);
    ASSERT_TRUE(Want.Ok) << Want.Error;
    EngineOptions O = jit();
    O.JitBackend = GetParam();
    O.CollectStats = true;
    O.VerifyLir = true;
    Traced = std::make_unique<Engine>(O);
    std::string Out;
    Traced->setPrintHook([&](const std::string &S) { Out += S; });
    auto Res = Traced->eval(Src);
    ASSERT_TRUE(Res.ok()) << Res.Err.describe();
    EXPECT_EQ(Out, Want.Out);
    EXPECT_EQ(Traced->stats().VerifyFailures, 0u);
  }

  unsigned countFragments(FragmentKind K) const {
    unsigned N = 0;
    for (const auto &F : Traced->context().Monitor->fragments())
      N += F->Kind == K && !F->Body.empty();
    return N;
  }

  std::unique_ptr<Engine> Traced;
};

} // namespace

TEST_P(LoopTestExits, OneIterationLoopGrowsNoBranch) {
  // Every call runs the loop once: the trunk's loop test fails at every
  // second crossing. It used to grow a branch there holding nothing but
  // the flipped test and a LoopExit.
  run("function g(a) { var s = 0; for (var i = 0; i < 1; ++i)"
      " s = s + a * 2; return s; }\n"
      "var t = 0; for (var k = 0; k < 200; ++k) t = t + g(k);\n"
      "print(t);");
  EXPECT_EQ(countFragments(FragmentKind::Branch), 0u);
  EXPECT_EQ(Traced->stats().BranchesCompiled, 0u);
  // The caller's loop calls g's tree as a nested tree.
  EXPECT_GE(Traced->stats().TreeCalls, 1u);
}

TEST_P(LoopTestExits, NestedLoopNestsOnTheFirstOuterRecording) {
  run("var t = 0;\n"
      "for (var j = 0; j < 40; ++j) {\n"
      "  var d = 0;\n"
      "  for (var i = 0; i < 30; ++i) d = d + i;\n"
      "  t = t + d;\n"
      "}\n"
      "print(t);");
  VMStats S = Traced->stats();
  EXPECT_EQ(S.AbortsByReason[(size_t)AbortReason::InnerTreeSideExit], 0u);
  EXPECT_EQ(S.TracesStarted, 2u) << "inner tree, then the outer one";
  EXPECT_EQ(S.TreesCompiled, 2u);
  EXPECT_GE(S.TreeCalls, 1u);
  EXPECT_EQ(countFragments(FragmentKind::Branch), 0u);
}

TEST_P(LoopTestExits, DoWhileTestLeavesThroughItsFallThrough) {
  // A do-while's test jumps back into the loop when true; its fall-through
  // leaves. The guard on a true test is the LoopExit.
  const char *Src =
      "function f(n) { var s = 0; var i = 0;\n"
      "  do { s = s + i; i = i + 1; } while (i < n);\n"
      "  return s; }\n"
      "var r = 0; for (var k = 0; k < 300; ++k) r = r + f(k % 7 + 3);\n"
      "print(r);";
  run(Src);
  bool SawLoopExitGuard = false;
  for (const auto &F : Traced->context().Monitor->fragments())
    if (F->Kind == FragmentKind::Root && !F->Body.empty() &&
        F->AnchorScript != nullptr && F->AnchorScript->Name == "f")
      for (const LIns *I : F->Body)
        if ((I->Op == LOp::GuardT || I->Op == LOp::GuardF) &&
            I->Exit->Kind == ExitKind::LoopExit) {
          SawLoopExitGuard = true;
          EXPECT_GE(I->Exit->Pc, F->Loop->EndPc) << "resumes past the loop";
        }
  EXPECT_TRUE(SawLoopExitGuard);
  VMStats S = Traced->stats();
  EXPECT_EQ(S.AbortsByReason[(size_t)AbortReason::InnerTreeSideExit], 0u);
}

INSTANTIATE_TEST_SUITE_P(TraceTrees, LoopTestExits,
                         ::testing::Values(Backend::Native, Backend::Executor),
                         [](const ::testing::TestParamInfo<Backend> &I) {
                           return std::string(I.param == Backend::Native
                                                  ? "Native"
                                                  : "Executor");
                         });

//===- test_analysis.cpp - Bytecode abstract interpreter tests ----------------===//
//
// Covers the static analysis end to end: the lint diagnostics surfaced by
// Engine::analyze (--analyze in the repl), the guard elision the recorder
// performs from published facts, the §3.2 demotion and megamorphic seeds
// handed to the oracle, the ValidateStaticFacts runtime cross-check, and
// the contract that switching the analysis off reproduces the baseline
// pipeline behavior exactly. The last section covers the loop-header
// liveness pass (computeLoopLiveness).
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/analysis.h"
#include "api/engine.h"
#include "frontend/parser.h"

using namespace tracejit;

namespace {

EngineOptions jitOpts() {
  EngineOptions O;
  O.EnableJit = true;
  O.CollectStats = true;
  O.VerifyLir = true;
  return O;
}

struct EvalRun {
  std::string Out;
  VMStats Stats;
};

EvalRun runWith(const std::string &Src, const EngineOptions &O) {
  Engine E(O);
  EvalRun R;
  E.setPrintHook([&](const std::string &S) { R.Out += S; });
  auto Res = E.eval(Src);
  EXPECT_TRUE(Res.ok()) << Res.Err.describe();
  R.Stats = E.stats();
  return R;
}

Engine::AnalysisReport analyze(const std::string &Src) {
  Engine E;
  return E.analyze(Src, "test.js");
}

bool hasDiag(const Engine::AnalysisReport &R, AnalysisDiagKind K,
             uint32_t Line) {
  return std::any_of(R.Diagnostics.begin(), R.Diagnostics.end(),
                     [&](const AnalysisDiagnostic &D) {
                       return D.Kind == K && D.Line == Line && D.Col > 0;
                     });
}

} // namespace

// --- Lint diagnostics (the --analyze mode) -----------------------------------

TEST(Analysis, ConstantConditionIsFlaggedWithPosition) {
  auto R = analyze("var x = 1;\n"
                   "if (x) { print(1); }\n");
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(hasDiag(R, AnalysisDiagKind::ConstantCondition, 2))
      << "diagnostics: " << R.Diagnostics.size();
}

TEST(Analysis, UnreachableElseOfConstantBranch) {
  auto R = analyze("var x = 0;\n"
                   "if (x) {\n"
                   "  print(1);\n"
                   "}\n");
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(hasDiag(R, AnalysisDiagKind::ConstantCondition, 2));
  EXPECT_TRUE(hasDiag(R, AnalysisDiagKind::UnreachableCode, 3));
}

TEST(Analysis, CodeAfterReturnIsUnreachable) {
  auto R = analyze("function f() {\n"
                   "  return 1;\n"
                   "  print(2);\n"
                   "}\n"
                   "f();\n");
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(hasDiag(R, AnalysisDiagKind::UnreachableCode, 3));
  // The finding is attributed to its enclosing function.
  bool Named = false;
  for (const auto &D : R.Diagnostics)
    if (D.Kind == AnalysisDiagKind::UnreachableCode && D.Function == "f")
      Named = true;
  EXPECT_TRUE(Named);
}

TEST(Analysis, UseBeforeDefOnLocal) {
  auto R = analyze("function f() {\n"
                   "  var a;\n"
                   "  var b = a + 1;\n"
                   "  return b;\n"
                   "}\n"
                   "f();\n");
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(hasDiag(R, AnalysisDiagKind::UseBeforeDef, 3));
}

TEST(Analysis, GuaranteedTypeErrorOnPrimitiveReceiver) {
  auto R = analyze("var x = 1;\n"
                   "var y = x.foo;\n");
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(hasDiag(R, AnalysisDiagKind::TypeError, 2));
}

TEST(Analysis, RealLoopHasNoFalsePositives) {
  auto R = analyze("var s = 0;\n"
                   "for (var i = 0; i < 100; ++i) {\n"
                   "  if (i % 2 == 0) s = s + i;\n"
                   "}\n"
                   "print(s);\n");
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(R.Diagnostics.empty())
      << "first: " << (R.Diagnostics.empty() ? "" : R.Diagnostics[0].Message);
}

TEST(Analysis, ParseErrorIsReportedNotThrown) {
  auto R = analyze("var (;");
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Err.describe().empty());
}

// --- Recorder guard elision --------------------------------------------------

TEST(Analysis, ElidesOverflowGuardInProvenIntLoop) {
  // i stays in [0,1000): the ++i overflow check is statically redundant.
  EvalRun R = runWith("var s = 0;\n"
                  "for (var i = 0; i < 1000; ++i) s = s + 1;\n"
                  "print(s);\n",
                  jitOpts());
  EXPECT_EQ(R.Out, "1000\n");
  EXPECT_GT(R.Stats.StaticGuardsElided, 0u);
  EXPECT_EQ(R.Stats.VerifyFailures, 0u);
  EXPECT_EQ(R.Stats.StaticFactContradictions, 0u);
}

TEST(Analysis, ElidesGuardsInNestedSieveLoop) {
  // The fig. 1 workload shape: nested loops where the inner bound depends
  // on the outer induction variable. Threshold widening must keep both
  // induction variables provably int for any elision to happen here.
  EvalRun R = runWith("var primes = 0;\n"
                  "for (var i = 2; i < 1000; ++i) {\n"
                  "  var composite = 0;\n"
                  "  for (var k = 2; k * k <= i; ++k) {\n"
                  "    if (i % k == 0) composite = 1;\n"
                  "  }\n"
                  "  if (composite == 0) primes = primes + 1;\n"
                  "}\n"
                  "print(primes);\n",
                  jitOpts());
  EXPECT_EQ(R.Out, "168\n");
  EXPECT_GT(R.Stats.StaticGuardsElided, 0u);
  EXPECT_EQ(R.Stats.VerifyFailures, 0u);
}

// --- Oracle seeding ----------------------------------------------------------

TEST(Analysis, SeedsDemotionForIntDoubleAccumulator) {
  // x joins int (init) with certainly-fractional double (the += 0.5): the
  // analysis publishes the §3.2 demotion up front, so the first recording
  // already treats x as double instead of record/fail/re-record.
  EvalRun R = runWith("var x = 0;\n"
                  "for (var i = 0; i < 500; ++i) x = x + 0.5;\n"
                  "print(x);\n",
                  jitOpts());
  EXPECT_EQ(R.Out, "250\n");
  EXPECT_GE(R.Stats.StaticDemotionsSeeded, 1u);
  EXPECT_EQ(R.Stats.VerifyFailures, 0u);
}

TEST(Analysis, DoesNotSeedDemotionForPureIntLoop) {
  // The sieve variables are int-or-double only through *possible overflow*
  // (OvfD); demoting them would pessimize an int loop, so no seeds.
  EvalRun R = runWith("var primes = 0;\n"
                  "for (var i = 2; i < 1000; ++i) {\n"
                  "  var composite = 0;\n"
                  "  for (var k = 2; k * k <= i; ++k) {\n"
                  "    if (i % k == 0) composite = 1;\n"
                  "  }\n"
                  "  if (composite == 0) primes = primes + 1;\n"
                  "}\n"
                  "print(primes);\n",
                  jitOpts());
  EXPECT_EQ(R.Stats.StaticDemotionsSeeded, 0u);
}

TEST(Analysis, PreMarksMegamorphicPropertySite) {
  // o draws from five distinct literal allocation sites -- more than a
  // polymorphic IC chain holds -- and from nothing unknown, so the o.x
  // site is pre-marked megamorphic before the first recording.
  EvalRun R = runWith("function pick(n) {\n"
                  "  var o = {x: 1};\n"
                  "  if (n == 1) { o = {x: 2, a: 1}; }\n"
                  "  if (n == 2) { o = {x: 3, b: 1}; }\n"
                  "  if (n == 3) { o = {x: 4, c: 1}; }\n"
                  "  if (n == 4) { o = {x: 5, d: 1}; }\n"
                  "  return o.x;\n"
                  "}\n"
                  "var t = 0;\n"
                  "for (var i = 0; i < 100; ++i) t = t + pick(i % 5);\n"
                  "print(t);\n",
                  jitOpts());
  EXPECT_GT(R.Stats.StaticMegaSeeded, 0u);
  EXPECT_EQ(R.Stats.VerifyFailures, 0u);
}

// --- Runtime cross-validation ------------------------------------------------

TEST(Analysis, ValidatedFactsNeverContradictExecution) {
  EngineOptions O = jitOpts();
  O.ValidateStaticFacts = true;
  EvalRun R = runWith("var x = 0;\n"
                  "var s = 0;\n"
                  "for (var i = 0; i < 300; ++i) {\n"
                  "  x = x + 0.5;\n"
                  "  s = s + (i % 7);\n"
                  "}\n"
                  "print(s);\n",
                  O);
  EXPECT_GT(R.Stats.StaticFactChecks, 0u);
  EXPECT_EQ(R.Stats.StaticFactContradictions, 0u);
}

// A trace drops t at the inner header, where it is dead, so the
// interpreter keeps the undefined it started each call with. When the
// inner tree side-exits before the body writes t and the interpreter runs
// on to the inner header without writing it either, t is still undefined
// there. The analysis publishes no fact for a local dead at a header, so
// every published fact still holds at every interpreted header crossing.
TEST(Analysis, HeaderFactsHoldWhereATraceDroppedADeadLocal) {
  const char *Src =
      "function f(n) { var s = 0; var t;\n"
      "  for (var o = 0; o < n; ++o) {\n"
      "    t = 'xy'; s = s + t.length;\n"
      "    for (var j = 0; j < 4; ++j) {\n"
      "      if (o % 9 == 8 && j == 1) s = s + 100;\n"
      "      if (j % 2 == 0) { t = j; s = s + t; }\n"
      "    }\n"
      "  }\n"
      "  return s; }\n"
      "var r = 0;\n"
      "for (var k = 0; k < 4; ++k) r = r + f(40);\n"
      "print(r);\n";
  EngineOptions O = jitOpts();
  O.ValidateStaticFacts = true;
  EngineOptions I;
  I.EnableJit = false;
  EvalRun Want = runWith(Src, I);
  EvalRun R = runWith(Src, O);
  EXPECT_EQ(R.Out, Want.Out);
  EXPECT_GT(R.Stats.StaticFactChecks, 0u);
  EXPECT_EQ(R.Stats.StaticFactContradictions, 0u);
  EXPECT_EQ(R.Stats.VerifyFailures, 0u);

  // f's locals: n 0, s 1, t 2, o 3, j 4. t is dead at the inner header
  // and gets the lattice top there; s, live, keeps its proven mask.
  EngineOptions P;
  VMContext Ctx(P);
  std::string Err;
  ASSERT_NE(compileSource(Ctx, Src, &Err), nullptr) << Err;
  for (auto &S : Ctx.Scripts) {
    if (S->Name != "f")
      continue;
    auto A = analyzeScript(*S, 0);
    ASSERT_TRUE(A->Converged);
    ASSERT_EQ(S->Loops.size(), 2u);
    auto It = A->Headers.find(S->Loops[1].HeaderPc);
    ASSERT_NE(It, A->Headers.end());
    EXPECT_EQ(It->second.Locals[2], MaskTop) << "t";
    EXPECT_NE(It->second.Locals[1], MaskTop) << "s";
    return;
  }
  ADD_FAILURE() << "no function f";
}

// --- The off switch ----------------------------------------------------------

TEST(Analysis, DisabledAnalysisReproducesBaselinePipeline) {
  const std::string Src = "var primes = 0;\n"
                          "for (var i = 2; i < 500; ++i) {\n"
                          "  var composite = 0;\n"
                          "  for (var k = 2; k * k <= i; ++k) {\n"
                          "    if (i % k == 0) composite = 1;\n"
                          "  }\n"
                          "  if (composite == 0) primes = primes + 1;\n"
                          "}\n"
                          "print(primes);\n";
  EngineOptions Off = jitOpts();
  Off.StaticAnalysis = false;
  EvalRun A = runWith(Src, Off);
  EvalRun B = runWith(Src, jitOpts());
  EXPECT_EQ(A.Out, B.Out);
  // With the analysis off, none of its counters may move.
  EXPECT_EQ(A.Stats.AnalysisRuns, 0u);
  EXPECT_EQ(A.Stats.StaticGuardsElided, 0u);
  EXPECT_EQ(A.Stats.StaticDemotionsSeeded, 0u);
  EXPECT_EQ(A.Stats.StaticMegaSeeded, 0u);
  // With it on, the run is observed by the stats.
  EXPECT_GT(B.Stats.AnalysisRuns, 0u);
}

// --- Direct analyzeScript facts ----------------------------------------------

TEST(Analysis, FactsSurviveAcrossEvalAndAnalyze) {
  // analyze() caches the compiled scripts' facts in the context, so a
  // subsequent eval of new source still runs analysis independently.
  Engine E(jitOpts());
  auto Rep = E.analyze("var q = 1; if (q) { print(q); }");
  ASSERT_TRUE(Rep.Ok);
  EXPECT_FALSE(Rep.Diagnostics.empty());
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  auto R = E.eval("var s = 0; for (var i = 0; i < 1000; ++i) s = s + 1; print(s);");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(Out, "1000\n");
  EXPECT_GT(E.stats().StaticGuardsElided, 0u);
}

// --- Loop-header liveness ----------------------------------------------------
//
// Locals are numbered in declaration order, parameters first: in
// `function f(n) { var s; ... var i; ... var t; }` n is 0, s 1, i 2, t 3.

namespace {

/// Liveness at the header of loop \p LoopIdx of function \p Fn in \p Src.
std::vector<uint8_t> liveAt(const char *Src, const char *Fn,
                            uint32_t LoopIdx = 0) {
  EngineOptions O;
  VMContext Ctx(O);
  std::string Err;
  EXPECT_NE(compileSource(Ctx, Src, &Err), nullptr) << Err;
  for (auto &S : Ctx.Scripts) {
    if (S->Name != Fn)
      continue;
    EXPECT_LT(LoopIdx, S->Loops.size());
    std::vector<std::vector<uint8_t>> Live;
    EXPECT_TRUE(computeLoopLiveness(*S, Live));
    EXPECT_EQ(Live[LoopIdx].size(), S->NumLocals);
    EXPECT_EQ(loopLiveLocals(*S, S->Loops[LoopIdx]), Live[LoopIdx]);
    return Live[LoopIdx];
  }
  ADD_FAILURE() << "no function " << Fn;
  return {};
}

} // namespace

TEST(Liveness, LocalWrittenBeforeReadIsDead) {
  auto L = liveAt("function f(n) { var s = 0;\n"
                  "  for (var i = 0; i < n; ++i) {\n"
                  "    var t = i * 2; s = s + t; }\n"
                  "  return s; }\n",
                  "f");
  ASSERT_EQ(L.size(), 4u);
  EXPECT_EQ(L[3], 0) << "t is written before every read";
  EXPECT_EQ(L[1], 1) << "s is read before it is written";
  EXPECT_EQ(L[2], 1) << "i is read by the condition";
}

TEST(Liveness, LocalReadAfterTheLoopIsLive) {
  // The body writes x before reading it, but the path that leaves the loop
  // reads the value of the last iteration.
  auto L = liveAt("function f(n) { var x = 0;\n"
                  "  for (var i = 0; i < n; ++i) { x = i * 3; }\n"
                  "  return x; }\n",
                  "f");
  ASSERT_EQ(L.size(), 3u);
  EXPECT_EQ(L[1], 1);
}

TEST(Liveness, LocalReadOnOnlyOneBranchIsLive) {
  auto L = liveAt("function f(n) { var s = 0; var t = 0;\n"
                  "  for (var i = 0; i < n; ++i) {\n"
                  "    if (i % 3 == 0) s = s + t;\n"
                  "    t = i;\n"
                  "  }\n"
                  "  return s; }\n",
                  "f");
  ASSERT_EQ(L.size(), 4u);
  EXPECT_EQ(L[2], 1) << "t is read on the then-path before the write";
}

TEST(Liveness, LocalReadInTheLoopConditionIsLive) {
  auto L = liveAt("function f(n) { var lim = n * 2; var c = 0;\n"
                  "  for (var i = 0; i < lim; ++i) c = i;\n"
                  "  return 0; }\n",
                  "f");
  ASSERT_EQ(L.size(), 4u);
  EXPECT_EQ(L[1], 1) << "lim";
  EXPECT_EQ(L[3], 1) << "i";
  EXPECT_EQ(L[2], 0) << "c is only written";
  EXPECT_EQ(L[0], 0) << "n is not read from the header on";
}

TEST(Liveness, ParameterReadInTheLoopIsLive) {
  auto L = liveAt("function f(n, step) { var s = 0;\n"
                  "  for (var i = 0; i < n; i = i + step) s = s + i;\n"
                  "  return s; }\n",
                  "f");
  ASSERT_EQ(L.size(), 4u);
  EXPECT_EQ(L[0], 1) << "n";
  EXPECT_EQ(L[1], 1) << "step";
}

TEST(Liveness, InnerLoopCounterIsDeadAtTheOuterHeader) {
  // access-nsieve's shape: k is set by the inner loop's initializer before
  // the inner loop reads it, on every path from the outer header.
  const char *Src = "function nsieve(m, isPrime) {\n"
                    "  var i, k, count;\n"
                    "  for (i = 2; i <= m; i++) isPrime[i] = true;\n"
                    "  count = 0;\n"
                    "  for (i = 2; i <= m; i++) {\n"
                    "    if (isPrime[i]) {\n"
                    "      for (k = i + i; k <= m; k += i)\n"
                    "        isPrime[k] = false;\n"
                    "      count++;\n"
                    "    }\n"
                    "  }\n"
                    "  return count;\n"
                    "}\n";
  auto Outer = liveAt(Src, "nsieve", 1);
  ASSERT_EQ(Outer.size(), 5u);
  EXPECT_EQ(Outer[3], 0) << "k";
  EXPECT_EQ(Outer[2], 1) << "i";
  EXPECT_EQ(Outer[4], 1) << "count";
  auto Inner = liveAt(Src, "nsieve", 2);
  EXPECT_EQ(Inner[3], 1) << "k is read by the inner condition";
  auto First = liveAt(Src, "nsieve", 0);
  EXPECT_EQ(First[4], 0) << "count is written after the first loop";
  EXPECT_EQ(First[3], 0) << "k";
}

TEST(Liveness, MalformedScriptLeavesEveryLocalLive) {
  // header; local 1 = undefined; jump 0xFFFFFF: the back jump lands outside
  // the code, so the pass cannot build the CFG and gives up.
  FunctionScript S;
  S.NumLocals = 3;
  auto B = [](Op O) { return (uint8_t)O; };
  S.Code = {B(Op::LoopHeader), 0, 0, B(Op::PushUndefined), B(Op::SetLocal), 1,
            0, B(Op::Pop), B(Op::Jump), 0xFF, 0xFF, 0xFF, 0};
  S.Loops.emplace_back();
  S.Loops[0].EndPc = (uint32_t)S.Code.size();
  const std::vector<uint8_t> AllLive(3, 1);
  std::vector<std::vector<uint8_t>> Live;
  EXPECT_FALSE(computeLoopLiveness(S, Live));
  EXPECT_EQ(Live, std::vector<std::vector<uint8_t>>{AllLive});
  EXPECT_EQ(loopLiveLocals(S, S.Loops[0]), AllLive);

  // The same loop with a sound back jump: local 1 is written before any
  // read, so it is dead.
  S.Code[9] = S.Code[10] = S.Code[11] = 0;
  EXPECT_TRUE(computeLoopLiveness(S, Live));
  EXPECT_EQ(Live[0], (std::vector<uint8_t>{0, 0, 0}));
  // A header pc inside an instruction is malformed too, and so is a local
  // the frame does not have.
  S.Loops[0].HeaderPc = 1;
  EXPECT_FALSE(computeLoopLiveness(S, Live));
  EXPECT_EQ(Live[0], AllLive);
  S.Loops[0].HeaderPc = 0;
  S.Code[5] = 7;
  EXPECT_FALSE(computeLoopLiveness(S, Live));
  EXPECT_EQ(Live[0], AllLive);
}

//===- test_analysis.cpp - Bytecode abstract interpreter tests ----------------===//
//
// Covers the static analysis end to end: the lint diagnostics surfaced by
// Engine::analyze (--analyze in the repl), the guard elision the recorder
// performs from published facts, the §3.2 demotion and megamorphic seeds
// handed to the oracle, the ValidateStaticFacts runtime cross-check, and
// the contract that switching the analysis off reproduces the baseline
// pipeline behavior exactly.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/analysis.h"
#include "api/engine.h"

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

//===- test_analysis.cpp - Bytecode abstract interpreter tests ----------------===//
//
// Covers the static analysis end to end: the overflow-guard elision the
// recorder performs from published facts, the §3.2 demotion seeds handed
// to the oracle, and the ValidateStaticFacts runtime cross-check, on small
// programs and on the perfbench corpus. The last section covers the
// loop-header liveness pass (computeLoopLiveness).
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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

} // namespace

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
  EngineError Err;
  ASSERT_NE(compileSource(Ctx, Src, &Err), nullptr) << Err.describe();
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

// Every header fact holds on the real corpus: each perfbench program (read
// in place) prints its .expected on both backends with every interpreted
// loop header checked against the analysis.
TEST(Analysis, CorpusHeaderFactsHoldOnBothBackends) {
  namespace fs = std::filesystem;
  std::vector<fs::path> Programs;
  for (const auto &Ent : fs::directory_iterator(TRACEJIT_PERFBENCH_PROGRAMS))
    if (Ent.path().extension() == ".js")
      Programs.push_back(Ent.path());
  std::sort(Programs.begin(), Programs.end());
  ASSERT_FALSE(Programs.empty());
  auto Slurp = [](const fs::path &P) {
    std::ifstream F(P);
    std::stringstream S;
    S << F.rdbuf();
    return S.str();
  };
  for (Backend B : {Backend::Native, Backend::Executor}) {
    for (const fs::path &P : Programs) {
      SCOPED_TRACE(P.filename().string() +
                   (B == Backend::Native ? " native" : " executor"));
      EngineOptions O;
      O.CollectStats = true;
      O.ValidateStaticFacts = true;
      O.JitBackend = B;
      Engine E(O);
      std::string Out;
      E.setPrintHook([&](const std::string &S) { Out += S; });
      EvalResult R = E.eval(Slurp(P));
      ASSERT_TRUE(R.ok()) << R.Err.describe();
      fs::path Expected = P;
      Expected.replace_extension(".expected");
      EXPECT_EQ(Out, Slurp(Expected));
      EXPECT_GT(E.stats().StaticFactChecks, 0u);
      EXPECT_EQ(E.stats().StaticFactContradictions, 0u);
    }
  }
}

// --- Direct analyzeScript facts ----------------------------------------------

TEST(Analysis, FactsSurviveAcrossEvals) {
  // Each eval analyzes the scripts it compiles and keeps the facts of the
  // earlier ones, so a second eval of new source on the same engine still
  // gets its own facts.
  Engine E(jitOpts());
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  ASSERT_TRUE(E.eval("var q = 1; if (q) { print(q); }").ok());
  uint64_t Runs = E.stats().AnalysisRuns;
  EXPECT_GT(Runs, 0u);
  auto R =
      E.eval("var s = 0; for (var i = 0; i < 1000; ++i) s = s + 1; print(s);");
  ASSERT_TRUE(R.ok()) << R.Err.describe();
  EXPECT_EQ(Out, "1\n1000\n");
  EXPECT_GT(E.stats().AnalysisRuns, Runs);
  EXPECT_GT(E.stats().StaticGuardsElided, 0u);
}

// --- Negative zero -----------------------------------------------------------

namespace {

/// The mask of local \p Local at the one loop header of function \p Fn.
TypeMask headerMaskOfLocal(const char *Src, const char *Fn, uint32_t Local) {
  EngineOptions O;
  VMContext Ctx(O);
  EngineError Err;
  EXPECT_NE(compileSource(Ctx, Src, &Err), nullptr) << Err.describe();
  for (auto &S : Ctx.Scripts) {
    if (S->Name != Fn)
      continue;
    auto A = analyzeScript(*S, Ctx.Globals.size());
    EXPECT_TRUE(A->Converged);
    EXPECT_EQ(A->Headers.size(), 1u);
    if (A->Headers.size() != 1 ||
        Local >= A->Headers.begin()->second.Locals.size())
      return 0;
    return A->Headers.begin()->second.Locals[Local];
  }
  ADD_FAILURE() << "no function " << Fn;
  return 0;
}

} // namespace

// An int product that may be 0 with a negative operand may be -0, a double;
// a square is 0 only for 0, so a square over a range spanning 0 stays int.
TEST(Analysis, SquareSpanningZeroStaysIntAndOtherProductsMayBeNegativeZero) {
  const char *Src = "function sq() { var s = 0;\n"
                    "  for (var i = -5; i < 5; ++i) s = i * i;\n"
                    "  return s; }\n"
                    "function mul() { var s = 0; var k = 0;\n"
                    "  for (var i = -5; i < 5; ++i) { k = i; s = i * k; }\n"
                    "  return s; }\n";
  EXPECT_EQ(headerMaskOfLocal(Src, "sq", 0), MaskInt);
  EXPECT_EQ(headerMaskOfLocal(Src, "mul", 0), MaskInt | MaskDouble);
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
  EngineError Err;
  EXPECT_NE(compileSource(Ctx, Src, &Err), nullptr) << Err.describe();
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

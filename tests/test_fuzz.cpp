//===- test_fuzz.cpp - JSFUNFUZZ-lite differential fuzzing --------------------===//
//
// "One tool that helped us greatly was Mozilla's JavaScript fuzz tester,
// JSFUNFUZZ... We modified JSFUNFUZZ to generate loops, and also to test
// more heavily certain constructs we suspected would reveal flaws in our
// implementation. For example, we suspected bugs in TraceMonkey's handling
// of type-unstable loops and heavily branching code." (§6.6)
//
// This generator does the same: random loop-heavy programs with branchy
// bodies, type-unstable accumulators, arrays, and function calls, whose hot
// loop is entered repeatedly while slots it never touches (a global, a
// caller's local) and one it does touch change type. The loop also has
// locals in each liveness class a tree treats differently: one written
// before it is read (dead at the header), one read after the loop, and one
// read on only one branch. Every seed runs on the interpreter and on both
// JIT backends; printed output and every global's final value must match.
// TEST_P sweeps seeds as a property-based suite.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "api/engine.h"

using namespace tracejit;

namespace {

/// Deterministic generator state (splitmix64).
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 2654435761u + 1) {}
  uint64_t next() {
    S += 0x9E3779B97F4A7C15ULL;
    uint64_t Z = S;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }
  uint32_t below(uint32_t N) { return (uint32_t)(next() % N); }
};

/// Generate a random arithmetic expression over the in-scope variables.
std::string genExpr(Rng &R, int Depth) {
  static const char *Vars[] = {"a", "b", "c", "i"};
  if (Depth <= 0 || R.below(3) == 0) {
    switch (R.below(4)) {
    case 0:
      return Vars[R.below(4)];
    case 1:
      return std::to_string((int)R.below(100));
    case 2:
      return std::to_string((int)R.below(100)) + "." +
             std::to_string((int)R.below(100));
    default:
      return std::string("arr[i % ") + std::to_string(4 + R.below(4)) + "]";
    }
  }
  static const char *Ops[] = {"+", "-", "*", "&", "|", "^",
                              "%", ">>", "<<", ">>>"};
  const char *Op = Ops[R.below(10)];
  std::string L = genExpr(R, Depth - 1);
  std::string Rhs = genExpr(R, Depth - 1);
  if (std::string(Op) == "%")
    Rhs = "(1 + (" + Rhs + " & 15))"; // avoid %0 NaNs dominating
  if (std::string(Op) == ">>" || std::string(Op) == "<<" ||
      std::string(Op) == ">>>")
    Rhs = "(" + Rhs + " & 7)";
  return "(" + L + " " + Op + " " + Rhs + ")";
}

std::string genCond(Rng &R) {
  static const char *Cmp[] = {"<", "<=", ">", ">=", "==", "!="};
  return genExpr(R, 1) + " " + Cmp[R.below(6)] + " " + genExpr(R, 1);
}

std::string genStatement(Rng &R, int Depth) {
  static const char *Accs[] = {"a", "b", "c"};
  switch (R.below(6)) {
  case 0:
    return std::string(Accs[R.below(3)]) + " = " + genExpr(R, 2) + ";\n";
  case 1:
    return std::string(Accs[R.below(3)]) + " += " + genExpr(R, 2) + ";\n";
  case 2:
    return "if (" + genCond(R) + ") { " + std::string(Accs[R.below(3)]) +
           " += 1; } else { " + std::string(Accs[R.below(3)]) +
           " -= 2; }\n";
  case 3:
    return "arr[i % 8] = " + genExpr(R, 1) + ";\n";
  case 4:
    return std::string(Accs[R.below(3)]) + " = helper(" + genExpr(R, 1) +
           ", " + genExpr(R, 1) + ");\n";
  default:
    if (Depth > 0) {
      // A small nested loop exercising tree nesting under fuzz. Each gets
      // a unique counter so nested instances cannot interfere.
      static int LoopVar = 0;
      std::string K = "k";
      K += std::to_string(LoopVar++);
      std::string Body = genStatement(R, Depth - 1);
      return "for (var " + K + " = 0; " + K + " < " +
             std::to_string(2 + R.below(6)) + "; ++" + K + ") {\n" + Body +
             "}\n";
    }
    return std::string(Accs[R.below(3)]) + " ^= " + genExpr(R, 1) + ";\n";
  }
}

/// A statement for the forward filters: `| 0` over an int sum that
/// overflows int32 (the ToInt32 fold), or property reads of one object
/// around a write to one of its properties (load CSE across a named-slot
/// store; sometimes the slot it reads). They write only f and po, so the
/// accumulators a, b and c compute what they did before these existed.
std::string genFilterStatement(Rng &R) {
  if (R.below(2) == 0) {
    static const char *Terms[] = {"hi", "lo",  "i",          "(a | 0)",
                                  "(c | 0)", "7", "2147483000"};
    std::string Sum = Terms[R.below(2)]; // hi or lo: the sum overflows
    for (uint32_t K = 0, N = 1 + R.below(3); K < N; ++K)
      Sum += std::string(R.below(2) ? " + " : " - ") + Terms[R.below(7)];
    return "f = (" + Sum + ") | 0;\n";
  }
  static const char *Props[] = {"p", "q", "r"};
  std::string Read = Props[R.below(3)];
  return "f += po." + Read + "; po." + Props[R.below(3)] + " = " +
         genExpr(R, 1) + "; f += po." + Read + " - po." + Props[R.below(3)] +
         ";\n";
}

std::string generateProgram(uint64_t Seed) {
  Rng R(Seed);
  std::string P;
  P += "function helper(x, y) { return (x | 0) + (y | 0) * 3; }\n";
  P += "var a = 0, b = 1, c = 0;\n";
  P += "var arr = Array(8);\n";
  P += "for (var z = 0; z < 8; ++z) arr[z] = z;\n";
  // Sometimes make an accumulator start out type-unstable.
  if (R.below(2))
    P += "b = 0.5;\n";
  // The hot loop lives in run(), called from caller() once per entry. Between
  // entries, global quiet and caller()'s local mine change type although
  // the loop never touches them (its trees must not depend on them), while
  // global loud, which the loop reads and writes, changes type too.
  P += "var quiet = 0, loud = 0, sink = '';\n";
  P += "var wlast = 0, keptOut = 0, oneOut = 0;\n";
  P += "var kinds = [0, 1.5, 's', 2, 0.25, 't'];\n";
  P += "var hi = 2147483647, lo = -2147483647 - 1, f = 0;\n";
  P += "var po = {p: 1, q: 2.5, r: -3};\n";
  int Iters = 20 + (int)R.below(200);
  // The liveness locals draw from their own stream, so each seed's
  // statements stay what they were before these locals existed.
  Rng L(Seed ^ 0x5bd1e995u);
  P += "function run(n) {\n";
  P += "  var kept = 0, one = 0;\n";
  P += "  for (var i = 0; i < n; ++i) {\n";
  // w is undefined at the first crossing of every call and written before
  // any read: dead at the header. Reading it after the loop would make it
  // live, so the body copies it into a global instead.
  P += "    var w = " + genExpr(L, 2) + ";\n";
  int Stmts = 1 + R.below(5);
  for (int K = 0; K < Stmts; ++K)
    P += genStatement(R, 1);
  // The filter statements draw from their own stream too.
  Rng X(Seed ^ 0x2545f491u);
  for (uint32_t K = 0, N = X.below(3); K < N; ++K)
    P += "    " + genFilterStatement(X);
  // one is read on one branch only, before the write below.
  P += "    if (" + genCond(L) + ") { c = c + one; }\n";
  P += "    one = " + genExpr(L, 1) + " + w;\n";
  // kept is written before any read in the body, but read after the loop.
  P += "    kept = w - " + genExpr(L, 1) + ";\n";
  P += "    wlast = w;\n";
  P += "    loud = loud + 1;\n";
  P += "  }\n";
  P += "  keptOut = kept; oneOut = one;\n";
  P += "}\n";
  P += "function caller(n, e) { var mine = kinds[(e + 3) % 6]; run(n);"
       " return mine; }\n";
  P += "for (var e = 0; e < 6; ++e) {\n";
  P += "  quiet = kinds[e]; loud = kinds[(e + 1) % 6];\n";
  P += "  sink = sink + caller(" + std::to_string(Iters) + ", e);\n";
  P += "}\n";
  P += "print(a | 0, b | 0, c | 0, arr[3] | 0, loud, sink);\n";
  return P;
}

/// \p V as the comparison sees it: numbers with Object.is identity, -0
/// apart from 0 whatever the printer makes of it, and NaN equal to NaN.
std::string sameValueString(const Value &V) {
  if (V.isDoubleCell() && V.numberValue() == 0 &&
      std::signbit(V.numberValue()))
    return "-0";
  return valueToString(V);
}

/// Printed output, then every global's final value in slot order, compared
/// with Object.is semantics.
std::string runOn(const std::string &Src, bool Jit, Backend B) {
  EngineOptions O;
  O.EnableJit = Jit;
  O.JitBackend = B;
  // The fuzzer is exactly where malformed LIR would surface: run every
  // JIT configuration with the verifier on and require silence.
  O.VerifyLir = true;
  O.CollectStats = true;
  Engine E(O);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  auto R = E.eval(Src);
  if (!R.ok())
    return "<error: " + R.Err.describe() + ">";
  EXPECT_EQ(E.stats().VerifyFailures, 0u) << "program:\n" << Src;
  const GlobalTable &G = E.context().Globals;
  for (uint32_t I = 0; I < G.size(); ++I)
    Out += std::string(G.Names[I]->view()) + "=" +
           sameValueString(G.Values[I]) + "\n";
  return Out;
}

class FuzzDifferential : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(FuzzDifferential, InterpreterAndJitAgree) {
  uint64_t Seed = GetParam();
  std::string Src = generateProgram(Seed);
  std::string I = runOn(Src, false, Backend::Native);
  std::string N = runOn(Src, true, Backend::Native);
  std::string X = runOn(Src, true, Backend::Executor);
  EXPECT_EQ(I, N) << "seed " << Seed << "\nprogram:\n" << Src;
  EXPECT_EQ(I, X) << "seed " << Seed << "\nprogram:\n" << Src;
}

// The abstract interpreter's published facts must never contradict what
// actually happens at runtime. ValidateStaticFacts re-checks every header
// fact against live values on each loop-header crossing, and the recorder
// counts a contradiction whenever an elidable fact disagrees with the
// recorded type. Any nonzero count is an analysis soundness bug, and under
// the JIT an unsound fact would also surface as a wrong answer -- so this
// leg runs the same differential comparison with validation armed.
TEST_P(FuzzDifferential, StaticFactsNeverContradictRuntime) {
  uint64_t Seed = GetParam();
  std::string Src = generateProgram(Seed);
  std::string Outs[2];
  for (int Jit = 0; Jit < 2; ++Jit) {
    EngineOptions O;
    O.EnableJit = Jit != 0;
    O.ValidateStaticFacts = true;
    O.CollectStats = true;
    O.VerifyLir = Jit != 0;
    Engine E(O);
    E.setPrintHook([&](const std::string &S) { Outs[Jit] += S; });
    auto R = E.eval(Src);
    ASSERT_TRUE(R.ok()) << "seed " << Seed << ": " << R.Err.describe();
    EXPECT_EQ(E.stats().StaticFactContradictions, 0u)
        << "seed " << Seed << " jit=" << Jit << "\nprogram:\n" << Src;
    if (Jit) {
      EXPECT_EQ(E.stats().VerifyFailures, 0u) << "program:\n" << Src;
    }
  }
  EXPECT_EQ(Outs[0], Outs[1]) << "seed " << Seed << "\nprogram:\n" << Src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Range<uint64_t>(1, 120));
// Seed 1235: `(x % 16) * (y >> 1)` with x = -2, y = 0 is -0, which an int
// product once dropped in the interpreter.
INSTANTIATE_TEST_SUITE_P(NegativeZero, FuzzDifferential,
                         ::testing::Values<uint64_t>(1235));

// JavaScript's -0 from an int multiply: at the top level, on trace (in
// the recording and past the guard after a compiled multiply), through a
// trace's int `%`, and where the static analysis bounds both
// operands. Each prints -Infinity, interpreted and on both backends, and
// no static fact claims an int where the -0 double arrives.
TEST(FuzzRegression, IntProductsKeepNegativeZero) {
  const char *Scripts[] = {
      "print(1/(-2*0));",
      "var a = -2, t = 0;\n"
      "for (var j = 0; j < 100; ++j) t = a * (j & 0);\n"
      "print(1/t);",
      "var s = 0, x = -2, y = 0;\n"
      "for (var k = 0; k < 100; ++k) s = (x % 16) * (y >> 1);\n"
      "print(1/s);",
      // A tree recorded on a negative product later meets a zero one.
      "var a = -2, t = 0, m = 0;\n"
      "for (var j = 1; j < 100; ++j) {\n"
      "  t = a * (j % 4);\n"
      "  if (t == 0) m = 1/t;\n"
      "}\n"
      "print(m);",
      // Locals whose ranges the analysis knows: t is no int at the header.
      "function f() {\n"
      "  var a = -2, b = 0, t = 0, u = 0;\n"
      "  for (var j = 0; j < 100; ++j) { u = 1/t; t = a * b; }\n"
      "  return u;\n"
      "}\n"
      "print(f());",
  };
  for (const char *Src : Scripts) {
    for (bool Jit : {false, true}) {
      EngineOptions O;
      O.EnableJit = Jit;
      O.ValidateStaticFacts = true;
      O.CollectStats = true;
      Engine E(O);
      E.setPrintHook([](const std::string &) {});
      ASSERT_TRUE(E.eval(Src).ok()) << Src;
      EXPECT_EQ(E.stats().StaticFactContradictions, 0u)
          << "jit=" << Jit << "\n" << Src;
    }
    std::string Want = "-Infinity\n";
    std::string I = runOn(Src, false, Backend::Native);
    EXPECT_EQ(I.substr(0, Want.size()), Want) << Src;
    EXPECT_EQ(runOn(Src, true, Backend::Native), I) << Src;
    EXPECT_EQ(runOn(Src, true, Backend::Executor), I) << Src;
  }
}

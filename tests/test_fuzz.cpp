//===- test_fuzz.cpp - JSFUNFUZZ-lite differential fuzzing --------------------===//
//
// "One tool that helped us greatly was Mozilla's JavaScript fuzz tester,
// JSFUNFUZZ... We modified JSFUNFUZZ to generate loops, and also to test
// more heavily certain constructs we suspected would reveal flaws in our
// implementation. For example, we suspected bugs in TraceMonkey's handling
// of type-unstable loops and heavily branching code." (§6.6)
//
// This generator does the same: random loop-heavy programs with branchy
// bodies, type-unstable accumulators, arrays, and function calls. Every
// seed runs on the interpreter and on both JIT backends; outputs must
// match. TEST_P sweeps seeds as a property-based suite.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

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
  int Iters = 50 + (int)R.below(500);
  P += "for (var i = 0; i < " + std::to_string(Iters) + "; ++i) {\n";
  int Stmts = 1 + R.below(5);
  for (int K = 0; K < Stmts; ++K)
    P += genStatement(R, 1);
  P += "}\n";
  P += "print(a | 0, b | 0, c | 0, arr[3] | 0);\n";
  return P;
}

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

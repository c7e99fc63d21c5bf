//===- test_jit.cpp - Differential tests: interpreter vs. both JIT backends -===//
//
// Every program runs three ways -- pure interpreter, JIT with the native
// x86-64 backend, JIT with the portable LIR-executor backend -- and all
// three outputs must agree. The JIT configurations use a hot-loop
// threshold of 2 (the paper's default), so even short loops compile.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "api/engine.h"
#include "trace/monitor.h"

using namespace tracejit;

namespace {

std::string runConfig(const std::string &Src, const EngineOptions &Opts,
                      VMStats *StatsOut = nullptr) {
  Engine E(Opts);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  auto R = E.eval(Src);
  EXPECT_TRUE(R.ok()) << R.Err.describe() << "\nprogram:\n" << Src;
  if (!R.ok())
    return "<error: " + R.Err.describe() + ">";
  if (StatsOut)
    *StatsOut = E.stats();
  return Out;
}

EngineOptions interpOpts() {
  EngineOptions O;
  O.EnableJit = false;
  return O;
}

EngineOptions nativeOpts() {
  EngineOptions O;
  O.EnableJit = true;
  O.JitBackend = Backend::Native;
  O.CollectStats = true;
  return O;
}

EngineOptions executorOpts() {
  EngineOptions O;
  O.EnableJit = true;
  O.JitBackend = Backend::Executor;
  O.CollectStats = true;
  return O;
}

/// The core differential harness.
void diff3(const std::string &Src) {
  std::string I = runConfig(Src, interpOpts());
  VMStats NatStats;
  std::string N = runConfig(Src, nativeOpts(), &NatStats);
  std::string X = runConfig(Src, executorOpts());
  EXPECT_EQ(I, N) << "native JIT diverged from interpreter on:\n" << Src;
  EXPECT_EQ(I, X) << "executor JIT diverged from interpreter on:\n" << Src;
}

/// Like diff3, but also requires that at least one trace actually compiled
/// and ran (guards against silently falling back to pure interpretation).
void diff3Traced(const std::string &Src, uint64_t MinTraces = 1) {
  diff3(Src);
  VMStats S;
  runConfig(Src, nativeOpts(), &S);
  EXPECT_GE(S.TracesCompleted, MinTraces) << Src;
  EXPECT_GE(S.TraceEnters, 1u) << Src;
}

} // namespace

TEST(Jit, SimpleIntLoop) {
  diff3Traced("var s = 0; for (var i = 0; i < 1000; ++i) s += i; print(s);");
}

TEST(Jit, SimpleDoubleLoop) {
  diff3Traced("var s = 0.5; for (var i = 0; i < 1000; ++i) s = s + 0.25;"
              "print(s);");
}

TEST(Jit, IntOverflowOnTrace) {
  // Starts int, overflows mid-loop: overflow guard exits, oracle demotes,
  // a double trace takes over.
  diff3Traced("var s = 1; for (var i = 0; i < 100; ++i) s = s * 3;"
              "print(s);");
}

TEST(Jit, BitOpsLoop) {
  diff3Traced("var x = 0; for (var i = 0; i < 5000; ++i)"
              "  x = (x + i) & 0xffff ^ (i << 3) | (i >>> 2);"
              "print(x);");
}

TEST(Jit, BranchyLoopGrowsTraceTree) {
  diff3Traced("var a = 0, b = 0;\n"
              "for (var i = 0; i < 2000; ++i) {\n"
              "  if (i % 3 == 0) a += i; else b += i;\n"
              "}\n"
              "print(a, b);");
}

TEST(Jit, WhileLoop) {
  diff3Traced("var n = 0; var i = 0; while (i < 777) { n += 2; i = i + 1; }"
              "print(n, i);");
}

TEST(Jit, DoWhileLoop) {
  diff3Traced("var i = 0; do { i = i + 1; } while (i < 543); print(i);");
}

TEST(Jit, NestedLoops) {
  diff3Traced("var c = 0;\n"
              "for (var i = 0; i < 60; ++i)\n"
              "  for (var j = 0; j < 60; ++j)\n"
              "    c = c + 1;\n"
              "print(c);");
}

TEST(Jit, SieveFromThePaper) {
  diff3Traced("var primes = Array(1000);\n"
              "for (var p = 0; p < 1000; ++p) primes[p] = true;\n"
              "for (var i = 2; i < 1000; ++i) {\n"
              "  if (!primes[i]) continue;\n"
              "  for (var k = i + i; k < 1000; k += i)\n"
              "    primes[k] = false;\n"
              "}\n"
              "var count = 0;\n"
              "for (var n = 2; n < 1000; ++n) if (primes[n]) count = count + 1;\n"
              "print(count);");
}

TEST(Jit, ArrayReadWrite) {
  diff3Traced("var a = Array(100);\n"
              "for (var i = 0; i < 100; ++i) a[i] = i * 2;\n"
              "var s = 0;\n"
              "for (var j = 0; j < 100; ++j) s += a[j];\n"
              "print(s, a.length);");
}

TEST(Jit, ArrayAppendGrowth) {
  diff3Traced("var a = [];\n"
              "for (var i = 0; i < 500; ++i) a[i] = i;\n"
              "print(a.length, a[0], a[499]);");
}

TEST(Jit, ObjectPropertiesOnTrace) {
  diff3Traced("var o = {x: 0, y: 1};\n"
              "for (var i = 0; i < 500; ++i) { o.x = o.x + o.y; }\n"
              "print(o.x);");
}

TEST(Jit, ScriptedCallInlining) {
  diff3Traced("function add(a, b) { return a + b; }\n"
              "var s = 0;\n"
              "for (var i = 0; i < 1000; ++i) s = add(s, i);\n"
              "print(s);");
}

TEST(Jit, MathNativesOnTrace) {
  diff3Traced("var s = 0;\n"
              "for (var i = 0; i < 300; ++i)"
              "  s += Math.sqrt(i) + Math.abs(-i) + Math.min(i, 10);\n"
              "print(Math.floor(s));");
}

TEST(Jit, MathRoundMatchesJs) {
  // floor(x + 0.5) rounds 0.49999999999999994 up to 1 and loses the sign of
  // a zero result; interpreter and traces share the one native.
  const char *Src = "var xs = [-0.4, -2.5, 0.49999999999999994];\n"
                    "var a = 0, b = 0, c = 0;\n"
                    "for (var i = 0; i < 300; ++i) {\n"
                    "  a = 1 / Math.round(xs[0]);\n"
                    "  b = Math.round(xs[1]);\n"
                    "  c = Math.round(xs[2]);\n"
                    "}\n"
                    "print(a, b, c);";
  diff3Traced(Src);
  EXPECT_EQ(runConfig(Src, interpOpts()), "-Infinity -2 0\n");
}

TEST(Jit, DoubleToIntIndexing) {
  diff3Traced("var a = Array(64);\n"
              "for (var i = 0; i < 64; ++i) a[i] = i;\n"
              "var s = 0;\n"
              "for (var j = 0.0; j < 64; j = j + 1) s += a[j];\n"
              "print(s);");
}

TEST(Jit, StringCharCodeAt) {
  diff3Traced("var s = 'abcdefghijklmnopqrstuvwxyz';\n"
              "var t = 0;\n"
              "for (var r = 0; r < 40; ++r)\n"
              "  for (var i = 0; i < s.length; ++i) t += s.charCodeAt(i);\n"
              "print(t);");
}

TEST(Jit, StringConcatOnTrace) {
  diff3Traced("var s = '';\n"
              "for (var i = 0; i < 64; ++i) s = s + 'x';\n"
              "print(s.length);");
}

TEST(Jit, TypeUnstableLoopStabilizes) {
  // i stays int; s flips to double on the first iteration -- classic
  // type-unstable first iteration (Fig. 6), resolved by peer linking and
  // the oracle.
  diff3Traced("var s = 0;\n"
              "for (var i = 0; i < 500; ++i) s = s + 0.5;\n"
              "print(s);");
}

TEST(Jit, BreakOutOfLoop) {
  diff3Traced("var i = 0;\n"
              "for (;;) { i = i + 1; if (i >= 1234) break; }\n"
              "print(i);");
}

TEST(Jit, ContinuePath) {
  diff3Traced("var s = 0;\n"
              "for (var i = 0; i < 3000; ++i) {\n"
              "  if ((i & 1) == 0) continue;\n"
              "  s += i;\n"
              "}\n"
              "print(s);");
}

TEST(Jit, TernaryAndLogicalOps) {
  diff3Traced("var s = 0;\n"
              "for (var i = 0; i < 1000; ++i)\n"
              "  s += (i % 2 == 0 ? 1 : 2) + (i > 500 && i < 600 ? 10 : 0);\n"
              "print(s);");
}

TEST(Jit, UntraceableRecursionStaysCorrect) {
  // Recursion aborts recording; blacklisting must keep this correct (and
  // eventually quiet).
  diff3("function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\n"
        "var s = 0;\n"
        "for (var i = 0; i < 15; ++i) s += fib(i);\n"
        "print(s);");
}

TEST(Jit, GlobalsOnTrace) {
  diff3Traced("var g = 0;\n"
              "function bump(i) { g = g + i; return g; }\n"
              "var last = 0;\n"
              "for (var i = 0; i < 400; ++i) last = bump(i);\n"
              "print(g, last);");
}

TEST(Jit, DeepExpressionStacks) {
  diff3Traced("var s = 0;\n"
              "for (var i = 0; i < 500; ++i)\n"
              "  s += ((i + 1) * (i + 2) - (i + 3)) % 97 + (i ^ 3) % 13;\n"
              "print(s);");
}

TEST(Jit, NestedLoopsWithBranches) {
  diff3Traced("var c = 0;\n"
              "for (var i = 0; i < 50; ++i) {\n"
              "  for (var j = 0; j < 50; ++j) {\n"
              "    if ((i + j) % 2 == 0) c += 1; else c += 2;\n"
              "  }\n"
              "}\n"
              "print(c);");
}

TEST(Jit, TripleNestedLoops) {
  diff3Traced("var c = 0;\n"
              "for (var i = 0; i < 12; ++i)\n"
              "  for (var j = 0; j < 12; ++j)\n"
              "    for (var k = 0; k < 12; ++k)\n"
              "      c = c + 1;\n"
              "print(c);");
}

TEST(Jit, PreemptionDuringNativeLoop) {
  EngineOptions O = nativeOpts();
  Engine E(O);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  // On-trace allocation (string concat) raises the preempt flag under heap
  // pressure; the guard at the compiled loop edge must exit so the
  // interpreter can collect, then re-enter the trace -- without corrupting
  // the loop (§6.4).
  auto R = E.eval("var total = 0;\n"
                  "for (var r = 0; r < 40; ++r) {\n"
                  "  var s = '';\n"
                  "  for (var i = 0; i < 3000; ++i) s = s + 'xxxxxxxx';\n"
                  "  total += s.length;\n"
                  "}\n"
                  "print(total);");
  ASSERT_TRUE(R.ok()) << R.Err.describe();
  EXPECT_EQ(Out, "960000\n");
  EXPECT_GE(E.stats().GCs, 1u) << "expected GC pressure during the loop";
  EXPECT_GE(E.stats().TraceEnters, 1u);
}

TEST(Jit, HostRequestedPreemption) {
  // The host can raise the preempt flag at any time; both interpreted and
  // compiled loop edges service it promptly.
  EngineOptions O = nativeOpts();
  Engine E(O);
  E.requestPreempt();
  auto R = E.eval("var s = 0; for (var i = 0; i < 10000; ++i) s += i;");
  ASSERT_TRUE(R.ok()) << R.Err.describe();
  EXPECT_EQ(E.getGlobal("s").numberValue(), 49995000.0);
}

TEST(Jit, Figure11CountersPopulated) {
  VMStats S;
  runConfig("var s = 0; for (var i = 0; i < 10000; ++i) s += i; print(s);",
            nativeOpts(), &S);
  EXPECT_GT(S.BytecodesInterpreted, 0u);
  EXPECT_GT(S.BytecodesNative, 0u);
  // The loop is hot: native coverage should dominate interpretation.
  EXPECT_GT(S.BytecodesNative, S.BytecodesInterpreted);
}

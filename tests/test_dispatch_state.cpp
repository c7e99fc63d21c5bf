//===- test_dispatch_state.cpp - Dispatch spill points, exit export -----===//
//
// The threaded interpreter keeps pc and sp in locals and spills them to
// Interpreter::Pc/Sp only around call-outs (interp/dispatch.inc). These
// tests reach every call-out that reads or changes them from inside a
// callee of a hot loop, with the JIT off and on:
//  - runtime errors report the erroring op's line and column;
//  - a GC, from gc() or at a loop edge, scans every frame's slots;
//  - a host native re-enters script through Interpreter::callValue;
//  - a deadline expires deep in a recursion;
// and the engine stays reusable after each error.
//
// A trace exit writes back the stack plus only the globals some trace of
// the entered loop stores to (trace/monitor.h, LoopState::StoredGlobals).
// The last tests pin that set: a store only a later branch makes, a store
// only a nested tree makes, a null store (which emits no TAR store), and
// an unchanged double global that must keep its cell across many exits.
//
//===----------------------------------------------------------------------===//

#include <string>

#include <gtest/gtest.h>

#include "api/engine.h"

using namespace tracejit;

namespace {

EngineOptions opts(bool Jit) {
  EngineOptions O;
  O.EnableJit = Jit;
  O.CollectStats = true;
  return O;
}

struct Outcome {
  EvalResult R;
  std::string Out;
};

Outcome evalIn(Engine &E, const std::string &Src) {
  Outcome X;
  E.setPrintHook([&X](const std::string &S) { X.Out += S; });
  X.R = E.eval(Src);
  E.setPrintHook([](const std::string &) {});
  return X;
}

/// The engine still runs calls, loops and traces correctly after an error
/// (frames unwound, stack top reset).
void expectReusable(Engine &E) {
  Outcome X = evalIn(E, "function sq(x) { return x * x; }\n"
                        "var acc = 0;\n"
                        "for (var n = 0; n < 300; ++n) acc = acc + sq(n % 7);\n"
                        "print(acc);");
  ASSERT_TRUE(X.R.ok()) << X.R.Err.describe();
  EXPECT_EQ(X.Out, "3877\n");
}

} // namespace

/// An erroring op and where the error must point. Outside the anonymous
/// namespace: gtest's parameterized-test factory stores one by value.
struct ErrorCase {
  const char *Name;
  const char *Src;
  ErrorKind Kind;
  uint32_t Line;
  uint32_t Col;
};

namespace {

// Each erroring op sits in a callee that a hot loop calls; the error fires
// only at i == 150, long after the loop (and, JIT on, its trace) is hot.
const ErrorCase ErrorCases[] = {
    {"GetPropOnUndefined",
     "function f(o, i) {\n"
     "  if (i == 150) return o.q.r;\n"
     "  return i;\n"
     "}\n"
     "var t = 0;\n"
     "for (var i = 0; i < 200; ++i) t = t + f({}, i);\n",
     ErrorKind::Runtime, 2, 28},
    {"SetPropOnNonObject",
     "function f(o, i) {\n"
     "  var n = i;\n"
     "  if (i == 150) n.x = 1;\n"
     "  return n;\n"
     "}\n"
     "var t = 0;\n"
     "for (var i = 0; i < 200; ++i) t = t + f({}, i);\n",
     ErrorKind::Runtime, 3, 23},
    {"GetElemNonIntegerIndex",
     "var a = [1, 2, 3];\n"
     "function f(i) {\n"
     "  var k = 1;\n"
     "  if (i == 150) k = 1.5;\n"
     "  return a[k];\n"
     "}\n"
     "var t = 0;\n"
     "for (var i = 0; i < 200; ++i) t = t + f(i);\n",
     ErrorKind::Runtime, 5, 13},
    {"CallNonFunction",
     "var g = 3;\n"
     "function h() { return 1; }\n"
     "function f(i) {\n"
     "  var c = h;\n"
     "  if (i == 150) c = g;\n"
     "  return c();\n"
     "}\n"
     "var t = 0;\n"
     "for (var i = 0; i < 200; ++i) t = t + f(i);\n",
     ErrorKind::Runtime, 6, 12},
    {"UnboundedRecursion",
     "function r(n) { return r(n + 1) + 1; }\n"
     "function f(i) {\n"
     "  if (i == 150) return r(0);\n"
     "  return i;\n"
     "}\n"
     "var t = 0;\n"
     "for (var i = 0; i < 200; ++i) t = t + f(i);\n",
     ErrorKind::StackOverflow, 1, 35},
};

} // namespace

class DispatchErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(DispatchErrors, ReportTheErroringOpAndLeaveTheEngineReusable) {
  const ErrorCase &K = GetParam();
  for (bool Jit : {false, true}) {
    SCOPED_TRACE(Jit ? "jit on" : "jit off");
    Engine E(opts(Jit));
    Outcome X = evalIn(E, K.Src);
    ASSERT_FALSE(X.R.ok());
    EXPECT_EQ(X.R.Err.Kind, K.Kind) << X.R.Err.describe();
    EXPECT_EQ(X.R.Err.Line, K.Line) << X.R.Err.describe();
    EXPECT_EQ(X.R.Err.Col, K.Col) << X.R.Err.describe();
    EXPECT_EQ(E.getGlobal("i").toInt(), 150) << "the error stops the loop";
    expectReusable(E);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SpillPoints, DispatchErrors, ::testing::ValuesIn(ErrorCases),
    [](const ::testing::TestParamInfo<ErrorCase> &I) { return I.param.Name; });

TEST(DispatchState, GcScansTemporariesOfEveryFrameInACallChain) {
  // While gc() runs, each frame of top -> c1 -> c2 -> c3 has a freshly
  // allocated string or object sitting on its operand stack. The root scan
  // reads Interpreter::Sp, so it must have been spilled before the native
  // call. A missed temporary is swept; the same-sized strings and object
  // allocated right after the collection then reuse its memory, so reading
  // it prints the wrong text (or trips ASan). No op between the loop edge
  // and gc() spills on its own (IC hits, inline calls), so a stale Sp
  // would be the top frame's.
  const char *Src =
      "function use(s, o, u) { var j = {v: 1}; return s + o.v; }\n"
      "function c3(k) {\n"
      "  var r = use(\"s\" + k, {v: k * 2}, gc());\n"
      "  var j = \"zz\" + 1; j = \"yy\" + 2; j = \"xx\" + 3;\n"
      "  return r;\n"
      "}\n"
      "function c2(k) { return (\"b\" + k) + c3(k); }\n"
      "function c1(k) { return (\"a\" + k) + c2(k); }\n"
      "var out = \"\";\n"
      "for (var i = 0; i < 60; ++i) out = out.length + c1(i);\n"
      "print(out);";
  for (bool Jit : {false, true}) {
    SCOPED_TRACE(Jit ? "jit on" : "jit off");
    Engine E(opts(Jit));
    Outcome X = evalIn(E, Src);
    ASSERT_TRUE(X.R.ok()) << X.R.Err.describe();
    EXPECT_EQ(X.Out, "14a59b59s59118\n");
    EXPECT_GE(E.stats().GCs, 60u);
    expectReusable(E);
  }
}

TEST(DispatchState, LoopEdgeGcScansTheCallersLocals) {
  // The first loop edge inside f services a GC request raised by the
  // allocation of f's local `keep`; nothing has spilled Sp since the top
  // frame started. The collection must still see f's locals.
  const char *Src = "function f(k) {\n"
                    "  var keep = \"k\" + k;\n"
                    "  var junk = 0;\n"
                    "  for (var i = 0; i < 50; ++i) junk = \"j\" + (i % 10);\n"
                    "  return keep + junk;\n"
                    "}\n"
                    "print(f(3));";
  for (bool Jit : {false, true}) {
    SCOPED_TRACE(Jit ? "jit on" : "jit off");
    Engine E(opts(Jit));
    E.context().TheHeap.forceGCNext();
    Outcome X = evalIn(E, Src);
    ASSERT_TRUE(X.R.ok()) << X.R.Err.describe();
    EXPECT_EQ(X.Out, "k3j9\n");
    EXPECT_GE(E.stats().GCs, 1u);
  }
}

namespace {

/// apply(f, x): calls script function f with x through callValue, the way
/// an embedder's callback-taking native does.
Value nativeApply(Interpreter &I, Value, const Value *Args, uint32_t N) {
  if (N < 2)
    return Value::undefined();
  return I.callValue(Args[0], Value::undefined(), &Args[1], 1);
}

} // namespace

TEST(DispatchState, HostNativeReentersScriptThroughCallValue) {
  for (bool Jit : {false, true}) {
    SCOPED_TRACE(Jit ? "jit on" : "jit off");
    Engine E(opts(Jit));
    E.registerNative("apply", nativeApply);
    Outcome X =
        evalIn(E, "function dbl(x) { return x * 2; }\n"
                  "function inc(x) { return apply(dbl, x) + 1; }\n"
                  "var s = 0;\n"
                  "for (var i = 0; i < 300; ++i) s = s + apply(inc, i);\n"
                  "print(s);");
    ASSERT_TRUE(X.R.ok()) << X.R.Err.describe();
    EXPECT_EQ(X.Out, "90000\n");

    // A callback that errors: the nested dispatch unwinds its own frames,
    // the native returns, and the outer dispatch reports the callback's
    // position.
    Outcome Y =
        evalIn(E, "function bad(x) {\n"
                  "  if (x == 250) return x.y.z;\n"
                  "  return x;\n"
                  "}\n"
                  "var u = 0;\n"
                  "for (var j = 0; j < 300; ++j) u = u + apply(bad, j);\n");
    ASSERT_FALSE(Y.R.ok());
    EXPECT_EQ(Y.R.Err.Kind, ErrorKind::Runtime);
    EXPECT_EQ(Y.R.Err.Line, 2u) << Y.R.Err.describe();
    EXPECT_EQ(Y.R.Err.Col, 28u) << Y.R.Err.describe();
    EXPECT_EQ(E.getGlobal("j").toInt(), 250);
    expectReusable(E);
  }
}

TEST(DispatchState, DeadlineExpiresInsideDeepRecursion) {
  // Exponential recursion whose every call runs a short loop: the deadline
  // lands at some loop edge dozens of frames deep.
  for (bool Jit : {false, true}) {
    SCOPED_TRACE(Jit ? "jit on" : "jit off");
    EngineOptions O = opts(Jit);
    O.EvalDeadlineMs = 50;
    Engine E(O);
    Outcome X = evalIn(E, "function f(n) {\n"
                          "  var t = 0;\n"
                          "  for (var k = 0; k < 3; ++k) t = t + k;\n"
                          "  if (n < 2) return t;\n"
                          "  return f(n - 1) + f(n - 2);\n"
                          "}\n"
                          "print(f(60));");
    ASSERT_FALSE(X.R.ok());
    EXPECT_EQ(X.R.Err.Kind, ErrorKind::Timeout) << X.R.Err.describe();
    EXPECT_EQ(X.Out, "");
    expectReusable(E);
  }
}

// --- Exit write-back set ---------------------------------------------------

namespace {

/// Run \p Src with the JIT off and on; both must print \p Want. Returns the
/// JIT-on stats.
VMStats expectSameOutput(const char *Src, const char *Want,
                         EngineOptions On = opts(true)) {
  Engine Off(opts(false));
  Outcome A = evalIn(Off, Src);
  EXPECT_TRUE(A.R.ok()) << A.R.Err.describe();
  EXPECT_EQ(A.Out, Want);
  Engine E(On);
  Outcome B = evalIn(E, Src);
  EXPECT_TRUE(B.R.ok()) << B.R.Err.describe();
  EXPECT_EQ(B.Out, Want);
  return E.stats();
}

} // namespace

TEST(ExitExport, GlobalStoredOnlyByALaterBranch) {
  // The root trace is recorded on the common path and never stores g; the
  // branch trace grown later at the i % 10 == 9 exit does. Exits after that
  // (the final LoopExit is the root's) must write g back.
  VMStats S = expectSameOutput("var g = 0; var s = 0;\n"
                               "for (var i = 0; i < 1000; ++i) {\n"
                               "  if (i % 10 == 9) g = g + i;\n"
                               "  s = s + 1;\n"
                               "}\n"
                               "print(g); print(s);",
                               "50400\n1000\n");
  EXPECT_GE(S.BranchesCompiled, 1u);
}

TEST(ExitExport, GlobalStoredOnlyInsideANestedTree) {
  // Only the inner loop stores h; the outer tree reaches it through a
  // nested tree call, so the outer loop's exits export every global.
  VMStats S = expectSameOutput("var h = 0; var t = 0;\n"
                               "for (var j = 0; j < 50; ++j) {\n"
                               "  for (var k = 0; k < 20; ++k) h = h + 1;\n"
                               "  t = t + j;\n"
                               "}\n"
                               "print(h); print(t);",
                               "1000\n1225\n");
  EXPECT_GE(S.TreeCalls, 1u);
}

TEST(ExitExport, NullStoreIsWrittenBack) {
  // The inner tree's only write to g is a null, which emits no TAR store
  // but changes the exit's type map; the exit must still write g back.
  // Nesting off keeps each inner-tree exit going straight to the
  // interpreter.
  EngineOptions On = opts(true);
  On.EnableNesting = false;
  expectSameOutput("var g = 0; var n = 0;\n"
                   "for (var j = 0; j < 40; ++j) {\n"
                   "  g = 7;\n"
                   "  for (var k = 0; k < 10; ++k) { g = null; n = n + 1; }\n"
                   "  if (g !== null) n = -1000;\n"
                   "}\n"
                   "print(g); print(n);",
                   "null\n400\n", On);
}

TEST(ExitExport, UnchangedDoubleGlobalKeepsItsCellAcrossExits) {
  // Nesting off keeps the outer loop interpreted, so the inner tree is
  // entered and left once per outer iteration. The tree reads d but never
  // stores it: no exit may rebox it into a fresh cell.
  const char *Src = "var n = 0;\n"
                    "for (var j = 0; j < 1500; ++j) {\n"
                    "  for (var k = 0; k < 4; ++k) { if (d < 1) n = n + 1; }\n"
                    "}\n"
                    "print(n); print(d);";
  EngineOptions On = opts(true);
  On.EnableNesting = false;
  Engine E(On);
  ASSERT_TRUE(E.eval("var d = 0.5;").ok());
  uint64_t Cell = E.getGlobal("d").bits();
  size_t HeapBefore = E.context().TheHeap.bytesAllocated();
  Outcome X = evalIn(E, Src);
  ASSERT_TRUE(X.R.ok()) << X.R.Err.describe();
  EXPECT_EQ(X.Out, "6000\n0.5\n");
  EXPECT_GE(E.stats().SideExits, 1000u);
  EXPECT_EQ(E.getGlobal("d").bits(), Cell) << "d was reboxed on an exit";
  // One double cell per exit would be >= 1000 * 16 bytes.
  EXPECT_LT(E.context().TheHeap.bytesAllocated() - HeapBefore, 1000u * 16);
}

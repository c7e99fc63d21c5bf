//===- test_runtime_units.cpp - Helpers, type maps, oracle, stats ------------===//

#include <gtest/gtest.h>

#include <cmath>

#include "api/engine.h"
#include "trace/helpers.h"
#include "trace/oracle.h"
#include "trace/typemap.h"

using namespace tracejit;

TEST(TypeMaps, ObservationMatchesTags) {
  EngineOptions O;
  VMContext Ctx(O);
  EXPECT_EQ(traceTypeOf(Value::makeInt(5)), TraceType::Int);
  EXPECT_EQ(traceTypeOf(Ctx.TheHeap.boxDouble(1.5)), TraceType::Double);
  EXPECT_EQ(traceTypeOf(Value::makeBoolean(true)), TraceType::Boolean);
  EXPECT_EQ(traceTypeOf(Value::null()), TraceType::Null);
  EXPECT_EQ(traceTypeOf(Value::undefined()), TraceType::Undefined);
  Object *Obj = Object::create(Ctx.TheHeap, Ctx.Shapes);
  EXPECT_EQ(traceTypeOf(Value::makeObject(Obj)), TraceType::Object);
  String *S = String::create(Ctx.TheHeap, "x");
  EXPECT_EQ(traceTypeOf(Value::makeString(S)), TraceType::String);
}

TEST(TypeMaps, EqualityIsExact) {
  TypeMap A, B;
  A.NumGlobals = B.NumGlobals = 2;
  A.Types = {TraceType::Int, TraceType::Double, TraceType::Object};
  B.Types = A.Types;
  EXPECT_EQ(A, B);
  B.Types[1] = TraceType::Int;
  EXPECT_NE(A, B);
  B.Types = A.Types;
  B.NumGlobals = 1;
  EXPECT_NE(A, B) << "same types, different globals split";
  EXPECT_EQ(tarOffsetOfSlot(7), 56);
}

TEST(Oracle, KeysDoNotCollide) {
  Oracle O;
  uint64_t G5 = Oracle::globalKey(5);
  uint64_t L5 = Oracle::localKey(/*Script=*/0, /*Local=*/5);
  uint64_t L5b = Oracle::localKey(/*Script=*/1, /*Local=*/5);
  EXPECT_NE(G5, L5);
  EXPECT_NE(L5, L5b);
  O.markDemote(G5);
  EXPECT_TRUE(O.isDemoted(G5));
  EXPECT_FALSE(O.isDemoted(L5));
  O.clear();
  EXPECT_FALSE(O.isDemoted(G5));
}

TEST(Helpers, ToInt32MatchesEcma) {
  EXPECT_EQ(tj_ToInt32D(0.0), 0);
  EXPECT_EQ(tj_ToInt32D(3.99), 3);
  EXPECT_EQ(tj_ToInt32D(-3.99), -3);
  EXPECT_EQ(tj_ToInt32D(4294967296.0), 0);
  EXPECT_EQ(tj_ToInt32D(4294967297.0), 1);
  EXPECT_EQ(tj_ToInt32D(2147483648.0), INT32_MIN);
  EXPECT_EQ(tj_ToInt32D(std::nan("")), 0);
  EXPECT_EQ(tj_ToInt32D(1.0 / 0.0), 0);
  EXPECT_EQ(tj_ToInt32D(-1.0), -1);
}

TEST(Helpers, ShimsRoundTripAllSignatureShapes) {
  // The executor reaches helpers through signature-generic shims; check a
  // representative of each shape used by the trace runtime.
  EngineOptions EO;
  VMContext Ctx(EO);
  const HelperCalls &H = helperCalls();

  // I32(D)
  {
    uint64_t W;
    double D = 5.75;
    memcpy(&W, &D, 8);
    uint64_t Args[1] = {W};
    EXPECT_EQ((int32_t)H.ToInt32D.Shim(H.ToInt32D.Addr, Args), 5);
  }
  // D(D, D)
  {
    uint64_t A, B;
    double X = 7.5, Y = 2.0;
    memcpy(&A, &X, 8);
    memcpy(&B, &Y, 8);
    uint64_t Args[2] = {A, B};
    uint64_t R = H.ModD.Shim(H.ModD.Addr, Args);
    double Out;
    memcpy(&Out, &R, 8);
    EXPECT_EQ(Out, 1.5);
  }
  // Q(Q, D) returning a 64-bit boxed word: BoxDouble.
  {
    uint64_t DW;
    double D = 0.5;
    memcpy(&DW, &D, 8);
    uint64_t Args[2] = {(uint64_t)(uintptr_t)&Ctx, DW};
    uint64_t Bits = H.BoxDouble.Shim(H.BoxDouble.Addr, Args);
    Value V = Value::fromBits(Bits);
    ASSERT_TRUE(V.isDoubleCell());
    EXPECT_EQ(V.numberValue(), 0.5);
  }
  // Q(Q, Q, Q): string concat.
  {
    String *A = Ctx.Atoms.intern("foo");
    String *B = Ctx.Atoms.intern("bar");
    uint64_t Args[3] = {(uint64_t)(uintptr_t)&Ctx, (uint64_t)(uintptr_t)A,
                        (uint64_t)(uintptr_t)B};
    uint64_t R = H.ConcatSS.Shim(H.ConcatSS.Addr, Args);
    EXPECT_EQ(((String *)(uintptr_t)R)->view(), "foobar");
  }
}

TEST(Helpers, ArraySetGrowsAndBoxes) {
  EngineOptions EO;
  VMContext Ctx(EO);
  Object *A = Object::createArray(Ctx.TheHeap, Ctx.Shapes, 2);
  EXPECT_EQ(tj_ArraySetV(&Ctx, A, 10, Value::makeInt(42).bits()), 1);
  EXPECT_EQ(A->arrayLength(), 11u);
  EXPECT_EQ(A->getElement(10).toInt(), 42);
  EXPECT_EQ(tj_ArraySetD(&Ctx, A, 0, 2.5), 1);
  EXPECT_TRUE(A->getElement(0).isDoubleCell());
  EXPECT_EQ(A->getElement(0).numberValue(), 2.5);
  EXPECT_EQ(tj_ArraySetV(&Ctx, A, -1, 0), 0) << "negative index rejected";
}

TEST(Helpers, TruthyDMatchesJs) {
  EXPECT_EQ(tj_TruthyD(0.0), 0);
  EXPECT_EQ(tj_TruthyD(-0.0), 0);
  EXPECT_EQ(tj_TruthyD(std::nan("")), 0);
  EXPECT_EQ(tj_TruthyD(0.001), 1);
  EXPECT_EQ(tj_TruthyD(-5.0), 1);
}

TEST(Stats, ActivityScopesNestLikeTheStateMachine) {
  VMStats S;
  {
    ActivityScope Outer(S, Activity::Interpret, true);
    {
      ActivityScope Inner(S, Activity::Compile, true);
    }
  }
  S.stopTiming();
  // Only sanity: both activities saw some time, nothing negative.
  EXPECT_GE(S.ActivitySeconds[(size_t)Activity::Interpret], 0.0);
  EXPECT_GE(S.ActivitySeconds[(size_t)Activity::Compile], 0.0);
  std::string Report = S.report();
  EXPECT_NE(Report.find("interpret"), std::string::npos);
  EXPECT_NE(Report.find("compile"), std::string::npos);
}

TEST(Stats, ReportContainsFigureCounters) {
  EngineOptions O;
  O.EnableJit = true;
  O.CollectStats = true;
  Engine E(O);
  E.setPrintHook([](const std::string &) {});
  ASSERT_TRUE(E.eval("var s = 0; for (var i = 0; i < 500; ++i) s += i;").ok());
  VMStats S = E.stats();
  EXPECT_GT(S.BytecodesNative, 0u);
  EXPECT_GT(S.TraceEnters, 0u);
  EXPECT_GT(S.LirEmitted, 0u);
  EXPECT_GE(S.LirEmitted, S.LirAfterBackwardFilters)
      << "backward filters never add instructions";
}

//===- test_value.cpp - Tagged values, heap, strings, shapes, objects ------===//

#include <gtest/gtest.h>

#include <cmath>

#include "vm/gc.h"
#include "vm/object.h"
#include "vm/shape.h"
#include "vm/string.h"
#include "vm/value.h"

using namespace tracejit;

TEST(Value, IntTagging) {
  for (int32_t I : {0, 1, -1, 42, INT32_MAX, INT32_MIN, 123456789}) {
    Value V = Value::makeInt(I);
    EXPECT_TRUE(V.isInt());
    EXPECT_FALSE(V.isObject());
    EXPECT_FALSE(V.isDoubleCell());
    EXPECT_FALSE(V.isString());
    EXPECT_FALSE(V.isSpecial());
    EXPECT_EQ(V.toInt(), I);
    EXPECT_EQ(V.numberValue(), (double)I);
  }
}

TEST(Value, SpecialTagging) {
  EXPECT_TRUE(Value::makeBoolean(true).isBoolean());
  EXPECT_TRUE(Value::makeBoolean(true).toBoolean());
  EXPECT_FALSE(Value::makeBoolean(false).toBoolean());
  EXPECT_TRUE(Value::null().isNull());
  EXPECT_TRUE(Value::undefined().isUndefined());
  EXPECT_TRUE(Value().isUndefined()) << "default Value is undefined";
}

TEST(Value, DoubleHandles) {
  Heap H;
  Value V = H.boxDouble(3.25);
  EXPECT_TRUE(V.isDoubleCell());
  EXPECT_FALSE(V.isInt());
  EXPECT_EQ(V.numberValue(), 3.25);
}

TEST(Value, BoxNumberPrefersIntRepresentation) {
  Heap H;
  EXPECT_TRUE(H.boxNumber(7.0).isInt());
  EXPECT_TRUE(H.boxNumber(-3.0).isInt());
  EXPECT_TRUE(H.boxNumber(0.5).isDoubleCell());
  EXPECT_TRUE(H.boxNumber(1e300).isDoubleCell());
  // -0 must stay a double: it is observably different from +0 in JS.
  EXPECT_TRUE(H.boxNumber(-0.0).isDoubleCell());
  EXPECT_TRUE(H.boxNumber((double)INT32_MAX).isInt());
  EXPECT_TRUE(H.boxNumber((double)INT32_MAX + 1).isDoubleCell());
}

TEST(Value, Truthiness) {
  Heap H;
  EXPECT_FALSE(Value::makeInt(0).truthy());
  EXPECT_TRUE(Value::makeInt(1).truthy());
  EXPECT_TRUE(Value::makeInt(-1).truthy());
  EXPECT_FALSE(H.boxDouble(0.0).truthy());
  EXPECT_FALSE(H.boxDouble(std::nan("")).truthy());
  EXPECT_TRUE(H.boxDouble(0.25).truthy());
  EXPECT_FALSE(Value::null().truthy());
  EXPECT_FALSE(Value::undefined().truthy());
  EXPECT_FALSE(Value::makeBoolean(false).truthy());
  EXPECT_TRUE(Value::makeBoolean(true).truthy());
  Value Empty = Value::makeString(String::create(H, ""));
  Value NonEmpty = Value::makeString(String::create(H, "x"));
  EXPECT_FALSE(Empty.truthy());
  EXPECT_TRUE(NonEmpty.truthy());
}

TEST(Value, NumberToString) {
  EXPECT_EQ(numberToString(3.0), "3");
  EXPECT_EQ(numberToString(-17.0), "-17");
  EXPECT_EQ(numberToString(0.5), "0.5");
  EXPECT_EQ(numberToString(std::nan("")), "NaN");
  EXPECT_EQ(numberToString(1.0 / 0.0), "Infinity");
  EXPECT_EQ(numberToString(-1.0 / 0.0), "-Infinity");
}

TEST(Value, NegativeZeroToStringIsZero) {
  // ToString drops the sign of zero; only Object.is and 1 / x tell -0 apart.
  EXPECT_EQ(numberToString(-0.0), "0");
  EXPECT_EQ(numberToString(0.0), "0");
}

TEST(Strings, InternIsIdentity) {
  Heap H;
  AtomTable Atoms(H);
  String *A = Atoms.intern("foo");
  String *B = Atoms.intern("foo");
  String *C = Atoms.intern("bar");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_TRUE(A->isAtom());
  EXPECT_EQ(A->view(), "foo");
}

TEST(Shapes, TransitionSharing) {
  ShapeTree T;
  Heap H;
  AtomTable Atoms(H);
  String *X = Atoms.intern("x");
  String *Y = Atoms.intern("y");

  Shape *S0 = T.emptyShape();
  Shape *S1 = T.transition(S0, X);
  Shape *S1b = T.transition(S0, X);
  EXPECT_EQ(S1, S1b) << "same transition yields the same shape";
  Shape *S2 = T.transition(S1, Y);
  EXPECT_NE(S1, S2);
  EXPECT_EQ(S1->lookup(X), 0);
  EXPECT_EQ(S1->lookup(Y), -1);
  EXPECT_EQ(S2->lookup(X), 0);
  EXPECT_EQ(S2->lookup(Y), 1);
  EXPECT_NE(S1->id(), S2->id());
}

TEST(Objects, PropertiesShareShapes) {
  Heap H;
  ShapeTree T;
  AtomTable Atoms(H);
  String *X = Atoms.intern("x");
  String *Y = Atoms.intern("y");

  Object *A = Object::create(H, T);
  Object *B = Object::create(H, T);
  EXPECT_EQ(A->shape(), B->shape());
  A->setProperty(T, X, Value::makeInt(1));
  B->setProperty(T, X, Value::makeInt(2));
  EXPECT_EQ(A->shape(), B->shape()) << "same creation order -> same shape";
  A->setProperty(T, Y, Value::makeInt(3));
  EXPECT_NE(A->shape(), B->shape());
  EXPECT_EQ(A->getProperty(X).toInt(), 1);
  EXPECT_EQ(A->getProperty(Y).toInt(), 3);
  EXPECT_EQ(B->getProperty(X).toInt(), 2);
  EXPECT_TRUE(B->getProperty(Y).isUndefined());
}

TEST(Objects, DenseArrayGrowth) {
  Heap H;
  ShapeTree T;
  Object *A = Object::createArray(H, T, 0);
  EXPECT_EQ(A->arrayLength(), 0u);
  A->setElement(H, 0, Value::makeInt(10));
  A->setElement(H, 99, Value::makeInt(20));
  EXPECT_EQ(A->arrayLength(), 100u);
  EXPECT_EQ(A->getElement(0).toInt(), 10);
  EXPECT_TRUE(A->getElement(50).isUndefined());
  EXPECT_EQ(A->getElement(99).toInt(), 20);
  EXPECT_TRUE(A->getElement(1000).isUndefined());
}

TEST(GC, CollectsUnreachableCells) {
  Heap H;
  std::vector<Value> Roots;
  H.addRootProvider([&](Marker &M) {
    for (Value &V : Roots)
      M.markValue(V);
  });
  ShapeTree T;
  Object *Live = Object::create(H, T);
  Roots.push_back(Value::makeObject(Live));
  for (int I = 0; I < 1000; ++I)
    H.boxDouble((double)I); // garbage
  size_t Before = H.bytesAllocated();
  H.collect();
  EXPECT_LT(H.bytesAllocated(), Before);
  EXPECT_EQ(Live->kind(), ObjectKind::Plain) << "live object survives";
}

TEST(GC, MarksThroughObjectGraphs) {
  Heap H;
  ShapeTree T;
  AtomTable Atoms(H);
  std::vector<Value> Roots;
  H.addRootProvider([&](Marker &M) {
    for (Value &V : Roots)
      M.markValue(V);
  });

  Object *Outer = Object::create(H, T);
  Object *Inner = Object::createArray(H, T, 3);
  Inner->setElement(H, 0, H.boxDouble(2.5));
  Outer->setProperty(T, Atoms.intern("inner"), Value::makeObject(Inner));
  Roots.push_back(Value::makeObject(Outer));

  H.collect();
  Value Got = Outer->getProperty(Atoms.intern("inner"));
  ASSERT_TRUE(Got.isObject());
  EXPECT_EQ(Got.toObject()->getElement(0).numberValue(), 2.5);
}

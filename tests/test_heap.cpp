//===- test_heap.cpp - The block heap: size classes, sweep, accounting ----===//
//
// The heap keeps cells in size-classed 64 KiB blocks, threads swept cells
// onto free lists and releases empty blocks. These tests pin what that
// layout must not change (alignment, the bytesAllocated() formula that
// drives the GC trigger, the collector's reachability) and what it adds
// (free-cell reuse, the large-cell list, block release, ASan poisoning).
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "vm/gc.h"
#include "vm/object.h"
#include "vm/string.h"

using namespace tracejit;

namespace {

/// A heap whose only roots are the values in Roots.
struct RootedHeap {
  Heap H;
  ShapeTree Shapes;
  std::vector<Value> Roots;
  RootedHeap() {
    H.addRootProvider([this](Marker &M) {
      for (Value &V : Roots)
        M.markValue(V);
    });
  }
};

bool aligned8(const void *P) { return ((uintptr_t)P & 7) == 0; }

} // namespace

TEST(Heap, SweptCellsAreReusedWithoutANewBlock) {
  RootedHeap R;
  constexpr int N = 20000;
  std::set<const void *> Round1;
  for (int I = 0; I < N; ++I) {
    Value V = R.H.boxDouble(I + 0.5);
    Round1.insert(V.toDoubleCell());
    if (I % 4 == 0)
      R.Roots.push_back(V); // one in four survives, in every block
  }
  size_t Blocks = R.H.blockCount();
  ASSERT_GE(Blocks, 2u) << "N doubles should span several blocks";
  R.H.collect();
  EXPECT_EQ(R.H.blockCount(), Blocks) << "no block is wholly empty";
  for (int I = 0; I < N - N / 4; ++I) {
    DoubleCell *D = R.H.allocDouble(-1.0 * I);
    EXPECT_EQ(Round1.count(D), 1u) << "cell " << I << " is not a freed one";
  }
  EXPECT_EQ(R.H.blockCount(), Blocks);
  for (size_t I = 0; I < R.Roots.size(); ++I)
    ASSERT_EQ(R.Roots[I].numberValue(), 4.0 * I + 0.5);
}

TEST(Heap, EmptyBlocksAreReleasedKeepingOneSparePerClass) {
  RootedHeap R;
  for (int I = 0; I < 5 * 4096; ++I)
    R.H.boxDouble(I + 0.5);
  ASSERT_EQ(R.H.blockCount(), 5u);
  R.H.collect();
  // The current block restarts its carving; one more is the spare.
  EXPECT_EQ(R.H.blockCount(), 2u);
  EXPECT_EQ(R.H.bytesAllocated(), 0u);
}

TEST(Heap, DeadObjectsFreeTheirSlotsAndElements) {
  RootedHeap R;
  AtomTable Atoms(R.H);
  String *Names[8];
  for (int K = 0; K < 8; ++K) {
    std::string Name = "p";
    Name += std::to_string(K);
    Names[K] = Atoms.intern(Name);
  }
  auto Churn = [&] {
    for (int I = 0; I < 200; ++I) {
      Object *O = Object::create(R.H, R.Shapes);
      for (int K = 0; K < 8; ++K)
        O->setProperty(R.Shapes, Names[K], Value::makeInt(K));
      Object *A = Object::createArray(R.H, R.Shapes, 0);
      for (uint32_t K = 0; K < 2000; ++K)
        A->setElement(R.H, K, Value::makeInt((int32_t)K));
    }
    R.H.collect();
  };
  Churn(); // warm the allocator up
#ifdef __GLIBC__
  // Each round allocates ~3.3 MB of slot and element storage outside the
  // cells. Without ~Object in the sweep it would all stay allocated. (Under
  // ASan malloc is intercepted and these numbers do not move; its leak
  // check covers the same ground there.)
  size_t Before = mallinfo2().uordblks;
  for (int Round = 0; Round < 4; ++Round)
    Churn();
  size_t After = mallinfo2().uordblks;
  EXPECT_LT(After, Before + 1024 * 1024);
#else
  Churn();
#endif
}

TEST(Heap, LargeStringLivesWhileRootedAndIsCollectedOnceUnrooted) {
  RootedHeap R;
  std::string Text(1000, 'x');
  Text[999] = 'y';
  String *S = String::create(R.H, Text);
  ASSERT_GT(sizeof(String) + Text.size() + 1, Heap::MaxSmallCell);
  EXPECT_EQ(R.H.largeCellCount(), 1u);
  EXPECT_EQ(R.H.blockCount(), 0u) << "a large cell takes no block";
  R.Roots.push_back(Value::makeString(S));
  for (int I = 0; I < 1000; ++I)
    R.H.boxDouble(I + 0.25); // garbage beside it
  R.H.collect();
  ASSERT_EQ(R.H.largeCellCount(), 1u);
  EXPECT_EQ(S->view(), Text);
  EXPECT_EQ(R.H.bytesAllocated(), sizeof(String) + Text.size());
  R.Roots.clear();
  R.H.collect();
  EXPECT_EQ(R.H.largeCellCount(), 0u);
  EXPECT_EQ(R.H.bytesAllocated(), 0u);
}

TEST(Heap, EveryCellKindIsEightByteAligned) {
  RootedHeap R;
  for (int I = 0; I < 100; ++I) {
    EXPECT_TRUE(aligned8(R.H.allocDouble(I)));
    EXPECT_TRUE(aligned8(Object::create(R.H, R.Shapes)));
    EXPECT_TRUE(aligned8(Object::createArray(R.H, R.Shapes, (uint32_t)I)));
    EXPECT_TRUE(aligned8(Object::createFunction(R.H, R.Shapes, nullptr)));
  }
  for (size_t Len = 0; Len < 400; ++Len)
    EXPECT_TRUE(aligned8(String::create(R.H, std::string(Len, 'a'))))
        << "length " << Len;
  R.H.collect(); // and after reuse from the free lists
  for (size_t Len = 0; Len < 400; ++Len)
    EXPECT_TRUE(aligned8(String::create(R.H, std::string(Len, 'b'))))
        << "length " << Len;
}

TEST(Heap, BytesAllocatedKeepsThePerCellFormula) {
  RootedHeap R;
  size_t Want = 0;
  for (int I = 0; I < 300; ++I) {
    R.Roots.push_back(R.H.boxDouble(I + 0.5));
    Want += sizeof(DoubleCell);
    std::string Text(I, 'z');
    R.Roots.push_back(Value::makeString(String::create(R.H, Text)));
    Want += sizeof(String) + Text.size() + 1;
    R.Roots.push_back(Value::makeObject(Object::create(R.H, R.Shapes)));
    Want += sizeof(Object);
  }
  EXPECT_EQ(R.H.bytesAllocated(), Want);
  // A sweep recounts what survives, strings without their terminator.
  R.H.collect();
  EXPECT_EQ(R.H.bytesAllocated(), Want - 300);
}

TEST(Heap, DestructorReleasesEveryBlock) {
  size_t Before = Heap::blocksInProcess();
  {
    RootedHeap R;
    for (int I = 0; I < 10000; ++I) {
      R.H.boxDouble(I);
      Object::create(R.H, R.Shapes);
      String::create(R.H, std::string(I % 300, 'q'));
    }
    R.H.collect();
    for (int I = 0; I < 5000; ++I)
      R.Roots.push_back(R.H.boxDouble(I + 0.5));
    EXPECT_GT(Heap::blocksInProcess(), Before);
  }
  EXPECT_EQ(Heap::blocksInProcess(), Before);
}

TEST(Heap, SurvivorsKeepTheirContentsAcrossManyCollections) {
  // A random mix of kinds and sizes, a random half of it kept alive, over
  // many collections: every survivor must read back what it was made with.
  RootedHeap R;
  std::mt19937 Rng(7);
  for (int Round = 0; Round < 20; ++Round) {
    for (int I = 0; I < 2000; ++I) {
      int What = (int)(Rng() % 3);
      Value V;
      if (What == 0) {
        V = R.H.boxDouble(Round * 10000.0 + I + 0.5);
      } else if (What == 1) {
        std::string Text(Rng() % 320, (char)('a' + Rng() % 26));
        V = Value::makeString(String::create(R.H, Text));
      } else {
        Object *A = Object::createArray(R.H, R.Shapes, 0);
        A->setElement(R.H, 0, Value::makeInt(Round * 10000 + I));
        V = Value::makeObject(A);
      }
      if (Rng() % 2)
        R.Roots.push_back(V);
    }
    // Drop a random third of the roots, then collect.
    for (size_t I = 0; I < R.Roots.size(); ++I)
      if (Rng() % 3 == 0)
        R.Roots[I] = Value::undefined();
    R.H.collect();
    for (const Value &V : R.Roots) {
      if (V.isDoubleCell()) {
        double D = V.numberValue();
        ASSERT_EQ(D - (int64_t)D, 0.5);
      } else if (V.isString()) {
        std::string_view S = V.toString()->view();
        ASSERT_EQ(S.find_first_not_of(S.empty() ? 'a' : S[0]),
                  std::string_view::npos);
      } else if (V.isObject()) {
        ASSERT_TRUE(V.toObject()->getElement(0).isInt());
      }
    }
  }
}

TEST(Heap, SweptCellIsPoisonedUnderAsan) {
#ifdef TRACEJIT_ASAN
  RootedHeap R;
  DoubleCell *Dead = R.H.allocDouble(1.5);
  Value Live = R.H.boxDouble(2.5);
  R.Roots.push_back(Live);
  EXPECT_FALSE(__asan_address_is_poisoned(Dead));
  R.H.collect();
  EXPECT_TRUE(__asan_address_is_poisoned(Dead));
  EXPECT_TRUE(__asan_address_is_poisoned(&Dead->Val));
  EXPECT_FALSE(__asan_address_is_poisoned(Live.toDoubleCell()));
  // Reallocation hands the cell back unpoisoned.
  DoubleCell *Again = R.H.allocDouble(3.5);
  EXPECT_EQ(Again, Dead);
  EXPECT_FALSE(__asan_address_is_poisoned(&Again->Val));
#else
  GTEST_SKIP() << "AddressSanitizer builds only";
#endif
}

TEST(UnitStrings, AreInternedAtomsUsableAsPropertyKeys) {
  RootedHeap R;
  AtomTable Atoms(R.H);
  String *A = Atoms.unitString('a');
  EXPECT_EQ(A->view(), "a");
  EXPECT_EQ(Atoms.unitString('a'), A) << "made once";
  EXPECT_EQ(Atoms.intern("a"), A) << "the same atom a literal \"a\" gets";
  EXPECT_EQ(Atoms.unitString(0)->length(), 1u);
  EXPECT_EQ(Atoms.unitString(255)->view(), "\xff");
  EXPECT_EQ(Atoms.emptyString()->length(), 0u);
  Object *O = Object::create(R.H, R.Shapes);
  O->setProperty(R.Shapes, Atoms.intern("a"), Value::makeInt(7));
  EXPECT_EQ(O->getProperty(A).toInt(), 7);
  R.H.collect(); // rooted by the atom table, not by Roots
  EXPECT_EQ(Atoms.unitString('a'), A);
  EXPECT_EQ(A->view(), "a");
}

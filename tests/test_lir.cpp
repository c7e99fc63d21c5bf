//===- test_lir.cpp - LIR buffer, filters, backward passes -------------------===//

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "jit/fragment.h"
#include "lir/backward.h"
#include "lir/filters.h"
#include "lir/lir.h"
#include "support/arena.h"
#include "trace/helpers.h"

using namespace tracejit;

namespace {

struct PipelineFixture : ::testing::Test {
  Arena A;
  LirBuffer Buf{A};
  CseFilter Cse{&Buf};
  ExprFilter Expr{&Cse, &helperCalls().ToInt32D};
  LirWriter &W = Expr;
  Fragment Frag;

  ExitDescriptor *exit(uint32_t Sp = 0) {
    ExitDescriptor *E = Frag.makeExit();
    E->Sp = Sp;
    return E;
  }
};

} // namespace

TEST_F(PipelineFixture, ConstantFoldingInt) {
  LIns *R = W.ins2(LOp::AddI, W.insImmI(2), W.insImmI(3));
  ASSERT_EQ(R->Op, LOp::ImmI);
  EXPECT_EQ(R->Imm.ImmI32, 5);
  EXPECT_EQ(W.ins2(LOp::MulI, W.insImmI(6), W.insImmI(7))->Imm.ImmI32, 42);
  EXPECT_EQ(W.ins2(LOp::ShlI, W.insImmI(1), W.insImmI(10))->Imm.ImmI32, 1024);
  EXPECT_EQ(W.ins2(LOp::LtI, W.insImmI(1), W.insImmI(2))->Imm.ImmI32, 1);
}

TEST_F(PipelineFixture, ConstantFoldingDouble) {
  LIns *R = W.ins2(LOp::MulD, W.insImmD(1.5), W.insImmD(4.0));
  ASSERT_EQ(R->Op, LOp::ImmD);
  EXPECT_EQ(R->Imm.ImmDbl, 6.0);
  EXPECT_EQ(W.ins1(LOp::I2D, W.insImmI(7))->Imm.ImmDbl, 7.0);
  EXPECT_EQ(W.ins1(LOp::D2I, W.insImmD(7.9))->Imm.ImmI32, 7);
}

TEST_F(PipelineFixture, AlgebraicIdentities) {
  LIns *Tar = W.ins0(LOp::ParamTar);
  LIns *X = W.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  EXPECT_EQ(W.ins2(LOp::AddI, X, W.insImmI(0)), X) << "x + 0 = x";
  EXPECT_EQ(W.ins2(LOp::MulI, X, W.insImmI(1)), X) << "x * 1 = x";
  // a - a = 0 is called out explicitly in §5.1.
  LIns *Z = W.ins2(LOp::SubI, X, X);
  ASSERT_EQ(Z->Op, LOp::ImmI);
  EXPECT_EQ(Z->Imm.ImmI32, 0);
  LIns *AndZ = W.ins2(LOp::AndI, X, W.insImmI(0));
  EXPECT_EQ(AndZ->Imm.ImmI32, 0);
}

TEST_F(PipelineFixture, IntDoubleNarrowing) {
  // "LIR that converts an INT to a DOUBLE and then back again would be
  // removed by this filter." (§5.1)
  LIns *Tar = W.ins0(LOp::ParamTar);
  LIns *X = W.insLoad(LOp::LdI, Tar, 8, Acc::Tar);
  LIns *RoundTrip = W.ins1(LOp::D2I, W.ins1(LOp::I2D, X));
  EXPECT_EQ(RoundTrip, X);
}

TEST_F(PipelineFixture, CseDeduplicatesPureExpressions) {
  LIns *Tar = W.ins0(LOp::ParamTar);
  LIns *X = W.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  LIns *Y = W.insLoad(LOp::LdI, Tar, 8, Acc::Tar);
  LIns *S1 = W.ins2(LOp::AddI, X, Y);
  LIns *S2 = W.ins2(LOp::AddI, X, Y);
  EXPECT_EQ(S1, S2);
  // Identical immediates unify as well.
  EXPECT_EQ(W.insImmI(42), W.insImmI(42));
  EXPECT_EQ(W.insImmQ(0x1234), W.insImmQ(0x1234));
}

TEST_F(PipelineFixture, CseLoadsFollowLocationClassGenerations) {
  LIns *Tar = W.ins0(LOp::ParamTar);
  LIns *L1 = W.insLoad(LOp::LdI, Tar, 16, Acc::Tar);
  EXPECT_EQ(W.insLoad(LOp::LdI, Tar, 16, Acc::Tar), L1)
      << "repeated load with no intervening store is CSE'd";
  W.insStore(LOp::StI, W.insImmI(1), Tar, 24, Acc::Tar);
  EXPECT_EQ(W.insLoad(LOp::LdI, Tar, 16, Acc::Tar), L1)
      << "a store to another TAR slot keeps the cached load";
  W.insStore(LOp::StI, W.insImmI(1), Tar, 16, Acc::Tar);
  LIns *L2 = W.insLoad(LOp::LdI, Tar, 16, Acc::Tar);
  EXPECT_NE(L2, L1) << "a store to the same slot starts a new generation";

  LIns *Obj = W.insLoad(LOp::LdQ, Tar, 8, Acc::Tar);
  LIns *H1 = W.insLoad(LOp::LdI, Obj, 0, Acc::Header);
  W.insStore(LOp::StI, W.insImmI(2), Tar, 32, Acc::Tar);
  EXPECT_EQ(W.insLoad(LOp::LdI, Obj, 0, Acc::Header), H1)
      << "TAR stores leave the heap";
  W.insStore(LOp::StI, W.insImmI(2), Obj, 4, Acc::Header);
  LIns *H2 = W.insLoad(LOp::LdI, Obj, 0, Acc::Header);
  EXPECT_NE(H2, H1) << "a header store starts a new header generation";
  EXPECT_EQ(W.insLoad(LOp::LdI, Tar, 16, Acc::Tar), L2)
      << "... and leaves the TAR";

  CallInfo Impure;
  Impure.Name = "impure";
  Impure.Ret = LTy::Void;
  W.insCall(&Impure, nullptr, 0);
  LIns *H3 = W.insLoad(LOp::LdI, Obj, 0, Acc::Header);
  EXPECT_NE(H3, H2) << "an impure call writes every heap class by default";
  EXPECT_EQ(W.insLoad(LOp::LdI, Tar, 16, Acc::Tar), L2)
      << "calls never write the TAR";

  Fragment Inner;
  W.insTreeCall(&Inner, exit(), exit());
  EXPECT_NE(W.insLoad(LOp::LdI, Tar, 16, Acc::Tar), L2)
      << "the inner tree may have written any slot";
  EXPECT_NE(W.insLoad(LOp::LdI, Obj, 0, Acc::Header), H3) << "... and the heap";

  LIns *Flag = W.insImmQ(0x1000);
  EXPECT_NE(W.insLoad(LOp::LdI, Flag, 0, Acc::Vm),
            W.insLoad(LOp::LdI, Flag, 0, Acc::Vm))
      << "absolute (ImmQ-based) loads are volatile VM channels";

  LIns *X = W.insLoad(LOp::LdI, Tar, 40, Acc::Tar);
  LIns *Y = W.insLoad(LOp::LdI, Tar, 48, Acc::Tar);
  LIns *O1 = W.insOvf(LOp::AddOvI, X, Y, exit());
  EXPECT_EQ(Cse.guardsEliminated(), 0u);
  EXPECT_EQ(W.insOvf(LOp::AddOvI, X, Y, exit()), O1)
      << "a repeated overflow-checked op reuses the checked result";
  EXPECT_EQ(Cse.guardsEliminated(), 1u);
}

TEST_F(PipelineFixture, RedundantGuardsDropped) {
  LIns *Tar = W.ins0(LOp::ParamTar);
  LIns *X = W.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  LIns *C = W.ins2(LOp::EqI, X, W.insImmI(3));
  LIns *G1 = W.insGuard(LOp::GuardT, C, exit());
  EXPECT_NE(G1, nullptr);
  LIns *G2 = W.insGuard(LOp::GuardT, C, exit());
  EXPECT_EQ(G2, nullptr) << "same condition, same polarity: proven already";
  LIns *G3 = W.insGuard(LOp::GuardF, C, exit());
  EXPECT_NE(G3, nullptr) << "opposite polarity is a different guard";
}

// --- Dominated-guard elimination in the CSE filter ----------------------------

TEST_F(PipelineFixture, CseDropsDominatedGuard) {
  LIns *Tar = W.ins0(LOp::ParamTar);
  LIns *L = W.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  LIns *C = W.ins2(LOp::LtI, L, W.insImmI(5));
  LIns *G1 = W.insGuard(LOp::GuardT, C, exit());
  LIns *G2 = W.insGuard(LOp::GuardT, C, exit());
  EXPECT_NE(G1, nullptr);
  EXPECT_EQ(G2, nullptr) << "re-check of a guarded condition can't fire";
  EXPECT_EQ(Cse.guardsEliminated(), 1u);
}

TEST_F(PipelineFixture, CseKeepsOppositePolarityGuard) {
  LIns *Tar = W.ins0(LOp::ParamTar);
  LIns *L = W.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  LIns *C = W.ins2(LOp::EqI, L, W.insImmI(0));
  W.insGuard(LOp::GuardT, C, exit());
  EXPECT_NE(W.insGuard(LOp::GuardF, C, exit()), nullptr)
      << "GuardF(c) is not subsumed by GuardT(c)";
  EXPECT_EQ(Cse.guardsEliminated(), 0u);
}

TEST_F(PipelineFixture, CseKeepsGuardAcrossHeapClobber) {
  // load; guard; store to the same location; reload; same-shaped guard.
  // The store starts a new generation: the reload and its guard must both
  // be emitted.
  LIns *Tar = W.ins0(LOp::ParamTar);
  LIns *Base = W.insLoad(LOp::LdQ, Tar, 8, Acc::Tar);
  LIns *Five = W.insImmI(5);
  LIns *L1 = W.insLoad(LOp::LdI, Base, 0, Acc::Slots);
  W.insGuard(LOp::GuardT, W.ins2(LOp::LtI, L1, Five), exit());
  W.insStore(LOp::StI, Five, Base, 0, Acc::Slots);
  LIns *L2 = W.insLoad(LOp::LdI, Base, 0, Acc::Slots);
  LIns *G2 = W.insGuard(LOp::GuardT, W.ins2(LOp::LtI, L2, Five), exit());
  EXPECT_NE(L2, L1) << "clobbered load must not merge";
  EXPECT_NE(G2, nullptr);
  EXPECT_EQ(Cse.guardsEliminated(), 0u);
}

TEST_F(PipelineFixture, CseMergesRedundantLoadAndGuardWithoutClobber) {
  // Same stream as above minus the store, plus a store to an unrelated TAR
  // slot: the reload merges into the first load, the condition into the
  // first condition, and the second guard is dominated.
  LIns *Tar = W.ins0(LOp::ParamTar);
  LIns *Base = W.insLoad(LOp::LdQ, Tar, 8, Acc::Tar);
  LIns *Five = W.insImmI(5);
  LIns *L1 = W.insLoad(LOp::LdI, Base, 0, Acc::Slots);
  LIns *C1 = W.ins2(LOp::LtI, L1, Five);
  LIns *G1 = W.insGuard(LOp::GuardT, C1, exit());
  W.insStore(LOp::StI, Five, Tar, 16, Acc::Tar);
  LIns *L2 = W.insLoad(LOp::LdI, Base, 0, Acc::Slots);
  LIns *C2 = W.ins2(LOp::LtI, L2, Five);
  LIns *G2 = W.insGuard(LOp::GuardT, C2, exit());
  EXPECT_EQ(L2, L1);
  EXPECT_EQ(C2, C1);
  EXPECT_NE(G1, nullptr);
  EXPECT_EQ(G2, nullptr);
  EXPECT_EQ(Cse.guardsEliminated(), 1u);
}

TEST_F(PipelineFixture, CseTreeCallInvalidatesTarSlots) {
  // TAR loads must not merge across a TreeCall: the inner tree runs over
  // the same activation record and may write any slot.
  Fragment Inner;
  LIns *Tar = W.ins0(LOp::ParamTar);
  LIns *L1 = W.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  W.insTreeCall(&Inner, exit(), exit());
  LIns *L2 = W.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  EXPECT_NE(L1, L2) << "inner tree may have written slot 0";
  EXPECT_EQ(Buf.instructions().back(), L2);
}

TEST_F(PipelineFixture, GuardOnProvenConstantDisappears) {
  LIns *G = W.insGuard(LOp::GuardT, W.insImmI(1), exit());
  EXPECT_EQ(G, nullptr);
}

TEST_F(PipelineFixture, OverflowOpsFoldWhenSafe) {
  LIns *R = W.insOvf(LOp::AddOvI, W.insImmI(1000), W.insImmI(2000), exit());
  ASSERT_EQ(R->Op, LOp::ImmI);
  EXPECT_EQ(R->Imm.ImmI32, 3000);
  // Overflowing constants must NOT fold (the guard matters).
  LIns *Big = W.insOvf(LOp::MulOvI, W.insImmI(1 << 20), W.insImmI(1 << 20),
                       exit());
  EXPECT_EQ(Big->Op, LOp::MulOvI);
}

TEST_F(PipelineFixture, MulOfNegativeAndZeroIsNotFoldedToIntZero) {
  // -2 * 0 is -0 in JavaScript: no int constant holds it, so neither the
  // checked nor the plain multiply folds to 0 on that input.
  LIns *R = W.insOvf(LOp::MulOvI, W.insImmI(-2), W.insImmI(0), exit());
  EXPECT_EQ(R->Op, LOp::MulOvI);
  LIns *Tar = W.ins0(LOp::ParamTar);
  LIns *X = W.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  EXPECT_EQ(W.ins2(LOp::MulI, X, W.insImmI(0))->Op, LOp::MulI)
      << "x * 0 is -0 for a negative x";
  LIns *P = W.insOvf(LOp::MulOvI, W.insImmI(2), W.insImmI(0), exit());
  ASSERT_EQ(P->Op, LOp::ImmI);
  EXPECT_EQ(P->Imm.ImmI32, 0);
}

// --- Location classes: what a write leaves cached ----------------------------

namespace {

/// One object's shape guard, as the recorder emits it.
struct ShapeGuardFixture : PipelineFixture {
  LIns *Tar = W.ins0(LOp::ParamTar);
  LIns *Obj = W.insLoad(LOp::LdQ, Tar, 8, Acc::Tar);
  LIns *ShapeImm = W.insImmQ(0x5000);

  /// Load the shape and guard it; the guard, or null when CSE dropped it.
  LIns *guardShape() {
    LIns *Shape = W.insLoad(LOp::LdQ, Obj, 0, Acc::Header);
    return W.insGuard(LOp::GuardT, W.ins2(LOp::EqQ, Shape, ShapeImm), exit());
  }
  /// Call helper \p CI on the object (its second argument), with
  /// placeholder constants of the right type elsewhere.
  LIns *call(const CallInfo &CI) {
    LIns *Args[6] = {};
    for (uint32_t K = 0; K < CI.NArgs; ++K)
      Args[K] = K == 1                    ? Obj
                : CI.Args[K] == LTy::I32 ? W.insImmI(1)
                : CI.Args[K] == LTy::D   ? W.insImmD(0.5)
                                         : W.insImmQ(0x1000);
    return W.insCall(&CI, Args, CI.NArgs);
  }
};

} // namespace

TEST_F(ShapeGuardFixture, SlotStoreAndBoxingLeaveTheShapeGuard) {
  ASSERT_NE(guardShape(), nullptr);
  LIns *Slots = W.insLoad(LOp::LdQ, Obj, 16, Acc::Header);
  W.insStore(LOp::StQ, W.insImmQ(1), Slots, 8, Acc::Slots);
  LIns *BoxArgs[2] = {W.insImmQ(0x1000), W.insImmD(0.5)};
  W.insCall(&helperCalls().BoxDouble, BoxArgs, 2);
  EXPECT_EQ(guardShape(), nullptr)
      << "a named-slot store and js_BoxDouble write no header";
  EXPECT_EQ(W.insLoad(LOp::LdQ, Obj, 16, Acc::Header), Slots)
      << "... so the slots pointer stays cached too";
  EXPECT_EQ(Cse.guardsEliminated(), 1u);
}

TEST_F(ShapeGuardFixture, HeaderWritersKeepBothShapeGuards) {
  ASSERT_NE(guardShape(), nullptr);
  call(helperCalls().InitProp);
  EXPECT_NE(guardShape(), nullptr) << "js_InitProp may move the shape";
  call(helperCalls().ArraySetV);
  EXPECT_NE(guardShape(), nullptr) << "js_Array_set writes the header";
  call(helperCalls().ArrayPushV);
  EXPECT_NE(guardShape(), nullptr) << "js_Array_push writes the header";
  Fragment Inner;
  W.insTreeCall(&Inner, exit(), exit());
  EXPECT_NE(guardShape(), nullptr) << "a tree call writes every class";
  EXPECT_EQ(Cse.guardsEliminated(), 0u);
}

TEST_F(ShapeGuardFixture, SlotLoadAfterAStoreToItReloads) {
  LIns *Slots = W.insLoad(LOp::LdQ, Obj, 16, Acc::Header);
  LIns *V1 = W.insLoad(LOp::LdQ, Slots, 8, Acc::Slots);
  EXPECT_EQ(W.insLoad(LOp::LdQ, Slots, 8, Acc::Slots), V1);
  LIns *Elems = W.insLoad(LOp::LdQ, Obj, 24, Acc::Header);
  W.insStore(LOp::StQ, W.insImmQ(1), Elems, 0, Acc::Elems);
  EXPECT_EQ(W.insLoad(LOp::LdQ, Slots, 8, Acc::Slots), V1)
      << "an element store leaves named slots";
  W.insStore(LOp::StQ, W.insImmQ(3), Slots, 8, Acc::Slots);
  EXPECT_NE(W.insLoad(LOp::LdQ, Slots, 8, Acc::Slots), V1)
      << "a store to the slot starts a new generation";
}

TEST_F(ShapeGuardFixture, ReadOnlyCellsSurviveStoresAndHelpers) {
  LIns *Str = W.insLoad(LOp::LdQ, Tar, 16, Acc::Tar);
  LIns *Len = W.insLoad(LOp::LdI, Str, 4, Acc::ReadOnly);
  call(helperCalls().InitProp);
  Fragment Inner;
  W.insTreeCall(&Inner, exit(), exit());
  EXPECT_NE(W.insLoad(LOp::LdI, Str, 4, Acc::ReadOnly), Len)
      << "a tree call writes every class, read-only ones included";
  LIns *Len2 = W.insLoad(LOp::LdI, Str, 4, Acc::ReadOnly);
  call(helperCalls().InitProp);
  W.insStore(LOp::StQ, W.insImmQ(3), Obj, 32, Acc::Slots);
  EXPECT_EQ(W.insLoad(LOp::LdI, Str, 4, Acc::ReadOnly), Len2)
      << "no store or helper writes an immutable cell";
}

// --- The ToInt32 sum fold ------------------------------------------------------

namespace {

/// Two int TAR slots under the forward pipeline.
struct FoldFixture : PipelineFixture {
  LIns *Tar = W.ins0(LOp::ParamTar);
  LIns *X = W.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  LIns *Y = W.insLoad(LOp::LdI, Tar, 8, Acc::Tar);

  LIns *toInt32(LIns *D) {
    LIns *Args[1] = {D};
    return W.insCall(&helperCalls().ToInt32D, Args, 1);
  }
  LIns *d(LIns *I) { return W.ins1(LOp::I2D, I); }
};

} // namespace

TEST_F(FoldFixture, SumOfIntsBecomesIntArithmetic) {
  LIns *Sum = W.ins2(LOp::AddD, d(X), d(Y));
  LIns *R = toInt32(Sum);
  ASSERT_EQ(R->Op, LOp::AddI);
  EXPECT_EQ(R->A, X);
  EXPECT_EQ(R->B, Y);
  // (x - y) - 7 + u, u a uint32 (>>> result): still exact, still folds.
  LIns *U = W.ins2(LOp::UshrI, X, W.insImmI(1));
  LIns *Chain = W.ins2(
      LOp::AddD,
      W.ins2(LOp::SubD, W.ins2(LOp::SubD, d(X), d(Y)), W.insImmD(7)),
      W.ins1(LOp::UI2D, U));
  LIns *C = toInt32(Chain);
  ASSERT_EQ(C->Op, LOp::AddI);
  EXPECT_EQ(C->B, U);
  ASSERT_EQ(C->A->Op, LOp::SubI);
  EXPECT_EQ(C->A->B->Op, LOp::ImmI);
  EXPECT_EQ(C->A->B->Imm.ImmI32, 7);
  // -0 is an int32-valued leaf (as 0): ToInt32 of the sum is the same.
  EXPECT_EQ(toInt32(W.ins2(LOp::AddD, d(X), W.insImmD(-0.0))), X);
}

TEST_F(FoldFixture, InexactOrNonIntTreesStayCalls) {
  auto IsCall = [](const LIns *I) { return I->Op == LOp::Call; };
  EXPECT_TRUE(IsCall(toInt32(W.ins2(LOp::AddD, d(X), W.insImmD(0.5)))))
      << "a fractional leaf";
  EXPECT_TRUE(IsCall(toInt32(W.ins2(LOp::AddD, d(X), W.insImmD(4294967296.0)))))
      << "a leaf outside int32";
  EXPECT_TRUE(IsCall(toInt32(W.ins2(LOp::AddD, d(X), W.insImmD(NAN)))))
      << "a NaN leaf";
  EXPECT_TRUE(IsCall(toInt32(W.ins2(LOp::MulD, d(X), d(Y)))))
      << "a product of two int32s is not exact in a double";
  LIns *Ld = W.insLoad(LOp::LdD, Tar, 16, Acc::Tar);
  EXPECT_TRUE(IsCall(toInt32(W.ins2(LOp::AddD, d(X), Ld))))
      << "a double of unknown value";
  // Eight levels fold; nine could hold 2^9 leaves and do not.
  LIns *Deep = d(X);
  for (int K = 0; K < 8; ++K)
    Deep = W.ins2(LOp::AddD, Deep, d(Y));
  EXPECT_FALSE(IsCall(toInt32(Deep)));
  EXPECT_TRUE(IsCall(toInt32(W.ins2(LOp::AddD, Deep, d(Y)))));
}

TEST_F(FoldFixture, OnlyTheToInt32HelperFolds) {
  LIns *Sum = W.ins2(LOp::AddD, d(X), d(Y));
  LIns *Args[1] = {Sum};
  EXPECT_EQ(W.insCall(&helperCalls().TruthyD, Args, 1)->Op, LOp::Call);
}

TEST(DeadStoreElim, RemovesStoresAboveExitStackDepth) {
  // "Stores to locations that are off the top of the interpreter stack at
  // future exits are also dead." (§5.1)
  Arena A;
  LirBuffer Buf(A);
  Fragment Frag;
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *V = Buf.insImmI(7);
  // Slot 5 (stack depth 5 with 0 globals): dead if every exit has Sp <= 5.
  Buf.insStore(LOp::StI, V, Tar, 5 * 8, Acc::Tar);
  // Slot 0: live at the exit below.
  Buf.insStore(LOp::StI, V, Tar, 0, Acc::Tar);
  ExitDescriptor *E = Frag.makeExit();
  E->Sp = 2; // exit sees slots [0, 2)
  Buf.insGuard(LOp::GuardT, Buf.insImmI(0), E); // not folded: raw buffer
  Buf.insExit(E);

  uint32_t Removed = eliminateDeadStores(Buf.instructions(), /*Globals=*/0);
  EXPECT_EQ(Removed, 1u);
  bool SawSlot0 = false, SawSlot5 = false;
  for (LIns *I : Buf.instructions()) {
    if (I->isStore() && I->Disp == 0)
      SawSlot0 = true;
    if (I->isStore() && I->Disp == 40)
      SawSlot5 = true;
  }
  EXPECT_TRUE(SawSlot0);
  EXPECT_FALSE(SawSlot5);
}

TEST(DeadStoreElim, OverwrittenStoreWithNoInterveningExitIsDead) {
  Arena A;
  LirBuffer Buf(A);
  Fragment Frag;
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  Buf.insStore(LOp::StI, Buf.insImmI(1), Tar, 0, Acc::Tar); // dead: overwritten
  Buf.insStore(LOp::StI, Buf.insImmI(2), Tar, 0, Acc::Tar); // live at exit
  ExitDescriptor *E = Frag.makeExit();
  E->Sp = 1;
  Buf.insExit(E);
  EXPECT_EQ(eliminateDeadStores(Buf.instructions(), 0), 1u);
}

TEST(DeadStoreElim, ExitBetweenStoresKeepsBoth) {
  Arena A;
  LirBuffer Buf(A);
  Fragment Frag;
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  Buf.insStore(LOp::StI, Buf.insImmI(1), Tar, 0, Acc::Tar);
  ExitDescriptor *E = Frag.makeExit();
  E->Sp = 1;
  LIns *Cond = Buf.insLoad(LOp::LdI, Tar, 8, Acc::Tar);
  Buf.insGuard(LOp::GuardT, Cond, E); // observes slot 0
  Buf.insStore(LOp::StI, Buf.insImmI(2), Tar, 0, Acc::Tar);
  ExitDescriptor *E2 = Frag.makeExit();
  E2->Sp = 1;
  Buf.insExit(E2);
  EXPECT_EQ(eliminateDeadStores(Buf.instructions(), 0), 0u);
}

TEST(DeadStoreElim, LoopKeepsReimportedSlots) {
  // A store before Loop is live if the trace reloads that slot anywhere
  // (the next iteration re-imports it).
  Arena A;
  LirBuffer Buf(A);
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *V = Buf.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  LIns *V2 = Buf.ins2(LOp::AddI, V, V);
  Buf.insStore(LOp::StI, V2, Tar, 0, Acc::Tar);
  Buf.insLoop();
  EXPECT_EQ(eliminateDeadStores(Buf.instructions(), 0), 0u);
}

TEST(DeadCodeElim, RemovesUnusedPureOps) {
  Arena A;
  LirBuffer Buf(A);
  Fragment Frag;
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *X = Buf.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  Buf.ins2(LOp::AddI, X, X); // unused
  LIns *Used = Buf.ins2(LOp::MulI, X, X);
  Buf.insStore(LOp::StI, Used, Tar, 8, Acc::Tar);
  size_t Before = Buf.instructions().size();
  uint32_t Removed = eliminateDeadCode(Buf.instructions());
  EXPECT_EQ(Removed, 1u);
  EXPECT_EQ(Buf.instructions().size(), Before - 1);
}

TEST(DeadCodeElim, KeepsGuardsAndTheirOperandChains) {
  Arena A;
  LirBuffer Buf(A);
  Fragment Frag;
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *X = Buf.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  LIns *C = Buf.ins2(LOp::EqI, X, Buf.insImmI(0));
  ExitDescriptor *E = Frag.makeExit();
  Buf.insGuard(LOp::GuardT, C, E);
  EXPECT_EQ(eliminateDeadCode(Buf.instructions()), 0u)
      << "the guard roots its whole condition chain";
}

TEST(Printer, GuardExitMetadataGolden) {
  // Guards must print the exit metadata the verifier's diagnostics lean
  // on: resume point, stack depth, frame depth, and the type-map summary.
  Arena A;
  LirBuffer Buf(A);
  Fragment Frag;
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *X = Buf.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  LIns *C = Buf.ins2(LOp::EqI, X, Buf.insImmI(3));
  ExitDescriptor *E = Frag.makeExit();
  E->Kind = ExitKind::Type;
  E->Pc = 12;
  E->Sp = 2;
  E->Frames.push_back({nullptr, 0, 0});
  E->Types.NumGlobals = 1;
  E->Types.Types = {TraceType::Int, TraceType::Int, TraceType::Double};
  LIns *G = Buf.insGuard(LOp::GuardT, C, E);
  EXPECT_EQ(formatIns(G),
            "v4    v= xf       v3 -> exit0(type@12 sp=2 depth=1 types=[i|id])");

  ExitDescriptor *Plain = Frag.makeExit();
  Plain->Kind = ExitKind::LoopExit;
  Plain->Pc = 7;
  Plain->Sp = 1;
  Plain->Types.Types = {TraceType::String};
  LIns *Tail = Buf.insExit(Plain);
  EXPECT_EQ(formatIns(Tail),
            "v5    v= exit     -> exit1(loopexit@7 sp=1 depth=0 types=[|s])");
}

TEST(Printer, DoubleImmediatesRoundTrip) {
  Arena A;
  LirBuffer Buf(A);
  auto Printed = [&](double D) {
    std::string S = formatIns(Buf.insImmD(D));
    return S.substr(S.rfind(' ') + 1);
  };
  EXPECT_EQ(Printed(1.0000001), "1.0000001");
  EXPECT_EQ(Printed(0.1), "0.1");
  EXPECT_EQ(Printed(2.5), "2.5");
  EXPECT_EQ(Printed(-3), "-3");
  EXPECT_EQ(Printed(1e300), "1e+300");
  for (double D : {1.0 / 3, 3.141592653589793, 6.02214076e23, 5e-324})
    EXPECT_EQ(std::strtod(Printed(D).c_str(), nullptr), D) << Printed(D);
}

TEST(Printer, FormatsInstructionsReadably) {
  Arena A;
  LirBuffer Buf(A);
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *X = Buf.insLoad(LOp::LdI, Tar, 16, Acc::Tar);
  Buf.ins2(LOp::AddI, X, Buf.insImmI(5));
  std::string S = formatBody(Buf.instructions());
  EXPECT_NE(S.find("param.tar"), std::string::npos);
  EXPECT_NE(S.find("ldi"), std::string::npos);
  EXPECT_NE(S.find("addi"), std::string::npos);
  EXPECT_NE(S.find("[16]"), std::string::npos);
}

//===- test_lir.cpp - LIR buffer, filters, backward passes -------------------===//

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "jit/fragment.h"
#include "lir/backward.h"
#include "lir/filters.h"
#include "lir/lir.h"
#include "support/arena.h"

using namespace tracejit;

namespace {

struct PipelineFixture : ::testing::Test {
  Arena A;
  LirBuffer Buf{A};
  CseFilter Cse{&Buf};
  ExprFilter Expr{&Cse};
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
  LIns *X = W.insLoad(LOp::LdI, Tar, 0);
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
  LIns *X = W.insLoad(LOp::LdI, Tar, 8);
  LIns *RoundTrip = W.ins1(LOp::D2I, W.ins1(LOp::I2D, X));
  EXPECT_EQ(RoundTrip, X);
}

TEST_F(PipelineFixture, CseDeduplicatesPureExpressions) {
  LIns *Tar = W.ins0(LOp::ParamTar);
  LIns *X = W.insLoad(LOp::LdI, Tar, 0);
  LIns *Y = W.insLoad(LOp::LdI, Tar, 8);
  LIns *S1 = W.ins2(LOp::AddI, X, Y);
  LIns *S2 = W.ins2(LOp::AddI, X, Y);
  EXPECT_EQ(S1, S2);
  // Identical immediates unify as well.
  EXPECT_EQ(W.insImmI(42), W.insImmI(42));
  EXPECT_EQ(W.insImmQ(0x1234), W.insImmQ(0x1234));
}

TEST_F(PipelineFixture, CseDeduplicatesLoadsUntilStore) {
  LIns *Tar = W.ins0(LOp::ParamTar);
  LIns *L1 = W.insLoad(LOp::LdI, Tar, 16);
  LIns *L2 = W.insLoad(LOp::LdI, Tar, 16);
  EXPECT_EQ(L1, L2) << "repeated load with no intervening store is CSE'd";
  W.insStore(LOp::StI, W.insImmI(1), Tar, 999);
  LIns *L3 = W.insLoad(LOp::LdI, Tar, 16);
  EXPECT_NE(L1, L3) << "stores conservatively invalidate cached loads";
}

TEST_F(PipelineFixture, RedundantGuardsDropped) {
  LIns *Tar = W.ins0(LOp::ParamTar);
  LIns *X = W.insLoad(LOp::LdI, Tar, 0);
  LIns *C = W.ins2(LOp::EqI, X, W.insImmI(3));
  LIns *G1 = W.insGuard(LOp::GuardT, C, exit());
  EXPECT_NE(G1, nullptr);
  LIns *G2 = W.insGuard(LOp::GuardT, C, exit());
  EXPECT_EQ(G2, nullptr) << "same condition, same polarity: proven already";
  LIns *G3 = W.insGuard(LOp::GuardF, C, exit());
  EXPECT_NE(G3, nullptr) << "opposite polarity is a different guard";
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

TEST(DeadStoreElim, RemovesStoresAboveExitStackDepth) {
  // "Stores to locations that are off the top of the interpreter stack at
  // future exits are also dead." (§5.1)
  Arena A;
  LirBuffer Buf(A);
  Fragment Frag;
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *V = Buf.insImmI(7);
  // Slot 5 (stack depth 5 with 0 globals): dead if every exit has Sp <= 5.
  Buf.insStore(LOp::StI, V, Tar, 5 * 8);
  // Slot 0: live at the exit below.
  Buf.insStore(LOp::StI, V, Tar, 0);
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
  Buf.insStore(LOp::StI, Buf.insImmI(1), Tar, 0); // dead: overwritten
  Buf.insStore(LOp::StI, Buf.insImmI(2), Tar, 0); // live at exit
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
  Buf.insStore(LOp::StI, Buf.insImmI(1), Tar, 0);
  ExitDescriptor *E = Frag.makeExit();
  E->Sp = 1;
  LIns *Cond = Buf.insLoad(LOp::LdI, Tar, 8);
  Buf.insGuard(LOp::GuardT, Cond, E); // observes slot 0
  Buf.insStore(LOp::StI, Buf.insImmI(2), Tar, 0);
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
  LIns *V = Buf.insLoad(LOp::LdI, Tar, 0);
  LIns *V2 = Buf.ins2(LOp::AddI, V, V);
  Buf.insStore(LOp::StI, V2, Tar, 0);
  Buf.insLoop();
  EXPECT_EQ(eliminateDeadStores(Buf.instructions(), 0), 0u);
}

TEST(DeadCodeElim, RemovesUnusedPureOps) {
  Arena A;
  LirBuffer Buf(A);
  Fragment Frag;
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *X = Buf.insLoad(LOp::LdI, Tar, 0);
  Buf.ins2(LOp::AddI, X, X); // unused
  LIns *Used = Buf.ins2(LOp::MulI, X, X);
  Buf.insStore(LOp::StI, Used, Tar, 8);
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
  LIns *X = Buf.insLoad(LOp::LdI, Tar, 0);
  LIns *C = Buf.ins2(LOp::EqI, X, Buf.insImmI(0));
  ExitDescriptor *E = Frag.makeExit();
  Buf.insGuard(LOp::GuardT, C, E);
  EXPECT_EQ(eliminateDeadCode(Buf.instructions()), 0u)
      << "the guard roots its whole condition chain";
}

TEST(Typecheck, AcceptsWellTypedBody) {
  Arena A;
  LirBuffer Buf(A);
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *X = Buf.insLoad(LOp::LdI, Tar, 0);
  LIns *D = Buf.ins1(LOp::I2D, X);
  LIns *S = Buf.ins2(LOp::AddD, D, Buf.insImmD(1.0));
  Buf.insStore(LOp::StD, S, Tar, 8);
  EXPECT_EQ(typecheckBody(Buf.instructions()), "");
}

TEST(Typecheck, RejectsTypeMismatch) {
  Arena A;
  LirBuffer Buf(A);
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *X = Buf.insLoad(LOp::LdI, Tar, 0);
  LIns *D = Buf.insImmD(1.0);
  Buf.ins2(LOp::AddI, X, D); // I32 + D: ill-typed
  EXPECT_NE(typecheckBody(Buf.instructions()), "");
}

TEST(Printer, GuardExitMetadataGolden) {
  // Guards must print the exit metadata the verifier's diagnostics lean
  // on: resume point, stack depth, frame depth, and the type-map summary.
  Arena A;
  LirBuffer Buf(A);
  Fragment Frag;
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *X = Buf.insLoad(LOp::LdI, Tar, 0);
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
  LIns *X = Buf.insLoad(LOp::LdI, Tar, 16);
  Buf.ins2(LOp::AddI, X, Buf.insImmI(5));
  std::string S = formatBody(Buf.instructions());
  EXPECT_NE(S.find("param.tar"), std::string::npos);
  EXPECT_NE(S.find("ldi"), std::string::npos);
  EXPECT_NE(S.find("addi"), std::string::npos);
  EXPECT_NE(S.find("[16]"), std::string::npos);
}

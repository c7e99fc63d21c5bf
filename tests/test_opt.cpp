//===- test_opt.cpp - Loop optimizer: guard elim, indvars, hoisting ----------===//
//
// Unit tests drive optimizeTrace (lir/opt.h) over hand-built LIR bodies and
// check the per-pass contracts: a dominated guard disappears, a clobbered
// location keeps its guard, overflow checks fold only under a dominating
// range guard, invariant code moves into the prologue and nothing else
// does. End-to-end tests then run whole programs at every -O level on both
// backends and require identical output -- the optimizer may only move
// time, never results.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/engine.h"
#include "jit/fragment.h"
#include "lir/lir.h"
#include "lir/opt.h"
#include "support/stats.h"

using namespace tracejit;

namespace {

/// A fragment owning its arena plus a raw LirBuffer (no forward filters:
/// these tests control the exact instruction stream).
struct OptTest : ::testing::Test {
  Fragment F;
  std::unique_ptr<LirBuffer> Buf;

  OptTest() {
    F.LirArena = std::make_unique<Arena>();
    Buf = std::make_unique<LirBuffer>(*F.LirArena);
  }
  LirWriter &W() { return *Buf; }

  ExitDescriptor *exit(ExitKind K = ExitKind::Branch) {
    ExitDescriptor *E = F.makeExit();
    E->Kind = K;
    return E;
  }
  /// Move the buffer's stream into the fragment body.
  void seal() { F.Body = Buf->instructions(); }

  static OptPipeline only(OptPass P) { return OptPipeline().add(P); }

  bool inPrologue(const LIns *I) const {
    for (uint32_t P = 0; P < F.PrologueEnd; ++P)
      if (F.Body[P] == I)
        return true;
    return false;
  }
  bool inBody(const LIns *I) const {
    for (const LIns *X : F.Body)
      if (X == I)
        return true;
    return false;
  }
};

} // namespace

// --- Dominating-guard elimination --------------------------------------------

TEST_F(OptTest, DominatedGuardIsDropped) {
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *L = W().insLoad(LOp::LdI, Tar, 0);
  LIns *Five = W().insImmI(5);
  LIns *C = W().ins2(LOp::LtI, L, Five);
  LIns *G1 = W().insGuard(LOp::GuardT, C, exit());
  LIns *G2 = W().insGuard(LOp::GuardT, C, exit());
  seal();

  OptResult R = optimizeTrace(F, only(OptPass::GuardElim), 0, nullptr);
  EXPECT_EQ(R.GuardsEliminated, 1u);
  EXPECT_TRUE(inBody(G1));
  EXPECT_FALSE(inBody(G2)) << "re-check of a guarded condition can't fire";
}

TEST_F(OptTest, OppositePolarityGuardIsKept) {
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *L = W().insLoad(LOp::LdI, Tar, 0);
  LIns *C = W().ins2(LOp::EqI, L, W().insImmI(0));
  W().insGuard(LOp::GuardT, C, exit());
  LIns *G2 = W().insGuard(LOp::GuardF, C, exit());
  seal();

  OptResult R = optimizeTrace(F, only(OptPass::GuardElim), 0, nullptr);
  EXPECT_EQ(R.GuardsEliminated, 0u);
  EXPECT_TRUE(inBody(G2)) << "GuardF(c) is not subsumed by GuardT(c)";
}

TEST_F(OptTest, GuardKeptAcrossHeapClobber) {
  // load; guard; store to the same location; reload; same-shaped guard.
  // The store starts a new equivalence class: the reload and its guard
  // must both survive.
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *Base = W().insLoad(LOp::LdQ, Tar, 8);
  LIns *Five = W().insImmI(5);
  LIns *L1 = W().insLoad(LOp::LdI, Base, 0);
  LIns *C1 = W().ins2(LOp::LtI, L1, Five);
  W().insGuard(LOp::GuardT, C1, exit());
  W().insStore(LOp::StI, Five, Base, 0);
  LIns *L2 = W().insLoad(LOp::LdI, Base, 0);
  LIns *C2 = W().ins2(LOp::LtI, L2, Five);
  LIns *G2 = W().insGuard(LOp::GuardT, C2, exit());
  seal();

  OptResult R = optimizeTrace(F, only(OptPass::GuardElim), 0, nullptr);
  EXPECT_EQ(R.GuardsEliminated, 0u);
  EXPECT_TRUE(inBody(L2)) << "clobbered load must not merge";
  EXPECT_TRUE(inBody(G2));
}

TEST_F(OptTest, RedundantLoadAndGuardMergeWithoutClobber) {
  // Same stream as above minus the store: the reload value-numbers into
  // the first load, the condition into the first condition, and the second
  // guard is dominated.
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *Base = W().insLoad(LOp::LdQ, Tar, 8);
  LIns *Five = W().insImmI(5);
  LIns *L1 = W().insLoad(LOp::LdI, Base, 0);
  LIns *C1 = W().ins2(LOp::LtI, L1, Five);
  LIns *G1 = W().insGuard(LOp::GuardT, C1, exit());
  LIns *L2 = W().insLoad(LOp::LdI, Base, 0);
  LIns *C2 = W().ins2(LOp::LtI, L2, Five);
  LIns *G2 = W().insGuard(LOp::GuardT, C2, exit());
  seal();

  OptResult R = optimizeTrace(F, only(OptPass::GuardElim), 0, nullptr);
  EXPECT_EQ(R.GuardsEliminated, 1u);
  EXPECT_FALSE(inBody(L2));
  EXPECT_FALSE(inBody(C2));
  EXPECT_FALSE(inBody(G2));
  EXPECT_TRUE(inBody(G1));
  (void)L1;
}

TEST_F(OptTest, TreeCallInvalidatesTarSlots) {
  // TAR loads must not merge across a TreeCall: the inner tree runs over
  // the same activation record and may write any slot.
  Fragment Inner;
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *L1 = W().insLoad(LOp::LdI, Tar, 0);
  W().insTreeCall(&Inner, exit(), exit(ExitKind::Nested));
  LIns *L2 = W().insLoad(LOp::LdI, Tar, 0);
  seal();

  optimizeTrace(F, only(OptPass::GuardElim), 0, nullptr);
  EXPECT_TRUE(inBody(L1));
  EXPECT_TRUE(inBody(L2)) << "inner tree may have written slot 0";
}

// --- Induction-variable recognition ------------------------------------------

TEST_F(OptTest, OverflowCheckFoldsUnderRangeGuard) {
  // GuardT(i < n) dominates AddOvI(i, 1): i <= INT32_MAX - 1, the +1
  // cannot overflow, the check folds to AddI.
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *I = W().insLoad(LOp::LdI, Tar, 0);
  LIns *N = W().insLoad(LOp::LdI, Tar, 8);
  LIns *C = W().ins2(LOp::LtI, I, N);
  W().insGuard(LOp::GuardT, C, exit());
  LIns *Inc = W().insOvf(LOp::AddOvI, I, W().insImmI(1), exit(ExitKind::Overflow));
  seal();

  OptResult R = optimizeTrace(F, only(OptPass::IndVar), 0, nullptr);
  EXPECT_EQ(R.OvfChecksFolded, 1u);
  EXPECT_EQ(Inc->Op, LOp::AddI);
  EXPECT_EQ(Inc->Exit, nullptr);
}

TEST_F(OptTest, OverflowCheckKeptWithoutGuard) {
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *I = W().insLoad(LOp::LdI, Tar, 0);
  LIns *Inc = W().insOvf(LOp::AddOvI, I, W().insImmI(1), exit(ExitKind::Overflow));
  seal();

  OptResult R = optimizeTrace(F, only(OptPass::IndVar), 0, nullptr);
  EXPECT_EQ(R.OvfChecksFolded, 0u);
  EXPECT_EQ(Inc->Op, LOp::AddOvI) << "nothing bounds i; +1 may overflow";
}

TEST_F(OptTest, OverflowCheckFoldsUnderUnsignedBoundsCheck) {
  // i <u cap (cap a loaded capacity) proves 0 <= i < 2^31, so both the
  // increment and the decrement fold.
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *Base = W().insLoad(LOp::LdQ, Tar, 16);
  LIns *I = W().insLoad(LOp::LdI, Tar, 0);
  LIns *Cap = W().insLoad(LOp::LdI, Base, 0);
  LIns *C = W().ins2(LOp::LtUI, I, Cap);
  W().insGuard(LOp::GuardT, C, exit());
  LIns *Inc = W().insOvf(LOp::AddOvI, I, W().insImmI(1), exit(ExitKind::Overflow));
  LIns *Dec = W().insOvf(LOp::SubOvI, I, W().insImmI(1), exit(ExitKind::Overflow));
  seal();

  OptResult R = optimizeTrace(F, only(OptPass::IndVar), 0, nullptr);
  EXPECT_EQ(R.OvfChecksFolded, 2u);
  EXPECT_EQ(Inc->Op, LOp::AddI);
  EXPECT_EQ(Dec->Op, LOp::SubI);
}

TEST_F(OptTest, FailedGuardDirectionGivesNoFact) {
  // A passed GuardF(i < n) establishes i >= n -- which bounds nothing for
  // an increment. The check must survive.
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *I = W().insLoad(LOp::LdI, Tar, 0);
  LIns *N = W().insLoad(LOp::LdI, Tar, 8);
  LIns *C = W().ins2(LOp::LtI, I, N);
  W().insGuard(LOp::GuardF, C, exit());
  LIns *Inc = W().insOvf(LOp::AddOvI, I, W().insImmI(1), exit(ExitKind::Overflow));
  seal();

  OptResult R = optimizeTrace(F, only(OptPass::IndVar), 0, nullptr);
  EXPECT_EQ(R.OvfChecksFolded, 0u);
  EXPECT_EQ(Inc->Op, LOp::AddOvI);
}

TEST_F(OptTest, IndexChainStrengthReduced) {
  // addr(i) = data + 8*i exists; addr(i+1) with both i and i+1 checked
  // against the same capacity becomes addr(i) + 8.
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *Obj = W().insLoad(LOp::LdQ, Tar, 16);
  LIns *I = W().insLoad(LOp::LdI, Tar, 0);
  LIns *Cap = W().insLoad(LOp::LdI, Obj, 0);
  LIns *Data = W().insLoad(LOp::LdQ, Obj, 8);
  W().insGuard(LOp::GuardT, W().ins2(LOp::LtUI, I, Cap), exit());
  LIns *Three = W().insImmI(3);
  LIns *A0 =
      W().ins2(LOp::AddQ, Data,
               W().ins2(LOp::ShlQ, W().ins1(LOp::UI2Q, I), Three));
  LIns *I1 = W().insOvf(LOp::AddOvI, I, W().insImmI(1), exit(ExitKind::Overflow));
  W().insGuard(LOp::GuardT, W().ins2(LOp::LtUI, I1, Cap), exit());
  LIns *A1 =
      W().ins2(LOp::AddQ, Data,
               W().ins2(LOp::ShlQ, W().ins1(LOp::UI2Q, I1), Three));
  seal();

  OptResult R = optimizeTrace(F, only(OptPass::IndVar), 0, nullptr);
  EXPECT_EQ(R.OvfChecksFolded, 1u) << "i <u cap folds the +1";
  EXPECT_EQ(R.IdxStrengthReduced, 1u);
  EXPECT_EQ(A1->Op, LOp::AddQ);
  EXPECT_EQ(A1->A, A0) << "second address chains off the first";
  ASSERT_NE(A1->B, nullptr);
  EXPECT_EQ(A1->B->Op, LOp::ImmQ);
  EXPECT_EQ(A1->B->Imm.ImmQ64, 8);
}

TEST_F(OptTest, IndexChainNotReducedWithoutSharedBound) {
  // i+1 is bounds-checked against a *different* capacity: the wrap-around
  // proof fails and the full address chain must remain.
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *Obj = W().insLoad(LOp::LdQ, Tar, 16);
  LIns *Obj2 = W().insLoad(LOp::LdQ, Tar, 24);
  LIns *I = W().insLoad(LOp::LdI, Tar, 0);
  LIns *Cap = W().insLoad(LOp::LdI, Obj, 0);
  LIns *Cap2 = W().insLoad(LOp::LdI, Obj2, 0);
  LIns *Data = W().insLoad(LOp::LdQ, Obj, 8);
  W().insGuard(LOp::GuardT, W().ins2(LOp::LtUI, I, Cap), exit());
  LIns *Three = W().insImmI(3);
  LIns *A0 =
      W().ins2(LOp::AddQ, Data,
               W().ins2(LOp::ShlQ, W().ins1(LOp::UI2Q, I), Three));
  LIns *I1 = W().ins2(LOp::AddI, I, W().insImmI(1));
  W().insGuard(LOp::GuardT, W().ins2(LOp::LtUI, I1, Cap2), exit());
  LIns *A1 =
      W().ins2(LOp::AddQ, Data,
               W().ins2(LOp::ShlQ, W().ins1(LOp::UI2Q, I1), Three));
  seal();

  OptResult R = optimizeTrace(F, only(OptPass::IndVar), 0, nullptr);
  EXPECT_EQ(R.IdxStrengthReduced, 0u);
  EXPECT_NE(A1->A, A0);
}

// --- Loop-invariant hoisting -------------------------------------------------

namespace {

/// Root-fragment fixture with an entry exit and a Loop terminator -- the
/// preconditions runHoist requires.
struct HoistTest : OptTest {
  ExitDescriptor *Entry = nullptr;
  void makeLoopFragment() {
    F.Kind = FragmentKind::Root;
    Entry = exit(ExitKind::Deopt);
    F.EntryExit = Entry;
  }
};

} // namespace

TEST_F(HoistTest, InvariantCodeAndGuardMoveToPrologue) {
  makeLoopFragment();
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *Inv = W().insLoad(LOp::LdQ, Tar, 16); // slot 2: never stored
  LIns *C = W().ins2(LOp::EqQ, Inv, Inv);
  LIns *G = W().insGuard(LOp::GuardT, C, exit());
  LIns *I = W().insLoad(LOp::LdI, Tar, 0); // slot 0: stored below
  LIns *One = W().insImmI(1);
  LIns *I2 = W().ins2(LOp::AddI, I, One);
  W().insStore(LOp::StI, I2, Tar, 0);
  W().insLoop();
  seal();

  OptResult R = optimizeTrace(F, only(OptPass::Hoist), 0, nullptr);
  EXPECT_EQ(R.InsHoisted, 3u) << "Inv, C, G (ParamTar doesn't count)";
  EXPECT_EQ(R.GuardsHoisted, 1u);
  ASSERT_GT(F.PrologueEnd, 0u);
  EXPECT_TRUE(inPrologue(Inv));
  EXPECT_TRUE(inPrologue(C));
  EXPECT_TRUE(inPrologue(G));
  EXPECT_FALSE(inPrologue(I)) << "its slot is stored in the loop";
  EXPECT_FALSE(inPrologue(I2));
  EXPECT_EQ(G->Exit, Entry) << "hoisted guard deopts through the entry exit";
  EXPECT_EQ(F.Body.back()->Op, LOp::Loop);
}

TEST_F(HoistTest, StoredSlotBlocksHoisting) {
  makeLoopFragment();
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *V = W().insLoad(LOp::LdQ, Tar, 16);
  W().insStore(LOp::StQ, V, Tar, 16); // the loop writes the same slot
  W().insLoop();
  seal();

  optimizeTrace(F, only(OptPass::Hoist), 0, nullptr);
  EXPECT_EQ(F.PrologueEnd, 0u) << "nothing invariant: no prologue";
}

TEST_F(HoistTest, LoadDoesNotHoistPastUnhoistedShapeGuard) {
  // A pointer-compare guard that stays in the loop may be what makes a
  // later load safe (shape/type checks establish memory layout); loads
  // after it must not move, even if their location is never stored.
  makeLoopFragment();
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *Inv = W().insLoad(LOp::LdQ, Tar, 16);
  LIns *P = W().insLoad(LOp::LdQ, Tar, 0); // varies (stored below)
  LIns *C = W().ins2(LOp::EqQ, P, Inv);    // shape-style Q compare
  W().insGuard(LOp::GuardT, C, exit());
  LIns *Late = W().insLoad(LOp::LdQ, Tar, 24); // never stored, but too late
  W().insStore(LOp::StQ, Inv, Tar, 0);
  W().insLoop();
  seal();

  optimizeTrace(F, only(OptPass::Hoist), 0, nullptr);
  EXPECT_TRUE(inPrologue(Inv));
  EXPECT_FALSE(inPrologue(Late)) << "must not float above the shape guard";
}

TEST_F(HoistTest, LoopConditionGuardDoesNotBlockHoisting) {
  // The i32 loop-condition guard leads every recorder trace; it checks
  // arithmetic, not memory layout, so invariant loads behind it still
  // hoist. (This is what makes hoisting fire on real traces at all.)
  makeLoopFragment();
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *I = W().insLoad(LOp::LdI, Tar, 0); // induction variable
  LIns *C = W().ins2(LOp::LtI, I, W().insImmI(100));
  W().insGuard(LOp::GuardT, C, exit());
  LIns *Inv = W().insLoad(LOp::LdQ, Tar, 16); // invariant, after the guard
  LIns *One = W().insImmI(1);
  W().insStore(LOp::StI, W().ins2(LOp::AddI, I, One), Tar, 0);
  W().insLoop();
  seal();

  OptResult R = optimizeTrace(F, only(OptPass::Hoist), 0, nullptr);
  EXPECT_TRUE(inPrologue(Inv));
  EXPECT_FALSE(inPrologue(I));
  EXPECT_FALSE(inPrologue(C));
  EXPECT_EQ(R.GuardsHoisted, 0u) << "the loop guard itself stays";
}

TEST_F(HoistTest, BranchFragmentNeverGetsPrologue) {
  makeLoopFragment();
  F.Kind = FragmentKind::Branch;
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *Inv = W().insLoad(LOp::LdQ, Tar, 16);
  W().ins2(LOp::EqQ, Inv, Inv);
  W().insLoop();
  seal();

  optimizeTrace(F, only(OptPass::Hoist), 0, nullptr);
  EXPECT_EQ(F.PrologueEnd, 0u);
}

TEST_F(HoistTest, PrologueSurvivesFinalDceAndPrints) {
  // Full -O2 pipeline over a body where DCE can delete part of the
  // prologue: PrologueEnd must track the surviving prefix, and the printer
  // must bracket the regions.
  makeLoopFragment();
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *Inv = W().insLoad(LOp::LdQ, Tar, 16);
  LIns *C = W().ins2(LOp::EqQ, Inv, Inv);
  LIns *G = W().insGuard(LOp::GuardT, C, exit());
  W().ins2(LOp::EqQ, Inv, Inv); // dead duplicate: GVN merges / DCE removes
  LIns *I = W().insLoad(LOp::LdI, Tar, 0);
  LIns *One = W().insImmI(1);
  W().insStore(LOp::StI, W().ins2(LOp::AddI, I, One), Tar, 0);
  W().insLoop();
  seal();

  optimizeTrace(F, OptPipeline::level(2), 0, nullptr);
  ASSERT_GT(F.PrologueEnd, 0u);
  ASSERT_LT(F.PrologueEnd, F.Body.size());
  for (uint32_t P = 0; P < F.PrologueEnd; ++P) {
    EXPECT_FALSE(F.Body[P]->isStore());
    if (F.Body[P]->isGuard()) {
      EXPECT_EQ(F.Body[P]->Exit, Entry);
    }
  }
  EXPECT_EQ(F.Body.back()->Op, LOp::Loop);
  EXPECT_TRUE(inPrologue(G));

  std::string Dump = formatBody(F.Body, F.PrologueEnd);
  EXPECT_NE(Dump.find("-- prologue --"), std::string::npos);
  EXPECT_NE(Dump.find("-- loop --"), std::string::npos);
  EXPECT_LT(Dump.find("-- prologue --"), Dump.find("-- loop --"));
  // No-prologue bodies print without markers.
  EXPECT_EQ(formatBody(F.Body, 0).find("-- prologue --"), std::string::npos);
}

// --- Pipeline flag surface ---------------------------------------------------

TEST(OptPipelineFlags, LevelsSelectDocumentedPassSets) {
  EngineOptions O;
  EXPECT_TRUE(O.applyFlag("-O0"));
  EXPECT_EQ(O.Passes, OptPipeline::level(0));
  EXPECT_TRUE(O.Passes.has(OptPass::Cse));
  EXPECT_FALSE(O.Passes.has(OptPass::GuardElim));
  EXPECT_FALSE(O.Passes.has(OptPass::Hoist));

  EXPECT_TRUE(O.applyFlag("-O1"));
  EXPECT_TRUE(O.Passes.has(OptPass::GuardElim));
  EXPECT_FALSE(O.Passes.has(OptPass::Hoist));

  EXPECT_TRUE(O.applyFlag("-O2"));
  EXPECT_TRUE(O.Passes.has(OptPass::IndVar));
  EXPECT_TRUE(O.Passes.has(OptPass::Hoist));
  EXPECT_EQ(O.Passes, EngineOptions().Passes) << "-O2 is the default";
}

TEST(OptPipelineFlags, JitOptAddsAndRemovesPasses) {
  EngineOptions O;
  EXPECT_TRUE(O.applyFlag("--jit-opt=-hoist"));
  EXPECT_FALSE(O.Passes.has(OptPass::Hoist));
  EXPECT_TRUE(O.Passes.has(OptPass::IndVar)) << "others untouched";

  EXPECT_TRUE(O.applyFlag("--jit-opt=+hoist,-cse,-dce"));
  EXPECT_TRUE(O.Passes.has(OptPass::Hoist));
  EXPECT_FALSE(O.Passes.has(OptPass::Cse));
  EXPECT_FALSE(O.Passes.has(OptPass::Dce));

  EXPECT_TRUE(O.applyFlag("--jit-opt=none"));
  EXPECT_TRUE(O.Passes.empty());
  EXPECT_EQ(O.Passes.describe(), "none");

  EXPECT_TRUE(O.applyFlag("--jit-opt=all"));
  EXPECT_EQ(O.Passes, OptPipeline::all());

  EXPECT_TRUE(O.applyFlag("--jit-opt=none,guardelim"));
  EXPECT_TRUE(O.Passes.has(OptPass::GuardElim));
  EXPECT_FALSE(O.Passes.has(OptPass::Cse));
  EXPECT_EQ(O.Passes.describe(), "guardelim");
}

TEST(OptPipelineFlags, MalformedJitOptRejected) {
  EngineOptions O;
  OptPipeline Before = O.Passes;
  EXPECT_FALSE(O.applyFlag("--jit-opt=nosuchpass"));
  EXPECT_FALSE(O.applyFlag("--jit-opt="));
  EXPECT_FALSE(O.applyFlag("--jit-opt=cse,,dce"));
  EXPECT_FALSE(O.applyFlag("-O3"));
  EXPECT_EQ(O.Passes, Before) << "failed parses must not change the set";
}

// --- End-to-end: optimization levels preserve semantics ----------------------

namespace {

struct RunInfo {
  std::string Out;
  VMStats Stats;
  bool Ok = false;
};

RunInfo runWith(const std::string &Src, EngineOptions O) {
  O.CollectStats = true;
  Engine E(O);
  RunInfo R;
  E.setPrintHook([&](const std::string &S) { R.Out += S; });
  auto Res = E.eval(Src);
  R.Ok = Res.ok();
  R.Stats = E.stats();
  return R;
}

/// Loop-heavy corpus: each exercises a different optimizer surface
/// (redundant guards, array indexing, invariant property loads, nesting,
/// type instability, overflow checks near the int32 edge).
const char *Corpus[] = {
    // Sieve: nested loops, array stores, bounds checks.
    "var N = 300; var p = Array(N);\n"
    "for (var a = 0; a < N; ++a) p[a] = true;\n"
    "for (var i = 2; i < N; ++i) {\n"
    "  if (!p[i]) continue;\n"
    "  for (var k = i + i; k < N; k += i) p[k] = false;\n"
    "}\n"
    "var c = 0;\n"
    "for (var q = 2; q < N; ++q) if (p[q]) c = c + 1;\n"
    "print(c);",
    // Invariant object property in a hot loop.
    "var o = {scale: 3, bias: 7};\n"
    "var s = 0;\n"
    "for (var i = 0; i < 2000; ++i) s += o.scale * i + o.bias;\n"
    "print(s);",
    // Array walk with neighbor access (strength-reduction shape).
    "var n = 256; var a = Array(n);\n"
    "for (var i = 0; i < n; ++i) a[i] = i * i % 97;\n"
    "var t = 0;\n"
    "for (var j = 0; j + 1 < n; ++j) t += a[j] + a[j + 1];\n"
    "print(t);",
    // Type-unstable accumulator (int -> double).\n
    "var s = 0;\n"
    "for (var i = 0; i < 1000; ++i) { s += i; if (i == 800) s += 0.5; }\n"
    "print(s);",
    // Branch-heavy body.
    "var x = 0, y = 0;\n"
    "for (var i = 0; i < 4000; ++i) {\n"
    "  if (i % 3 == 0) x += i; else if (i % 5 == 0) y += i; else x -= 1;\n"
    "}\n"
    "print(x, y);",
    // Overflow checks that must still fire.
    "var big = 2147483000; var s = 0;\n"
    "for (var i = 0; i < 500; ++i) s = (big + i) % 1000003;\n"
    "print(s);",
    // Function call in the loop (inlined by the recorder).
    "function f(v) { return v * 2 + 1; }\n"
    "var s = 0;\n"
    "for (var i = 0; i < 1500; ++i) s += f(i);\n"
    "print(s);",
};

} // namespace

TEST(OptEndToEnd, AllLevelsAndBackendsAgree) {
  for (const char *Src : Corpus) {
    EngineOptions Interp;
    Interp.EnableJit = false;
    RunInfo Ref = runWith(Src, Interp);
    ASSERT_TRUE(Ref.Ok);
    for (Backend B : {Backend::Native, Backend::Executor}) {
      for (const char *Lvl : {"-O0", "-O1", "-O2"}) {
        EngineOptions O;
        O.JitBackend = B;
        ASSERT_TRUE(O.applyFlag(Lvl));
        RunInfo R = runWith(Src, O);
        ASSERT_TRUE(R.Ok);
        EXPECT_EQ(R.Out, Ref.Out)
            << Lvl << " backend=" << (B == Backend::Native ? "native" : "exec")
            << "\n"
            << Src;
      }
    }
  }
}

TEST(OptEndToEnd, LoopPassesFireOnLoopCode) {
  // The counters are the measurable claim of this optimizer: on a loop
  // with an invariant object and redundant checks, -O2 must eliminate
  // guards, hoist code, and build at least one prologue.
  const char *Src = "var o = {scale: 3, bias: 7};\n"
                    "var s = 0;\n"
                    "for (var i = 0; i < 5000; ++i) s += o.scale * i + o.bias;\n"
                    "print(s);";
  EngineOptions O;
  O.Tier = TierMode::Trace; // the loop optimizer runs on trace bodies only
  RunInfo R = runWith(Src, O);
  ASSERT_TRUE(R.Ok);
  EXPECT_GT(R.Stats.GuardsEliminated, 0u);
  EXPECT_GT(R.Stats.InsHoisted, 0u);
  EXPECT_GT(R.Stats.GuardsHoisted, 0u);
  EXPECT_GE(R.Stats.LoopsWithPrologue, 1u);

  EngineOptions O0;
  ASSERT_TRUE(O0.applyFlag("-O0"));
  RunInfo R0 = runWith(Src, O0);
  ASSERT_TRUE(R0.Ok);
  EXPECT_EQ(R0.Out, R.Out);
  EXPECT_EQ(R0.Stats.GuardsEliminated, 0u);
  EXPECT_EQ(R0.Stats.LoopsWithPrologue, 0u);
}

TEST(OptEndToEnd, EntryDeoptRecoversWhenInvariantBreaks) {
  // The prologue speculates on o's shape. After the tree is compiled, the
  // shape changes for good: every entry attempt deopts through EntryExit,
  // the monitor backs off / retires the fragment, and the program still
  // computes the right answer.
  const char *Src = "var o = {x: 2};\n"
                    "var s = 0;\n"
                    "function burn() {\n"
                    "  for (var i = 0; i < 400; ++i) s += o.x;\n"
                    "}\n"
                    "burn();\n"
                    "o.extra = 1;\n"
                    "burn();\n"
                    "print(s);";
  EngineOptions O;
  RunInfo R = runWith(Src, O);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Out, "1600\n");
  if (R.Stats.GuardsHoisted > 0) {
    EXPECT_GE(R.Stats.EntryDeopts, 1u)
        << "a hoisted shape guard must fail at entry after the shape change";
  }
}

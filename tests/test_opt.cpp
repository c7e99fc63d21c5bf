//===- test_opt.cpp - Loop optimizer: indvars, hoisting ----------------------===//
//
// Unit tests drive optimizeTrace (lir/opt.h) over hand-built LIR bodies and
// check the per-pass contracts: overflow checks fold only under a
// dominating range guard, invariant code moves into the prologue and
// nothing else does. (Dominated-guard elimination lives in the forward
// CseFilter; test_lir.cpp covers it.) End-to-end tests then run whole
// programs at both -O levels on both backends and require identical output
// -- the optimizer may only move time, never results -- and pin what the
// forward filters' location classes and ToInt32 fold remove.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "api/engine.h"
#include "jit/fragment.h"
#include "lir/lir.h"
#include "lir/opt.h"
#include "support/stats.h"
#include "trace/helpers.h"
#include "trace/monitor.h"
#include "vm/object.h"

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

// --- Induction-variable recognition ------------------------------------------

TEST_F(OptTest, OverflowCheckFoldsUnderRangeGuard) {
  // GuardT(i < n) dominates AddOvI(i, 1): i <= INT32_MAX - 1, the +1
  // cannot overflow, the check folds to AddI.
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *I = W().insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  LIns *N = W().insLoad(LOp::LdI, Tar, 8, Acc::Tar);
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
  LIns *I = W().insLoad(LOp::LdI, Tar, 0, Acc::Tar);
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
  LIns *Base = W().insLoad(LOp::LdQ, Tar, 16, Acc::Tar);
  LIns *I = W().insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  LIns *Cap = W().insLoad(LOp::LdI, Base, 0, Acc::Header);
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
  LIns *I = W().insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  LIns *N = W().insLoad(LOp::LdI, Tar, 8, Acc::Tar);
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
  LIns *Obj = W().insLoad(LOp::LdQ, Tar, 16, Acc::Tar);
  LIns *I = W().insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  LIns *Cap = W().insLoad(LOp::LdI, Obj, 0, Acc::Header);
  LIns *Data = W().insLoad(LOp::LdQ, Obj, 8, Acc::Header);
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
  LIns *Obj = W().insLoad(LOp::LdQ, Tar, 16, Acc::Tar);
  LIns *Obj2 = W().insLoad(LOp::LdQ, Tar, 24, Acc::Tar);
  LIns *I = W().insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  LIns *Cap = W().insLoad(LOp::LdI, Obj, 0, Acc::Header);
  LIns *Cap2 = W().insLoad(LOp::LdI, Obj2, 0, Acc::Header);
  LIns *Data = W().insLoad(LOp::LdQ, Obj, 8, Acc::Header);
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
  LIns *Inv = W().insLoad(LOp::LdQ, Tar, 16, Acc::Tar); // slot 2: never stored
  LIns *C = W().ins2(LOp::EqQ, Inv, Inv);
  LIns *G = W().insGuard(LOp::GuardT, C, exit());
  LIns *I = W().insLoad(LOp::LdI, Tar, 0, Acc::Tar); // slot 0: stored below
  LIns *One = W().insImmI(1);
  LIns *I2 = W().ins2(LOp::AddI, I, One);
  W().insStore(LOp::StI, I2, Tar, 0, Acc::Tar);
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
  LIns *V = W().insLoad(LOp::LdQ, Tar, 16, Acc::Tar);
  W().insStore(LOp::StQ, V, Tar, 16, Acc::Tar); // the loop writes the same slot
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
  LIns *Inv = W().insLoad(LOp::LdQ, Tar, 16, Acc::Tar);
  LIns *P = W().insLoad(LOp::LdQ, Tar, 0, Acc::Tar); // varies (stored below)
  LIns *C = W().ins2(LOp::EqQ, P, Inv);    // shape-style Q compare
  W().insGuard(LOp::GuardT, C, exit());
  // Never stored, but too late.
  LIns *Late = W().insLoad(LOp::LdQ, Tar, 24, Acc::Tar);
  W().insStore(LOp::StQ, Inv, Tar, 0, Acc::Tar);
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
  LIns *I = W().insLoad(LOp::LdI, Tar, 0, Acc::Tar); // induction variable
  LIns *C = W().ins2(LOp::LtI, I, W().insImmI(100));
  W().insGuard(LOp::GuardT, C, exit());
  // Invariant, after the guard.
  LIns *Inv = W().insLoad(LOp::LdQ, Tar, 16, Acc::Tar);
  LIns *One = W().insImmI(1);
  W().insStore(LOp::StI, W().ins2(LOp::AddI, I, One), Tar, 0, Acc::Tar);
  W().insLoop();
  seal();

  OptResult R = optimizeTrace(F, only(OptPass::Hoist), 0, nullptr);
  EXPECT_TRUE(inPrologue(Inv));
  EXPECT_FALSE(inPrologue(I));
  EXPECT_FALSE(inPrologue(C));
  EXPECT_EQ(R.GuardsHoisted, 0u) << "the loop guard itself stays";
}

TEST_F(HoistTest, LoadsHoistByLocationClass) {
  // An allocating helper writes no class a load reads, so the object's
  // shape still hoists past it, base ParamTar or absolute alike; a VM word
  // never hoists.
  makeLoopFragment();
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *Obj = W().insLoad(LOp::LdQ, Tar, 16, Acc::Tar);
  LIns *D = W().insLoad(LOp::LdD, Tar, 24, Acc::Tar);
  LIns *Args[2] = {W().insImmQ(0x1000), D};
  W().insCall(&helperCalls().BoxDouble, Args, 2);
  LIns *Shape = W().insLoad(LOp::LdQ, Obj, 8, Acc::Header);
  LIns *Global = W().insImmQ(0x2000);
  LIns *GlobalShape = W().insLoad(LOp::LdQ, Global, 8, Acc::Header);
  LIns *Flag = W().insLoad(LOp::LdI, W().insImmQ(0x3000), 0, Acc::Vm);
  LIns *I = W().insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  W().insStore(LOp::StI, W().ins2(LOp::AddI, I, Flag), Tar, 0, Acc::Tar);
  W().insStore(LOp::StQ, W().ins2(LOp::AddQ, Shape, GlobalShape), Tar, 32,
               Acc::Tar);
  W().insLoop();
  seal();

  optimizeTrace(F, only(OptPass::Hoist), 0, nullptr);
  EXPECT_TRUE(inPrologue(Shape));
  EXPECT_TRUE(inPrologue(GlobalShape));
  EXPECT_FALSE(inPrologue(Flag)) << "VM words are volatile";
}

TEST_F(HoistTest, AnyHeapWriteKeepsHeapLoadsInTheLoop) {
  // A named-slot store leaves the shape alone, but heap loads hoist only
  // from a loop that writes no heap class at all.
  makeLoopFragment();
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *Obj = W().insLoad(LOp::LdQ, Tar, 16, Acc::Tar);
  LIns *Shape = W().insLoad(LOp::LdQ, Obj, 8, Acc::Header);
  LIns *Slots = W().insLoad(LOp::LdQ, Obj, 16, Acc::Header);
  W().insStore(LOp::StQ, Shape, Slots, 0, Acc::Slots);
  W().insLoop();
  seal();

  optimizeTrace(F, only(OptPass::Hoist), 0, nullptr);
  EXPECT_TRUE(inPrologue(Obj));
  EXPECT_FALSE(inPrologue(Shape));
  EXPECT_FALSE(inPrologue(Slots));
}

TEST_F(HoistTest, BranchFragmentNeverGetsPrologue) {
  makeLoopFragment();
  F.Kind = FragmentKind::Branch;
  LIns *Tar = W().ins0(LOp::ParamTar);
  LIns *Inv = W().insLoad(LOp::LdQ, Tar, 16, Acc::Tar);
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
  LIns *Inv = W().insLoad(LOp::LdQ, Tar, 16, Acc::Tar);
  LIns *C = W().ins2(LOp::EqQ, Inv, Inv);
  LIns *G = W().insGuard(LOp::GuardT, C, exit());
  W().ins2(LOp::EqQ, Inv, Inv); // dead duplicate: GVN merges / DCE removes
  LIns *I = W().insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  LIns *One = W().insImmI(1);
  W().insStore(LOp::StI, W().ins2(LOp::AddI, I, One), Tar, 0, Acc::Tar);
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
  EXPECT_FALSE(O.Passes.has(OptPass::IndVar));
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

  EXPECT_TRUE(O.applyFlag("--jit-opt=none,indvar"));
  EXPECT_TRUE(O.Passes.has(OptPass::IndVar));
  EXPECT_FALSE(O.Passes.has(OptPass::Cse));
  EXPECT_EQ(O.Passes.describe(), "indvar");
}

TEST(OptPipelineFlags, MalformedJitOptRejected) {
  EngineOptions O;
  OptPipeline Before = O.Passes;
  EXPECT_FALSE(O.applyFlag("--jit-opt=nosuchpass"));
  EXPECT_FALSE(O.applyFlag("--jit-opt="));
  EXPECT_FALSE(O.applyFlag("--jit-opt=cse,,dce"));
  EXPECT_FALSE(O.applyFlag("-O3"));
  EXPECT_FALSE(O.applyFlag("--jit-opt=guardelim"));
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
      for (const char *Lvl : {"-O0", "-O2"}) {
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
  // guards, hoist code, and build at least one prologue. Guard elimination
  // is the CSE filter's, so -O0 drops guards too, but builds no prologue.
  const char *Src = "var o = {scale: 3, bias: 7};\n"
                    "var s = 0;\n"
                    "for (var i = 0; i < 5000; ++i) s += o.scale * i + o.bias;\n"
                    "print(s);";
  EngineOptions O;
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
  EXPECT_GT(R0.Stats.GuardsEliminated, 0u);
  EXPECT_EQ(R0.Stats.InsHoisted, 0u);
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

// --- End-to-end: the forward filters' location classes and ToInt32 fold ------

namespace {

/// Shape loads of \p F that repeat one on the same object (same SSA base)
/// with no write to the header class in between: loads CseFilter should
/// have merged, and with them their shape guards.
unsigned shapeReloads(const Fragment &F) {
  std::set<const LIns *> Loaded;
  unsigned N = 0;
  for (const LIns *I : F.Body) {
    bool CallWritesHeader =
        I->Op == LOp::Call && !I->CI->Pure && (I->CI->Writes & Acc::Header);
    if ((I->isStore() && (I->Loc & Acc::Header)) || CallWritesHeader ||
        I->Op == LOp::TreeCall)
      Loaded.clear();
    if (I->isLoad() && I->Loc == Acc::Header &&
        I->Disp == (int32_t)Object::shapeOffset())
      N += !Loaded.insert(I->A).second;
  }
  return N;
}

struct Traced {
  std::string Out;
  unsigned ToInt32Calls = 0;
  unsigned ShapeReloads = 0;
  unsigned Fragments = 0;
};

Traced runTraced(const std::string &Src, Backend B) {
  EngineOptions O;
  O.JitBackend = B;
  O.VerifyLir = true;
  O.CollectStats = true;
  Engine E(O);
  Traced T;
  E.setPrintHook([&](const std::string &S) { T.Out += S; });
  EvalResult R = E.eval(Src);
  EXPECT_TRUE(R.ok()) << R.Err.describe();
  EXPECT_EQ(E.stats().VerifyFailures, 0u);
  for (const auto &F : E.context().Monitor->fragments()) {
    T.ShapeReloads += shapeReloads(*F);
    T.Fragments += !F->Body.empty();
    for (const LIns *I : F->Body)
      T.ToInt32Calls +=
          I->Op == LOp::Call && I->CI == &helperCalls().ToInt32D;
  }
  return T;
}

std::string interpret(const std::string &Src) {
  EngineOptions O;
  O.EnableJit = false;
  return runWith(Src, O).Out;
}

const char *backendName(Backend B) {
  return B == Backend::Native ? "native" : "executor";
}

} // namespace

TEST(FilterEndToEnd, ToInt32OfAnExactIntSumIsIntArithmetic) {
  struct Case {
    const char *Src;
    bool Folds; ///< No js_ToInt32 call is left.
  };
  const Case Cases[] = {
      // Sums that wrap: int adds that overflowed while recording.
      {"var a = 2147483647, s = 0;\n"
       "for (var i = 1; i < 300; ++i) s = (s + ((a + i) | 0)) | 0;\n"
       "print(s, (2147483647 + 1) | 0);",
       true},
      // A subtraction chain with a constant and a >>> leaf.
      {"var m = -2147483647 - 1, t = 0;\n"
       "for (var i = 1; i < 300; ++i) t = (m - i - 7 + (i >>> 1)) | 0;\n"
       "print(t);",
       true},
      // A -0 leaf folds as 0.
      {"var a = 2147483647, t = 0;\n"
       "for (var i = 1; i < 300; ++i) t = (a + i + -0) | 0;\n"
       "print(t);",
       true},
      // A NaN leaf and a non-int32 leaf keep the call.
      {"var a = 2147483647, t = 0;\n"
       "for (var i = 1; i < 300; ++i) t = (a + i + NaN) | 0;\n"
       "print(t);",
       false},
      {"var a = 2147483647, t = 0;\n"
       "for (var i = 1; i < 300; ++i) t = (a + i + 0.5) | 0;\n"
       "print(t);",
       false},
      // A side exit between the add and the | 0: its snapshot reads the
      // double, which must still be there.
      {"var a = 2147483647, d = 0, t = 0, s = 0;\n"
       "for (var i = 1; i < 300; ++i) {\n"
       "  d = a + i;\n"
       "  if (i == 200) t = d;\n"
       "  s = d | 0;\n"
       "}\n"
       "print(s, t, d);",
       true},
  };
  for (const Case &C : Cases) {
    std::string Want = interpret(C.Src);
    for (Backend B : {Backend::Native, Backend::Executor}) {
      Traced T = runTraced(C.Src, B);
      EXPECT_EQ(T.Out, Want) << backendName(B) << "\n" << C.Src;
      EXPECT_GT(T.Fragments, 0u) << C.Src;
      if (C.Folds) {
        EXPECT_EQ(T.ToInt32Calls, 0u) << backendName(B) << "\n" << C.Src;
      } else {
        EXPECT_GT(T.ToInt32Calls, 0u) << backendName(B) << "\n" << C.Src;
      }
    }
  }
}

TEST(FilterEndToEnd, PropertyGuardsSurviveSlotStoresAndBoxing) {
  // Each iteration boxes doubles into named slots between property reads
  // of one object: one shape guard per object per fragment.
  const char *Src = "var o = {x: 1.5, y: 2, vx: 0.25, n: 0};\n"
                    "for (var i = 0; i < 500; ++i) {\n"
                    "  o.x = o.x + o.vx;\n"
                    "  o.n = o.n + 1;\n"
                    "  o.vx = o.vx * 0.5 + o.y;\n"
                    "}\n"
                    "print(o.x, o.n, o.vx);";
  std::string Want = interpret(Src);
  for (Backend B : {Backend::Native, Backend::Executor}) {
    Traced T = runTraced(Src, B);
    EXPECT_EQ(T.Out, Want) << backendName(B);
    EXPECT_GT(T.Fragments, 0u);
    EXPECT_EQ(T.ShapeReloads, 0u) << backendName(B);
  }
}

// The 14 SunSpider programs of perfbench, traced: each prints its
// .expected, no fragment reloads an object's shape unless the header class
// was written in between, and crypto-sha1's `| 0` sums are int arithmetic
// (only its product, which a double does not hold exactly, stays a call).
TEST(FilterEndToEnd, CorpusReloadsNoShapeAndFoldsSha1Sums) {
  namespace fs = std::filesystem;
  const char *Programs[] = {
      "bitops-bitwise-and", "bitops-3bit-bits-in-byte", "bitops-bits-in-byte",
      "bitops-nsieve-bits", "access-nsieve",            "access-fannkuch",
      "access-nbody",       "math-cordic",              "math-partial-sums",
      "math-spectral-norm", "3d-morph",                 "crypto-sha1",
      "string-base64",      "string-validate-input"};
  auto Slurp = [](const fs::path &P) {
    std::ifstream F(P);
    std::stringstream S;
    S << F.rdbuf();
    return S.str();
  };
  for (const char *Name : Programs) {
    fs::path P = fs::path(TRACEJIT_PERFBENCH_PROGRAMS) / Name;
    std::string Src = Slurp(P.string() + ".js");
    std::string Want = Slurp(P.string() + ".expected");
    ASSERT_FALSE(Src.empty()) << P;
    for (Backend B : {Backend::Native, Backend::Executor}) {
      Traced T = runTraced(Src, B);
      EXPECT_EQ(T.Out, Want) << Name << " " << backendName(B);
      EXPECT_EQ(T.ShapeReloads, 0u) << Name << " " << backendName(B);
      if (std::string(Name) == "crypto-sha1") {
        EXPECT_LE(T.ToInt32Calls, 1u) << backendName(B);
      }
    }
  }
}

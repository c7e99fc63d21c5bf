//===- test_verify.cpp - LIR verifier negative and positive paths -------------===//
//
// Negative path: hand-construct malformed LIR -- type-mismatched ops,
// use-before-def, dangling exits, bad type-map lengths -- and assert each
// trips the expected VerifyRule, through both entry points (the streaming
// VerifyWriter and the whole-trace verifyTrace()).
//
// Positive path: run representative tier-1 programs through the engine
// with VerifyLir forced on (both backends) and assert the verifier stays
// silent while actually covering traces.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <vector>

#include "api/engine.h"
#include "frontend/bytecode.h"
#include "jit/fragment.h"
#include "lir/verify.h"
#include "support/stats.h"
#include "trace/helpers.h"

using namespace tracejit;

namespace {

/// Streaming fixture: a VerifyWriter writing straight into a LirBuffer
/// (no filters in between, so every emission reaches the tail verbatim).
struct StreamFixture {
  Arena A;
  LirBuffer Buf{A};
  VMStats Stats;
  Fragment Frag;
  VerifyWriter W{&Buf, Buf, /*NumGlobals=*/1, &Stats};

  ExitDescriptor *exit(uint32_t Sp) {
    ExitDescriptor *E = Frag.makeExit();
    E->Sp = Sp;
    E->Types.NumGlobals = 1;
    E->Types.Types.assign(1 + Sp, TraceType::Int);
    return E;
  }
};

/// Whole-trace fixture: build a body directly in the buffer (bypassing the
/// streaming verifier), move it into a fragment, and run verifyTrace.
struct TraceFixture {
  Arena A;
  LirBuffer Buf{A};
  VMStats Stats;
  Fragment Frag;

  ExitDescriptor *exit(uint32_t Sp) {
    ExitDescriptor *E = Frag.makeExit();
    E->Sp = Sp;
    E->Types.NumGlobals = 1;
    E->Types.Types.assign(1 + Sp, TraceType::Int);
    return E;
  }

  VerifyRule run() {
    Frag.Body = Buf.instructions();
    VerifyError Err;
    bool Ok = verifyTrace(Frag, /*NumGlobals=*/1, Err, &Stats);
    EXPECT_NE(Ok, static_cast<bool>(Err));
    return Err.Rule;
  }
};

// --- Streaming negatives ---------------------------------------------------------

TEST(VerifyWriter, OperandTypeMismatch) {
  StreamFixture F;
  LIns *I = F.W.insImmI(1);
  LIns *D = F.W.insImmD(2.5);
  F.W.ins2(LOp::AddI, I, D); // i32 + d
  ASSERT_TRUE(F.W.failed());
  EXPECT_EQ(F.W.error().Rule, VerifyRule::OperandType);
  EXPECT_EQ(F.Stats.VerifyFailures, 1u);
  EXPECT_EQ(F.Stats.VerifyFailuresByRule[(size_t)VerifyRule::OperandType], 1u);
}

TEST(VerifyWriter, MissingOperand) {
  StreamFixture F;
  F.W.ins2(LOp::AddI, F.W.insImmI(1), nullptr);
  ASSERT_TRUE(F.W.failed());
  EXPECT_EQ(F.W.error().Rule, VerifyRule::MissingOperand);
}

TEST(VerifyWriter, UseBeforeDef) {
  StreamFixture F;
  // An instruction minted outside the pipeline: never entered the buffer.
  LIns *Stray = F.A.make<LIns>();
  Stray->Op = LOp::ImmI;
  Stray->Ty = LTy::I32;
  Stray->Id = 7;
  F.W.ins2(LOp::AddI, F.W.insImmI(1), Stray);
  ASSERT_TRUE(F.W.failed());
  EXPECT_EQ(F.W.error().Rule, VerifyRule::UseBeforeDef);
}

TEST(VerifyWriter, GuardWithoutExit) {
  StreamFixture F;
  LIns *C = F.W.ins2(LOp::EqI, F.W.insImmI(1), F.W.insImmI(2));
  F.W.insGuard(LOp::GuardT, C, nullptr);
  ASSERT_TRUE(F.W.failed());
  EXPECT_EQ(F.W.error().Rule, VerifyRule::GuardWithoutExit);
}

TEST(VerifyWriter, ExitTypeMapLength) {
  StreamFixture F;
  ExitDescriptor *E = F.exit(3);
  E->Types.Types.resize(1); // covers 1 slot, needs 1 + 3
  LIns *C = F.W.ins2(LOp::EqI, F.W.insImmI(1), F.W.insImmI(2));
  F.W.insGuard(LOp::GuardT, C, E);
  ASSERT_TRUE(F.W.failed());
  EXPECT_EQ(F.W.error().Rule, VerifyRule::ExitTypeMapLength);
}

TEST(VerifyWriter, ExitGlobalsMismatch) {
  StreamFixture F;
  ExitDescriptor *E = F.exit(1);
  E->Types.NumGlobals = 0; // fragment slot domain says 1 global
  F.W.insExit(E);
  ASSERT_TRUE(F.W.failed());
  EXPECT_EQ(F.W.error().Rule, VerifyRule::ExitTypeMapLength);
}

TEST(VerifyWriter, ExitConstSlots) {
  // Exit-constant slots must be sorted stack slots below the exit's Sp,
  // with a word that fits their type.
  struct Case {
    std::vector<ExitConstSlot> Slots;
    TraceType Ty;
    bool Ok;
  } Cases[] = {
      {{{1, 5}, {2, 7}}, TraceType::Int, true},
      {{{2, 7}, {1, 5}}, TraceType::Int, false},  // unsorted
      {{{1, 5}, {1, 5}}, TraceType::Int, false},  // duplicate
      {{{0, 5}}, TraceType::Int, false},          // a global
      {{{3, 5}}, TraceType::Int, false},          // above the exit's Sp
      {{{1, 1ull << 32}}, TraceType::Int, false}, // not an int32 word
      {{{1, 2}}, TraceType::Boolean, false},
      {{{1, 0}}, TraceType::Undefined, false},
  };
  for (const Case &C : Cases) {
    StreamFixture F;
    ExitDescriptor *E = F.exit(2);
    E->Types.Types[1] = E->Types.Types[2] = C.Ty;
    E->ConstSlots = C.Slots;
    F.W.insExit(E);
    EXPECT_EQ(F.W.failed(), !C.Ok) << C.Slots.size() << " slots";
    if (!C.Ok) {
      EXPECT_EQ(F.W.error().Rule, VerifyRule::ExitConstSlots);
    }
  }
}

TEST(VerifyWriter, TarAddressingUnaligned) {
  StreamFixture F;
  LIns *Tar = F.W.ins0(LOp::ParamTar);
  F.W.insLoad(LOp::LdI, Tar, 12); // not 8-aligned
  ASSERT_TRUE(F.W.failed());
  EXPECT_EQ(F.W.error().Rule, VerifyRule::TarAddressing);
}

TEST(VerifyWriter, TarAddressingNegative) {
  StreamFixture F;
  LIns *Tar = F.W.ins0(LOp::ParamTar);
  F.W.insStore(LOp::StI, F.W.insImmI(5), Tar, -8);
  ASSERT_TRUE(F.W.failed());
  EXPECT_EQ(F.W.error().Rule, VerifyRule::TarAddressing);
}

TEST(VerifyWriter, ShiftCountNotImmediate) {
  StreamFixture F;
  LIns *Tar = F.W.ins0(LOp::ParamTar);
  LIns *Q = F.W.insLoad(LOp::LdQ, Tar, 0);
  LIns *Count = F.W.insLoad(LOp::LdI, Tar, 8); // i32 but not ImmI
  F.W.ins2(LOp::ShrQ, Q, Count);
  ASSERT_TRUE(F.W.failed());
  EXPECT_EQ(F.W.error().Rule, VerifyRule::ShiftCountNotImm);
}

TEST(VerifyTrace, CallSignatureArity) {
  TraceFixture F;
  CallInfo CI;
  CI.Name = "fake";
  CI.Ret = LTy::D;
  CI.NArgs = 1;
  CI.Args[0] = LTy::D;
  LIns *Args[1] = {F.Buf.insImmD(1.0)};
  F.Buf.insCall(&CI, Args, 1);
  F.Buf.insLoop();
  CI.NArgs = 2; // signature changed under the emitted call
  CI.Args[1] = LTy::D;
  EXPECT_EQ(F.run(), VerifyRule::CallSignature);
}

TEST(VerifyWriter, CallSignatureArgType) {
  StreamFixture F;
  CallInfo CI;
  CI.Name = "fake";
  CI.Ret = LTy::D;
  CI.NArgs = 1;
  CI.Args[0] = LTy::D;
  LIns *Args[1] = {F.W.insImmI(1)}; // i32 where the signature wants d
  F.W.insCall(&CI, Args, 1);
  ASSERT_TRUE(F.W.failed());
  EXPECT_EQ(F.W.error().Rule, VerifyRule::CallSignature);
}

TEST(VerifyWriter, TreeCallTargetNotRoot) {
  StreamFixture F;
  Fragment Inner;
  Fragment Root;
  Inner.Root = &Root; // a branch fragment, not a root
  ExitDescriptor *Mismatch = F.exit(0);
  F.W.insTreeCall(&Inner, Mismatch, Mismatch);
  ASSERT_TRUE(F.W.failed());
  EXPECT_EQ(F.W.error().Rule, VerifyRule::TransferTarget);
}

TEST(VerifyWriter, FirstErrorLatches) {
  StreamFixture F;
  F.W.ins2(LOp::AddI, F.W.insImmI(1), F.W.insImmD(2.0)); // OperandType
  LIns *C = F.W.ins2(LOp::EqI, F.W.insImmI(1), F.W.insImmI(2));
  F.W.insGuard(LOp::GuardT, C, nullptr); // would be GuardWithoutExit
  ASSERT_TRUE(F.W.failed());
  EXPECT_EQ(F.W.error().Rule, VerifyRule::OperandType);
  EXPECT_EQ(F.Stats.VerifyFailures, 1u);
}

TEST(VerifyWriter, CleanStreamReportsNothing) {
  StreamFixture F;
  LIns *Tar = F.W.ins0(LOp::ParamTar);
  LIns *X = F.W.insLoad(LOp::LdI, Tar, 0);
  LIns *Y = F.W.ins2(LOp::AddI, X, F.W.insImmI(1));
  F.W.insStore(LOp::StI, Y, Tar, 0);
  LIns *C = F.W.ins2(LOp::LtI, Y, F.W.insImmI(100));
  F.W.insGuard(LOp::GuardT, C, F.exit(0));
  F.W.ins0(LOp::Loop);
  EXPECT_FALSE(F.W.failed());
  EXPECT_EQ(F.Stats.VerifyFailures, 0u);
  EXPECT_GT(F.Stats.LirInsVerified, 0u);
}

// --- Whole-trace negatives -------------------------------------------------------

TEST(VerifyTrace, EmptyBodyIsMissingTerminator) {
  TraceFixture F;
  EXPECT_EQ(F.run(), VerifyRule::Terminator);
}

TEST(VerifyTrace, BodyMustEndInTerminator) {
  TraceFixture F;
  F.Buf.insImmI(1);
  EXPECT_EQ(F.run(), VerifyRule::Terminator);
}

TEST(VerifyTrace, TerminatorMustBeLast) {
  TraceFixture F;
  F.Buf.insLoop();
  F.Buf.insImmI(1);
  EXPECT_EQ(F.run(), VerifyRule::Terminator);
}

TEST(VerifyTrace, DanglingOperandAfterDce) {
  TraceFixture F;
  LIns *X = F.Buf.insImmI(1);
  LIns *Y = F.Buf.insImmI(2);
  F.Buf.ins2(LOp::AddI, X, Y);
  F.Buf.insLoop();
  F.Frag.Body = F.Buf.instructions();
  // Simulate a buggy DCE pass that removed a value a survivor still uses.
  F.Frag.Body.erase(F.Frag.Body.begin() + 1);
  VerifyError Err;
  EXPECT_FALSE(verifyTrace(F.Frag, 1, Err, &F.Stats));
  EXPECT_EQ(Err.Rule, VerifyRule::DanglingOperand);
}

TEST(VerifyTrace, UseBeforeDefAfterReorder) {
  TraceFixture F;
  LIns *X = F.Buf.insImmI(1);
  LIns *Y = F.Buf.insImmI(2);
  F.Buf.ins2(LOp::AddI, X, Y);
  F.Buf.insLoop();
  F.Frag.Body = F.Buf.instructions();
  // Swap the AddI above one of its operands.
  std::swap(F.Frag.Body[1], F.Frag.Body[2]);
  VerifyError Err;
  EXPECT_FALSE(verifyTrace(F.Frag, 1, Err, &F.Stats));
  EXPECT_EQ(Err.Rule, VerifyRule::UseBeforeDef);
}

TEST(VerifyTrace, ResultTypeTampered) {
  TraceFixture F;
  LIns *X = F.Buf.insImmI(1);
  LIns *Y = F.Buf.ins2(LOp::AddI, X, X);
  F.Buf.insLoop();
  Y->Ty = LTy::D; // AddI yields i32
  EXPECT_EQ(F.run(), VerifyRule::ResultType);
}

TEST(VerifyTrace, TarSlotOutsideDomain) {
  TraceFixture F;
  LIns *Tar = F.Buf.ins0(LOp::ParamTar);
  F.Buf.insLoad(LOp::LdI, Tar, 5 * 8);
  F.Buf.insLoop();
  F.Frag.RequiredTarSlots = 4; // slot 5 is out of range
  EXPECT_EQ(F.run(), VerifyRule::TarAddressing);
}

TEST(VerifyTrace, ExitFrameBaseAboveSp) {
  TraceFixture F;
  FunctionScript Script;
  Script.Code.assign(16, 0);
  ExitDescriptor *E = F.exit(2);
  E->Frames.push_back({&Script, 5, 0}); // base 5 above sp 2
  F.Buf.insExit(E);
  EXPECT_EQ(F.run(), VerifyRule::ExitFrameBounds);
}

TEST(VerifyTrace, ExitResumePcOutsideScript) {
  TraceFixture F;
  FunctionScript Script;
  Script.Code.assign(16, 0);
  ExitDescriptor *E = F.exit(2);
  E->Pc = 99; // script has 16 bytes of code
  E->Frames.push_back({&Script, 0, 0});
  F.Buf.insExit(E);
  EXPECT_EQ(F.run(), VerifyRule::ExitFrameBounds);
}

TEST(VerifyTrace, ExitFrameBasesNotMonotonic) {
  TraceFixture F;
  FunctionScript Script;
  Script.Code.assign(16, 0);
  ExitDescriptor *E = F.exit(8);
  E->Frames.push_back({&Script, 6, 0});
  E->Frames.push_back({&Script, 2, 3}); // inner frame below outer frame
  F.Buf.insExit(E);
  EXPECT_EQ(F.run(), VerifyRule::ExitFrameBounds);
}

TEST(VerifyTrace, TreeCallTypeMapDisagreement) {
  TraceFixture F;
  LoopRecord Loop;
  Fragment Inner;
  Inner.Root = &Inner;
  Inner.Loop = &Loop;
  Inner.EntryTypes.NumGlobals = 1;
  Inner.EntryTypes.Types = {TraceType::Int, TraceType::Double};

  // The expected exit belongs to the same loop's tree.
  ExitDescriptor *Expected = Inner.makeExit();

  // Call-site mismatch snapshot disagrees with the inner entry map.
  ExitDescriptor *Mismatch = F.exit(1); // {Int, Int}
  F.Buf.insTreeCall(&Inner, Expected, Mismatch);
  F.Buf.insLoop();
  EXPECT_EQ(F.run(), VerifyRule::TreeCallTypeMaps);
}

TEST(VerifyTrace, TreeCallExitFromForeignLoop) {
  TraceFixture F;
  LoopRecord LoopA, LoopB;
  Fragment Inner;
  Inner.Root = &Inner;
  Inner.Loop = &LoopA;
  Inner.EntryTypes.NumGlobals = 1;
  Inner.EntryTypes.Types = {TraceType::Int, TraceType::Int};

  Fragment Other;
  Other.Root = &Other;
  Other.Loop = &LoopB;
  ExitDescriptor *Foreign = Other.makeExit();

  ExitDescriptor *Mismatch = F.exit(1);
  F.Buf.insTreeCall(&Inner, Foreign, Mismatch);
  F.Buf.insLoop();
  EXPECT_EQ(F.run(), VerifyRule::TransferTarget);
}

TEST(VerifyTrace, JmpFragToNonRoot) {
  TraceFixture F;
  Fragment Root;
  Fragment Branch;
  Branch.Root = &Root;
  F.Buf.insJmpFrag(&Branch);
  EXPECT_EQ(F.run(), VerifyRule::TransferTarget);
}

TEST(VerifyTrace, CleanTracePasses) {
  TraceFixture F;
  LIns *Tar = F.Buf.ins0(LOp::ParamTar);
  LIns *X = F.Buf.insLoad(LOp::LdI, Tar, 8);
  LIns *Y = F.Buf.ins2(LOp::AddI, X, F.Buf.insImmI(1));
  F.Buf.insStore(LOp::StI, Y, Tar, 8);
  LIns *C = F.Buf.ins2(LOp::LtI, Y, F.Buf.insImmI(100));
  F.Buf.insGuard(LOp::GuardT, C, F.exit(1));
  F.Buf.insLoop();
  F.Frag.RequiredTarSlots = 2;
  EXPECT_EQ(F.run(), VerifyRule::None);
  EXPECT_EQ(F.Stats.TracesVerified, 1u);
  EXPECT_GT(F.Stats.LirInsVerified, 0u);
}

// A Boxed entry slot has no typed word in the TAR: loading it, or an exit
// that writes it back before anything stored it, reads garbage.
TEST(VerifyTrace, LoadOfABoxedEntrySlot) {
  TraceFixture F;
  F.Frag.EntryTypes.NumGlobals = 1;
  F.Frag.EntryTypes.Types = {TraceType::Boxed, TraceType::Int};
  LIns *Tar = F.Buf.ins0(LOp::ParamTar);
  F.Buf.insLoad(LOp::LdI, Tar, 0);
  F.Buf.insLoop();
  EXPECT_EQ(F.run(), VerifyRule::UntypedTarSlot);
}

TEST(VerifyTrace, ExitWritesBackABoxedEntrySlot) {
  TraceFixture F;
  F.Frag.EntryTypes.NumGlobals = 1;
  F.Frag.EntryTypes.Types = {TraceType::Boxed, TraceType::Int};
  F.Buf.ins0(LOp::ParamTar);
  F.Buf.insExit(F.exit(1)); // types global 0
  EXPECT_EQ(F.run(), VerifyRule::UntypedTarSlot);
}

TEST(VerifyTrace, StoreTypesABoxedEntrySlot) {
  TraceFixture F;
  F.Frag.EntryTypes.NumGlobals = 1;
  F.Frag.EntryTypes.Types = {TraceType::Boxed, TraceType::Int};
  LIns *Tar = F.Buf.ins0(LOp::ParamTar);
  F.Buf.insStore(LOp::StI, F.Buf.insImmI(3), Tar, 0);
  F.Buf.insExit(F.exit(1));
  EXPECT_EQ(F.run(), VerifyRule::None);
}

// After a tree call the TAR holds what the expected exit types; a slot
// the inner tree types but returns Boxed is not there for the back edge.
TEST(VerifyTrace, BackEdgeNeedsWhatTheTreeCallLeftBoxed) {
  TraceFixture F;
  F.Frag.EntryTypes.NumGlobals = 1;
  F.Frag.EntryTypes.Types = {TraceType::Int, TraceType::Int};
  LoopRecord Loop;
  Fragment Inner;
  Inner.Root = &Inner;
  Inner.Loop = &Loop;
  Inner.EntryTypes = F.Frag.EntryTypes;
  ExitDescriptor *Expected = Inner.makeExit();
  Expected->Sp = 1;
  Expected->Types.NumGlobals = 1;
  Expected->Types.Types = {TraceType::Int, TraceType::Boxed};
  F.Buf.ins0(LOp::ParamTar);
  F.Buf.insTreeCall(&Inner, Expected, F.exit(1));
  F.Buf.insLoop();
  EXPECT_EQ(F.run(), VerifyRule::UntypedTarSlot);
}

// A local dead at a loop header is dropped, not stored, on the way there:
// the target's entry map must leave it Boxed. If a liveness bug dropped a
// slot the target types, the target would read a TAR word nothing wrote --
// the verifier rejects the trace instead of letting it compute with that.
TEST(VerifyTrace, BackEdgeDropsASlotTheEntryMapTypes) {
  // A root's back edge after a call to an inner tree that dropped slot 1
  // (dead at the inner header): neither the inner tree nor the call site
  // left it in the TAR.
  TraceFixture F;
  F.Frag.EntryTypes.NumGlobals = 1;
  F.Frag.EntryTypes.Types = {TraceType::Int, TraceType::Int};
  LoopRecord Loop;
  Fragment Inner;
  Inner.Root = &Inner;
  Inner.Loop = &Loop;
  Inner.EntryTypes.NumGlobals = 1;
  Inner.EntryTypes.Types = {TraceType::Int, TraceType::Boxed};
  ExitDescriptor *Expected = Inner.makeExit();
  Expected->Sp = 1;
  Expected->Types = Inner.EntryTypes;
  ExitDescriptor *Site = F.exit(1);
  Site->Types.Types[1] = TraceType::Boxed; // dropped, not kept
  F.Buf.ins0(LOp::ParamTar);
  F.Buf.insTreeCall(&Inner, Expected, Site);
  F.Buf.insLoop();
  EXPECT_EQ(F.run(), VerifyRule::UntypedTarSlot);

  // A branch anchored before the body wrote slot 1 drops it at its back
  // edge into a root that types it.
  TraceFixture B;
  Fragment Root;
  Root.Root = &Root;
  Root.EntryTypes.NumGlobals = 1;
  Root.EntryTypes.Types = {TraceType::Int, TraceType::Int};
  B.Frag.Root = &Root;
  B.Frag.EntryTypes.NumGlobals = 1;
  B.Frag.EntryTypes.Types = {TraceType::Int, TraceType::Boxed};
  B.Buf.ins0(LOp::ParamTar);
  B.Buf.insJmpFrag(&Root);
  EXPECT_EQ(B.run(), VerifyRule::UntypedTarSlot);

  // Storing the slot before the back edge satisfies the root.
  TraceFixture C;
  C.Frag.Root = &Root;
  C.Frag.EntryTypes = B.Frag.EntryTypes;
  LIns *Tar = C.Buf.ins0(LOp::ParamTar);
  C.Buf.insStore(LOp::StI, C.Buf.insImmI(4), Tar, 8);
  C.Buf.insJmpFrag(&Root);
  C.Frag.RequiredTarSlots = 2;
  EXPECT_EQ(C.run(), VerifyRule::None);
}

// --- Positive path: the verifier stays silent on real traces ---------------------

const char *kPrograms[] = {
    // Int loop with an overflowing accumulator and branches.
    "var s = 0;\n"
    "for (var i = 0; i < 200; i = i + 1) {\n"
    "  if (i % 3 == 0) s = s + i; else s = s - 1;\n"
    "}\n"
    "print(s);\n",
    // Type-unstable loop: int promoted to double mid-loop.
    "var x = 0;\n"
    "for (var i = 0; i < 120; i = i + 1) {\n"
    "  if (i > 60) x = x + 0.5; else x = x + 1;\n"
    "}\n"
    "print(x);\n",
    // Nested loops (tree calls) over an array.
    "var arr = [1, 2, 3, 4, 5, 6, 7, 8];\n"
    "var t = 0;\n"
    "for (var i = 0; i < 40; i = i + 1) {\n"
    "  for (var j = 0; j < 8; j = j + 1) {\n"
    "    t = t + arr[j];\n"
    "  }\n"
    "}\n"
    "print(t);\n",
    // Function calls inlined into the trace.
    "function sq(n) { return n * n; }\n"
    "var acc = 0;\n"
    "for (var i = 0; i < 100; i = i + 1) { acc = acc + sq(i); }\n"
    "print(acc);\n",
};

void runVerified(Backend B) {
  for (const char *Src : kPrograms) {
    EngineOptions O;
    O.EnableJit = true;
    O.JitBackend = B;
    O.CollectStats = true;
    O.VerifyLir = true;
    Engine E(O);
    std::string Out;
    E.setPrintHook([&](const std::string &S) { Out += S; });
    auto R = E.eval(Src);
    ASSERT_TRUE(R.ok()) << R.Err.describe() << "\nprogram:\n" << Src;
    const VMStats &S = E.stats();
    EXPECT_GT(S.TracesVerified, 0u) << Src;
    EXPECT_GT(S.LirInsVerified, 0u) << Src;
    EXPECT_EQ(S.VerifyFailures, 0u) << Src;
    EXPECT_EQ(S.AbortsByReason[(size_t)AbortReason::VerifyFailed], 0u) << Src;
  }
}

TEST(VerifyPositive, NativeBackendTracesStayClean) { runVerified(Backend::Native); }

TEST(VerifyPositive, ExecutorBackendTracesStayClean) {
  runVerified(Backend::Executor);
}

} // namespace

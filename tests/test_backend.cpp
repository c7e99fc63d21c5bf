//===- test_backend.cpp - Assembler, exec memory, native compiler ------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "api/engine.h"
#include "interp/vmcontext.h"
#include "jit/assembler_x64.h"
#include "jit/compiler_x64.h"
#include "jit/execmem.h"
#include "jit/executor.h"
#include "lir/lir.h"
#include "lir/verify.h"
#include "support/arena.h"
#include "trace/helpers.h"
#include "trace/monitor.h"

using namespace tracejit;

namespace {

/// Assemble a tiny function and call it directly. The pool is W^X: code is
/// emitted through the RW write view and called through its RX exec view.
template <typename FnT> FnT assembleInto(ExecMemPool &Pool, Assembler &A) {
  EXPECT_FALSE(A.overflowed());
  return (FnT)Pool.execAddr(A.begin());
}

} // namespace

TEST(ExecMem, AllocatesAlignedExecutableMemory) {
  ExecMemPool Pool(1 << 20);
  ASSERT_TRUE(Pool.valid());
  uint8_t *A = Pool.allocate(100);
  uint8_t *B = Pool.allocate(100);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ((uintptr_t)A % 16, 0u);
  EXPECT_EQ((uintptr_t)B % 16, 0u);
  EXPECT_GE(B, A + 100);
}

TEST(ExecMem, ExecViewSharesPagesWithTheWriteView) {
  ExecMemPool Pool(1 << 16);
  ASSERT_TRUE(Pool.valid());
  EXPECT_EQ(Pool.execAddr(nullptr), nullptr);
  uint8_t *W = Pool.allocate(32);
  ASSERT_NE(W, nullptr);
  uint8_t *X = Pool.execAddr(W);
  EXPECT_NE(X, W) << "a second mapping, not the write view";
  EXPECT_EQ(Pool.execAddr(W + 7), X + 7);
  // Bytes written after the views were mapped show through the exec view.
  for (int K = 0; K < 32; ++K)
    W[K] = (uint8_t)(K * 7 + 1);
  EXPECT_EQ(memcmp(W, X, 32), 0);
  W[3] = 0xCC;
  EXPECT_EQ(X[3], 0xCC);
}

TEST(Assembler, ReturnConstant) {
  ExecMemPool Pool(1 << 16);
  ASSERT_TRUE(Pool.valid());
  Assembler A(Pool.allocate(64), 64);
  A.movRI32(RAX, 12345);
  A.ret();
  auto Fn = assembleInto<int (*)()>(Pool, A);
  EXPECT_EQ(Fn(), 12345);
}

TEST(Assembler, IntegerArithmetic) {
  ExecMemPool Pool(1 << 16);
  ASSERT_TRUE(Pool.valid());
  // int f(int a, int b) { return (a + b) * 3 - (a & b); }
  Assembler A(Pool.allocate(128), 128);
  A.movRR32(RAX, RDI);
  A.addRR32(RAX, RSI);
  A.movRI32(RCX, 3);
  A.imulRR32(RAX, RCX);
  A.movRR32(RDX, RDI);
  A.andRR32(RDX, RSI);
  A.subRR32(RAX, RDX);
  A.ret();
  auto Fn = assembleInto<int (*)(int, int)>(Pool, A);
  EXPECT_EQ(Fn(5, 7), 31);
  EXPECT_EQ(Fn(-4, 9), 15 - (-4 & 9));
}

TEST(Assembler, MemoryAndShifts) {
  ExecMemPool Pool(1 << 16);
  ASSERT_TRUE(Pool.valid());
  // int f(int* p) { return (p[0] << 4) | (p[1] >> 2); }
  Assembler A(Pool.allocate(128), 128);
  A.movRM32(RAX, RDI, 0);
  A.shlI32(RAX, 4);
  A.movRM32(RCX, RDI, 4);
  A.sarI32(RCX, 2);
  A.orRR32(RAX, RCX);
  A.ret();
  auto Fn = assembleInto<int (*)(int *)>(Pool, A);
  int Data[2] = {3, 40};
  EXPECT_EQ(Fn(Data), (3 << 4) | (40 >> 2));
}

TEST(Assembler, DoubleArithmetic) {
  ExecMemPool Pool(1 << 16);
  ASSERT_TRUE(Pool.valid());
  // double f(double a, double b) { return a * b + a; }
  Assembler A(Pool.allocate(64), 64);
  A.movsdRR(XMM2, XMM0);
  A.mulsd(XMM2, XMM1);
  A.addsd(XMM2, XMM0);
  A.movsdRR(XMM0, XMM2);
  A.ret();
  auto Fn = assembleInto<double (*)(double, double)>(Pool, A);
  EXPECT_EQ(Fn(2.5, 4.0), 12.5);
}

TEST(Assembler, ConversionsAndCompares) {
  ExecMemPool Pool(1 << 16);
  ASSERT_TRUE(Pool.valid());
  // int f(double d, int i) { return (int)d + (d > (double)i ? 10 : 0); }
  Assembler A(Pool.allocate(128), 128);
  A.cvttsd2si(RAX, XMM0);
  A.cvtsi2sd(XMM1, RDI);
  A.ucomisd(XMM0, XMM1);
  A.setcc(CondA, RCX);
  A.movzxByteRR(RCX, RCX);
  A.movRI32(RDX, 10);
  A.imulRR32(RCX, RDX);
  A.addRR32(RAX, RCX);
  A.ret();
  auto Fn = assembleInto<int (*)(int, double)>(Pool, A); // (rdi, xmm0)
  EXPECT_EQ(Fn(3, 7.5), 7 + 10);
  EXPECT_EQ(Fn(9, 7.5), 7 + 0);
}

TEST(Assembler, JumpsAndPatching) {
  ExecMemPool Pool(1 << 16);
  ASSERT_TRUE(Pool.valid());
  // int f(int a) { if (a < 0) return -1; return 1; }
  Assembler A(Pool.allocate(64), 64);
  A.testRR32(RDI, RDI);
  uint8_t *Neg = A.jccFwd(CondS);
  A.movRI32(RAX, 1);
  A.ret();
  uint8_t *NegTarget = A.pc();
  A.movRI32(RAX, -1);
  A.ret();
  Assembler::patchRel32(Neg, NegTarget);
  auto Fn = assembleInto<int (*)(int)>(Pool, A);
  EXPECT_EQ(Fn(5), 1);
  EXPECT_EQ(Fn(-5), -1);
}

TEST(Assembler, ExtendedRegistersEncodeCorrectly) {
  ExecMemPool Pool(1 << 16);
  ASSERT_TRUE(Pool.valid());
  // Exercise r8-r15 and xmm8+: int f(int a) { return a * 2 + 7; }
  Assembler A(Pool.allocate(128), 128);
  A.push(R15); // callee-saved: the C++ caller may live in it
  A.movRR32(R8, RDI);
  A.addRR32(R8, RDI);
  A.movRI32(R15, 7);
  A.addRR32(R8, R15);
  A.movRR32(RAX, R8);
  A.pop(R15);
  A.ret();
  auto Fn = assembleInto<int (*)(int)>(Pool, A);
  EXPECT_EQ(Fn(21), 49);
}

TEST(Assembler, ImmediateFormsPickTheShortestEncoding) {
  ExecMemPool Pool(1 << 16);
  ASSERT_TRUE(Pool.valid());
  struct Case {
    uint64_t Imm;
    size_t Bytes; ///< mov r32 / mov r64 sign-extended / movabs
  } Cases[] = {{0, 5},
               {0x7fffffff, 5},
               {0xffffffffu, 5},
               {(uint64_t)-8, 7},
               {(uint64_t)INT32_MIN, 7},
               {0x100000000ull, 10},
               {0x8000000000000000ull, 10}};
  for (const Case &C : Cases) {
    Assembler A(Pool.allocate(32), 32);
    A.movRI64(RAX, C.Imm);
    EXPECT_EQ(A.size(), C.Bytes) << std::hex << C.Imm;
    A.ret();
    auto Fn = assembleInto<uint64_t (*)()>(Pool, A);
    EXPECT_EQ(Fn(), C.Imm);
  }

  // int64 f(int a, int64 *p): group-1 ALU and store immediates, imm8 and
  // imm32 forms, 32- and 64-bit.
  Assembler A(Pool.allocate(256), 256);
  A.movRR32(RAX, RDI);
  uint8_t *Before = A.pc();
  A.aluRI(false, AluAdd, RAX, 5); // imm8: 3 bytes
  EXPECT_EQ(A.pc() - Before, 3);
  A.aluRI(false, AluAnd, RAX, 0x3ff);   // imm32
  A.aluRI(false, AluXor, RAX, -1);      // ~((a + 5) & 0x3ff)
  A.imulRRI32(RCX, RAX, 3);        // rcx = eax * 3
  A.imulRRI32(RCX, RCX, 1000);     // imm32 form
  A.movMI(false, RSI, 0, 77);           // p[0] low half = 77
  A.movMI(true, RSI, 8, -2);            // p[1] = -2
  A.movsxdRR(RAX, RCX);
  A.aluRI(true, AluAdd, RAX, -100000); // sign-extended imm32
  A.testRR(true, RAX, RAX);
  uint8_t *Pos = A.jccFwd(CondNS);
  A.aluRI(true, AluOr, RAX, 1); // negative results come back odd
  Assembler::patchRel32(Pos, A.pc());
  A.ret();
  auto Fn = assembleInto<int64_t (*)(int, int64_t *)>(Pool, A);
  int64_t Mem[2] = {-1, 0};
  int32_t Want = (int32_t)~((7 + 5) & 0x3ff) * 3 * 1000;
  EXPECT_EQ(Fn(7, Mem), ((int64_t)Want - 100000) | 1);
  EXPECT_EQ((int32_t)Mem[0], 77);
  EXPECT_EQ(Mem[1], -2);
}

// --- Native vs executor on hand-built LIR fragments --------------------------------

namespace {

struct BackendFixture : ::testing::Test {
  EngineOptions Opts;
  VMContext Ctx{Opts};
  NativeBackend BE{&Ctx};
  Arena A;

  /// Run a fragment under both backends against the same TAR contents and
  /// require identical exits and TAR effects.
  void checkBoth(Fragment &F, std::vector<uint64_t> TarInit,
                 ExitDescriptor *WantExit) {
    ASSERT_TRUE(BE.valid());
    VerifyError Err;
    ASSERT_TRUE(verifyTrace(F, F.EntryTypes.NumGlobals, Err))
        << Err.describe();

    std::vector<uint64_t> TarN = TarInit, TarX = TarInit;
    TarN.resize(TarInit.size() + 64);
    TarX.resize(TarInit.size() + 64);

    ASSERT_EQ(BE.compile(&F), CompileResult::Ok);
    ExitDescriptor *EN = BE.enter(TarN.data(), &F);
    ExitDescriptor *EX =
        LirExecutor::run(&F, (uint8_t *)TarX.data(), &Ctx);
    EXPECT_EQ(EN, WantExit);
    EXPECT_EQ(EX, WantExit);
    EXPECT_EQ(TarN, TarX) << "backends disagree on TAR effects";
  }

  /// An exit whose map types \p Types as stack slots over no globals: the
  /// exit-map shape verifyTrace requires.
  static ExitDescriptor *stackExit(Fragment &F, std::vector<TraceType> Types) {
    ExitDescriptor *E = F.makeExit();
    E->Sp = (uint32_t)Types.size();
    E->Types.Types = std::move(Types);
    return E;
  }
};

} // namespace

TEST_F(BackendFixture, CountingLoopFragment) {
  // slot0 = i; loop until i == 100, incrementing.
  Fragment F;
  LirBuffer Buf(A);
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *I = Buf.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  LIns *Done = Buf.ins2(LOp::EqI, I, Buf.insImmI(100));
  ExitDescriptor *E = stackExit(F, {TraceType::Int});
  Buf.insGuard(LOp::GuardF, Done, E);
  LIns *Next = Buf.ins2(LOp::AddI, I, Buf.insImmI(1));
  Buf.insStore(LOp::StI, Next, Tar, 0, Acc::Tar);
  Buf.insLoop();
  F.Body = Buf.instructions();

  std::vector<uint64_t> TarInit = {0, 0, 0, 0};
  checkBoth(F, TarInit, E);
}

TEST_F(BackendFixture, DoubleAccumulationFragment) {
  Fragment F;
  LirBuffer Buf(A);
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *I = Buf.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  LIns *S = Buf.insLoad(LOp::LdD, Tar, 8, Acc::Tar);
  LIns *S2 = Buf.ins2(LOp::AddD, S, Buf.insImmD(0.125));
  Buf.insStore(LOp::StD, S2, Tar, 8, Acc::Tar);
  LIns *Next = Buf.ins2(LOp::AddI, I, Buf.insImmI(1));
  Buf.insStore(LOp::StI, Next, Tar, 0, Acc::Tar);
  ExitDescriptor *E = stackExit(F, {TraceType::Int, TraceType::Double});
  Buf.insGuard(LOp::GuardT, Buf.ins2(LOp::LtI, Next, Buf.insImmI(64)), E);
  Buf.insLoop();
  F.Body = Buf.instructions();

  std::vector<uint64_t> TarInit = {0, 0, 0, 0};
  checkBoth(F, TarInit, E);
  // Spot-check the math: 64 iterations of +0.125 = 8.0.
  std::vector<uint64_t> TarMem = TarInit;
  TarMem.resize(68);
  LirExecutor::run(&F, (uint8_t *)TarMem.data(), &Ctx);
  double Result;
  memcpy(&Result, &TarMem[1], 8);
  EXPECT_EQ(Result, 8.0);
}

TEST_F(BackendFixture, OverflowGuardExits) {
  Fragment F;
  LirBuffer Buf(A);
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *X = Buf.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  ExitDescriptor *Ov = stackExit(F, {TraceType::Int});
  LIns *Dbl = Buf.insOvf(LOp::AddOvI, X, X, Ov);
  Buf.insStore(LOp::StI, Dbl, Tar, 0, Acc::Tar);
  Buf.insLoop();
  F.Body = Buf.instructions();

  // Starts at 3: doubles until it overflows int32, then must exit.
  std::vector<uint64_t> TarInit = {3, 0};
  checkBoth(F, TarInit, Ov);
}

TEST_F(BackendFixture, ManyLiveValuesForceSpills) {
  // More simultaneously-live values than registers: exercises the
  // furthest-next-use spill heuristic (§5.2).
  Fragment F;
  LirBuffer Buf(A);
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  constexpr int N = 40;
  LIns *Vals[N];
  for (int K = 0; K < N; ++K)
    Vals[K] = Buf.insLoad(LOp::LdI, Tar, K * 8, Acc::Tar);
  // Consume in reverse so everything stays live a long time.
  LIns *Acc = Buf.insImmI(0);
  for (int K = N - 1; K >= 0; --K)
    Acc = Buf.ins2(LOp::AddI, Acc, Vals[K]);
  Buf.insStore(LOp::StI, Acc, Tar, N * 8, Acc::Tar);
  ExitDescriptor *E = F.makeExit();
  E->Sp = 0;
  Buf.insExit(E);
  F.Body = Buf.instructions();

  std::vector<uint64_t> TarInit(N + 2);
  for (int K = 0; K < N; ++K)
    TarInit[K] = (uint64_t)(K + 1);
  checkBoth(F, TarInit, E);
  // Validate the sum through the executor copy.
  std::vector<uint64_t> TarMem = TarInit;
  TarMem.resize(TarInit.size() + 64);
  LirExecutor::run(&F, (uint8_t *)TarMem.data(), &Ctx);
  EXPECT_EQ((int32_t)TarMem[N], N * (N + 1) / 2);
}

TEST_F(BackendFixture, FoldedImmediatesMatchTheExecutor) {
  // The compiler folds an immediate operand into the instruction (imm8 /
  // imm32 forms, `test` for a compare against zero, swapped conditions for
  // an immediate on the left, `mov [m], imm` stores). Every form must agree
  // with the LIR executor, with the immediate on either side.
  const int32_t Xs[] = {-5, -1, 0, 1, 7, 300, INT32_MAX, INT32_MIN};
  const int32_t Imms[] = {0, 1, -1, 7, 300, INT32_MIN};
  // x = tar[0]; tar[1] = Op(x, imm) or Op(imm, x); then either exit E1, or
  // (Guard) exit E0 when the result is zero and E1 otherwise.
  auto Check = [&](LOp Op, bool ImmLeft, bool Guard, LTy Ty, int64_t Imm) {
    for (int32_t X : Xs) {
      Fragment F;
      LirBuffer Buf(A);
      LIns *Tar = Buf.ins0(LOp::ParamTar);
      bool Q = Ty == LTy::Q;
      LIns *V = Buf.insLoad(Q ? LOp::LdQ : LOp::LdI, Tar, 0, Acc::Tar);
      LIns *K = Q ? Buf.insImmQ(Imm) : Buf.insImmI((int32_t)Imm);
      TraceType T = Q ? TraceType::Object : TraceType::Int;
      ExitDescriptor *E0 = stackExit(F, {T, T});
      ExitDescriptor *E1 = stackExit(F, {T, T});
      LIns *L = ImmLeft ? K : V, *R = ImmLeft ? V : K;
      LIns *Res = Op == LOp::AddOvI || Op == LOp::SubOvI || Op == LOp::MulOvI
                      ? Buf.insOvf(Op, L, R, E0)
                      : Buf.ins2(Op, L, R);
      if (Guard)
        Buf.insGuard(LOp::GuardT, Res, E0);
      else
        Buf.insStore(Res->Ty == LTy::Q ? LOp::StQ : LOp::StI, Res, Tar, 8,
                     Acc::Tar);
      Buf.insExit(E1);
      F.Body = Buf.instructions();
      // The executor decides which exit is right; checkBoth then requires
      // the native code to agree on it and on the TAR.
      std::vector<uint64_t> Init = {(uint64_t)(int64_t)X, 0xdeadbeef, 0, 0};
      std::vector<uint64_t> Probe = Init;
      Probe.resize(Init.size() + 64);
      ExitDescriptor *Want =
          LirExecutor::run(&F, (uint8_t *)Probe.data(), &Ctx);
      SCOPED_TRACE(std::string(lopName(Op)) + " imm=" + std::to_string(Imm) +
                   (ImmLeft ? " left" : " right") + (Guard ? " guard" : "") +
                   " x=" + std::to_string(X));
      checkBoth(F, Init, Want);
    }
  };
  for (LOp Op : {LOp::EqI, LOp::NeI, LOp::LtI, LOp::LeI, LOp::GtI, LOp::GeI,
                 LOp::LtUI})
    for (int32_t Imm : Imms)
      for (bool Left : {false, true})
        for (bool Guard : {false, true})
          Check(Op, Left, Guard, LTy::I32, Imm);
  for (LOp Op : {LOp::AddI, LOp::SubI, LOp::MulI, LOp::AndI, LOp::OrI,
                 LOp::XorI, LOp::AddOvI, LOp::SubOvI, LOp::MulOvI})
    for (int32_t Imm : Imms)
      for (bool Left : {false, true})
        Check(Op, Left, false, LTy::I32, Imm);
  for (int64_t Imm : {(int64_t)0, (int64_t)7, (int64_t)-8, (int64_t)INT32_MAX,
                      (int64_t)1 << 40}) {
    for (LOp Op : {LOp::AddQ, LOp::AndQ, LOp::OrQ})
      for (bool Left : {false, true})
        Check(Op, Left, false, LTy::Q, Imm);
    for (bool Left : {false, true})
      for (bool Guard : {false, true})
        Check(LOp::EqQ, Left, Guard, LTy::Q, Imm);
  }

  // Stores of immediates, 32- and 64-bit.
  for (int64_t Imm : {(int64_t)-2, (int64_t)77, (int64_t)1 << 40}) {
    Fragment F;
    LirBuffer Buf(A);
    LIns *Tar = Buf.ins0(LOp::ParamTar);
    Buf.insStore(LOp::StI, Buf.insImmI((int32_t)Imm), Tar, 0, Acc::Tar);
    Buf.insStore(LOp::StQ, Buf.insImmQ(Imm), Tar, 8, Acc::Tar);
    ExitDescriptor *E = stackExit(F, {TraceType::Int, TraceType::Object});
    Buf.insExit(E);
    F.Body = Buf.instructions();
    checkBoth(F, {~0ull, ~0ull, 0, 0}, E);
  }
}

TEST_F(BackendFixture, StitchedExitTransfersToBranchFragment) {
  // Fragment A exits; its exit is patched to fragment B, which writes a
  // marker and exits through its own descriptor.
  Fragment FB;
  LirBuffer BufB(A);
  {
    LIns *Tar = BufB.ins0(LOp::ParamTar);
    BufB.insStore(LOp::StI, BufB.insImmI(777), Tar, 8, Acc::Tar);
    ExitDescriptor *EB = FB.makeExit();
    EB->Sp = 0;
    BufB.insExit(EB);
    FB.Body = BufB.instructions();
  }
  ASSERT_EQ(BE.compile(&FB), CompileResult::Ok);

  Fragment FA;
  LirBuffer BufA(A);
  ExitDescriptor *EA;
  {
    LIns *Tar = BufA.ins0(LOp::ParamTar);
    LIns *X = BufA.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
    EA = FA.makeExit();
    EA->Sp = 0;
    BufA.insGuard(LOp::GuardT, BufA.ins2(LOp::EqI, X, BufA.insImmI(0)), EA);
    ExitDescriptor *EEnd = FA.makeExit();
    EEnd->Sp = 0;
    BufA.insExit(EEnd);
    FA.Body = BufA.instructions();
  }
  ASSERT_EQ(BE.compile(&FA), CompileResult::Ok);

  BE.patchExitTo(EA, &FB);

  // Native path.
  std::vector<uint64_t> Tar(8, 0);
  Tar[0] = 5; // guard fails -> goes through the stitched exit into FB
  ExitDescriptor *Got = BE.enter(Tar.data(), &FA);
  EXPECT_EQ(Got, FB.Exits[0].get());
  EXPECT_EQ((int32_t)Tar[1], 777);

  // Executor path follows Exit->Target the same way.
  std::vector<uint64_t> Tar2(8, 0);
  Tar2[0] = 5;
  ExitDescriptor *Got2 = LirExecutor::run(&FA, (uint8_t *)Tar2.data(), &Ctx);
  EXPECT_EQ(Got2, FB.Exits[0].get());
  EXPECT_EQ((int32_t)Tar2[1], 777);
}

namespace {

/// Where the rel32 jump at \p Site lands (write view).
const uint8_t *rel32Target(const uint8_t *Site) {
  int32_t Rel;
  memcpy(&Rel, Site, 4);
  return Site + 4 + Rel;
}

/// The exit stub every jump site of \p E leads to.
const uint8_t *stubOf(const ExitDescriptor *E) {
  EXPECT_FALSE(E->JumpSites.empty());
  const uint8_t *Stub = rel32Target(E->JumpSites[0]);
  for (const uint8_t *Site : E->JumpSites)
    EXPECT_EQ(rel32Target(Site), Stub) << "every site leads to one stub";
  return Stub;
}

/// True when \p Bytes occurs in \p F's native code.
bool codeContains(const Fragment &F, std::initializer_list<uint8_t> Bytes) {
  std::vector<uint8_t> Needle(Bytes);
  return std::search(F.NativeEntry, F.NativeEntry + F.NativeSize,
                     Needle.begin(),
                     Needle.end()) != F.NativeEntry + F.NativeSize;
}

/// A fragment that stores 777 to TAR word 1 and exits: a stitch target.
void buildMarker(Arena &A, Fragment &FB) {
  LirBuffer Buf(A);
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  Buf.insStore(LOp::StI, Buf.insImmI(777), Tar, 8, Acc::Tar);
  Buf.insExit(FB.makeExit());
  FB.Body = Buf.instructions();
}

} // namespace

TEST_F(BackendFixture, ExitStubsAreFourBytesWithOneTailPerFragment) {
  // 40 guards with their own exits, then an unconditional exit: 41 stubs.
  // Each stub is `mov al, <index>` plus a jump to the fragment's one exit
  // tail; the last 32 reach it with jmp rel8, the earlier ones need jmp
  // rel32. Both forms must return the right descriptor, natively and when
  // stitched.
  constexpr int NGuards = 40;
  Fragment FB;
  buildMarker(A, FB);
  ASSERT_EQ(BE.compile(&FB), CompileResult::Ok);

  Fragment F;
  LirBuffer Buf(A);
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *X = Buf.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  for (int K = 0; K < NGuards; ++K)
    Buf.insGuard(LOp::GuardF, Buf.ins2(LOp::EqI, X, Buf.insImmI(K)),
                 F.makeExit());
  ExitDescriptor *EEnd = F.makeExit();
  Buf.insExit(EEnd);
  F.Body = Buf.instructions();
  ASSERT_EQ(BE.compile(&F), CompileResult::Ok);

  ASSERT_EQ(F.ExitTable.size(), (size_t)NGuards + 1);
  int Rel8 = 0, Rel32 = 0;
  for (uint32_t I = 0; I < F.ExitTable.size(); ++I) {
    ExitDescriptor *E = F.ExitTable[I];
    EXPECT_EQ(E, F.Exits[I].get());
    ASSERT_EQ(E->JumpSites.size(), 1u);
    const uint8_t *P = stubOf(E);
    EXPECT_EQ(P[0], 0xB0) << "stub " << I << " starts with mov al, imm8";
    EXPECT_EQ(P[1], I);
    if (P[2] == 0xEB) {
      ++Rel8;
      if (I + 1 < F.ExitTable.size()) {
        EXPECT_EQ(stubOf(F.ExitTable[I + 1]), P + 4) << "4-byte stub";
      }
    } else {
      EXPECT_EQ(P[2], 0xE9) << "stub " << I;
      ++Rel32;
    }
  }
  EXPECT_EQ(Rel8, 32);
  EXPECT_EQ(Rel32, NGuards + 1 - 32);
  // Stubs plus the tail end the fragment. The tail is `movzx eax, al`
  // (3 bytes) and then 19 bytes when the exit table's address needs a
  // movabs, as it does on 64-bit hosts with the heap above 4 GiB; a
  // shorter mov takes 5 or 7.
  const uint8_t *Tail = stubOf(EEnd) + 4;
  EXPECT_EQ(Tail[0], 0x0F);
  EXPECT_EQ(Tail[1], 0xB6);
  EXPECT_EQ(Tail[2], 0xC0);
  uint64_t Table = (uint64_t)(uintptr_t)F.ExitTable.data();
  uint32_t TailBytes = Table <= 0xffffffffu           ? 14
                       : fitsSImm32((int64_t)Table) ? 16
                                                    : 19;
  EXPECT_EQ(F.NativeEntry + F.NativeSize, Tail + 3 + TailBytes);

  for (int K : {0, 5, 8, 9, 20, 39}) {
    std::vector<uint64_t> TarN(8, 0), TarX(8, 0);
    TarN[0] = TarX[0] = (uint64_t)K;
    EXPECT_EQ(BE.enter(TarN.data(), &F), F.Exits[K].get()) << K;
    EXPECT_EQ(LirExecutor::run(&F, (uint8_t *)TarX.data(), &Ctx),
              F.Exits[K].get())
        << K;
  }
  std::vector<uint64_t> TarEnd(8, 0);
  TarEnd[0] = 1000;
  EXPECT_EQ(BE.enter(TarEnd.data(), &F), EEnd);

  // Stitch the exit of one rel32-form stub and one rel8-form stub. The
  // guard's own jcc is rewritten to enter FB; the stub stays as it was.
  for (int K : {0, NGuards - 1}) {
    ExitDescriptor *E = F.Exits[K].get();
    const uint8_t *Stub = stubOf(E);
    BE.patchExitTo(E, &FB);
    EXPECT_EQ(rel32Target(E->JumpSites[0]), FB.NativeEntry);
    EXPECT_EQ(Stub[0], 0xB0) << "the stub is not patched";
    std::vector<uint64_t> T(8, 0);
    T[0] = (uint64_t)K;
    EXPECT_EQ(BE.enter(T.data(), &F), FB.Exits[0].get()) << K;
    EXPECT_EQ((int32_t)T[1], 777);
  }
  // An unstitched neighbour still exits through the tail.
  std::vector<uint64_t> T(8, 0);
  T[0] = 1;
  EXPECT_EQ(BE.enter(T.data(), &F), F.Exits[1].get());
}

TEST_F(BackendFixture, MoreThan256ExitsIndexStubsWithAFullWord) {
  // Past 256 exits a byte cannot index the exit table: every stub is
  // `mov eax, imm32`, and the tail has no movzx.
  constexpr int NGuards = 300;
  Fragment F;
  LirBuffer Buf(A);
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *X = Buf.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
  for (int K = 0; K < NGuards; ++K)
    Buf.insGuard(LOp::GuardF, Buf.ins2(LOp::EqI, X, Buf.insImmI(K)),
                 F.makeExit());
  ExitDescriptor *EEnd = F.makeExit();
  Buf.insExit(EEnd);
  F.Body = Buf.instructions();
  ASSERT_EQ(BE.compile(&F), CompileResult::Ok);
  for (int K : {0, 255, 256, 299}) {
    const uint8_t *P = stubOf(F.Exits[K].get());
    EXPECT_EQ(P[0], 0xB8) << K;
    uint32_t Imm;
    memcpy(&Imm, P + 1, 4);
    EXPECT_EQ(Imm, (uint32_t)K);
    std::vector<uint64_t> TarN(8, 0), TarX(8, 0);
    TarN[0] = TarX[0] = (uint64_t)K;
    EXPECT_EQ(BE.enter(TarN.data(), &F), F.Exits[K].get()) << K;
    EXPECT_EQ(LirExecutor::run(&F, (uint8_t *)TarX.data(), &Ctx),
              F.Exits[K].get());
  }
  EXPECT_EQ(stubOf(EEnd)[5], 0xEB) << "the last stub reaches the tail";
  EXPECT_NE(stubOf(EEnd)[7], 0x0F) << "no movzx in a word-indexed tail";
}

TEST_F(BackendFixture, StitchedEqDExitPatchesBothJumpSites) {
  // `GuardT(a == b)` on doubles exits when the operands are unordered
  // (jp) or unequal (jne): two jump sites for one exit. Stitching must
  // retarget both, so NaN and plain inequality both reach the branch.
  Fragment FB;
  buildMarker(A, FB);
  ASSERT_EQ(BE.compile(&FB), CompileResult::Ok);

  Fragment F;
  LirBuffer Buf(A);
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *X = Buf.insLoad(LOp::LdD, Tar, 16, Acc::Tar);
  LIns *Y = Buf.insLoad(LOp::LdD, Tar, 24, Acc::Tar);
  ExitDescriptor *E = F.makeExit();
  Buf.insGuard(LOp::GuardT, Buf.ins2(LOp::EqD, X, Y), E);
  ExitDescriptor *EEnd = F.makeExit();
  Buf.insExit(EEnd);
  F.Body = Buf.instructions();
  ASSERT_EQ(BE.compile(&F), CompileResult::Ok);
  ASSERT_EQ(E->JumpSites.size(), 2u);

  auto Run = [&](double A0, double B0, bool Native) {
    std::vector<uint64_t> T(8, 0);
    memcpy(&T[2], &A0, 8);
    memcpy(&T[3], &B0, 8);
    ExitDescriptor *Got =
        Native ? BE.enter(T.data(), &F)
               : LirExecutor::run(&F, (uint8_t *)T.data(), &Ctx);
    return std::make_pair(Got, (int32_t)T[1]);
  };
  const double NaN = std::nan("");
  for (bool Native : {true, false}) {
    EXPECT_EQ(Run(1.5, 1.5, Native).first, EEnd);
    EXPECT_EQ(Run(1.5, 2.5, Native).first, E);
    EXPECT_EQ(Run(NaN, 1.5, Native).first, E);
  }
  BE.patchExitTo(E, &FB);
  for (uint8_t *Site : E->JumpSites)
    EXPECT_EQ(rel32Target(Site), FB.NativeEntry);
  for (bool Native : {true, false}) {
    SCOPED_TRACE(Native ? "native" : "executor");
    EXPECT_EQ(Run(1.5, 1.5, Native), std::make_pair(EEnd, 0));
    EXPECT_EQ(Run(1.5, 2.5, Native), std::make_pair(FB.Exits[0].get(), 777));
    EXPECT_EQ(Run(NaN, 1.5, Native), std::make_pair(FB.Exits[0].get(), 777));
  }
}

TEST_F(BackendFixture, TreeCallMismatchStashesAndStitches) {
  // An inner tree with two exits; the outer trace expects the first. A
  // return through the second stashes it in LastNestedExit (through the
  // context register) and leaves by the mismatch exit, which stitching
  // can retarget like any other.
  Fragment FB;
  buildMarker(A, FB);
  ASSERT_EQ(BE.compile(&FB), CompileResult::Ok);

  Fragment FI;
  ExitDescriptor *Want, *Other;
  {
    LirBuffer Buf(A);
    LIns *Tar = Buf.ins0(LOp::ParamTar);
    LIns *X = Buf.insLoad(LOp::LdI, Tar, 0, Acc::Tar);
    Other = FI.makeExit();
    Buf.insGuard(LOp::GuardT, Buf.ins2(LOp::EqI, X, Buf.insImmI(0)), Other);
    Buf.insStore(LOp::StI, Buf.insImmI(5), Tar, 16, Acc::Tar);
    Want = FI.makeExit();
    Buf.insExit(Want);
    FI.Body = Buf.instructions();
  }
  ASSERT_EQ(BE.compile(&FI), CompileResult::Ok);

  Fragment FO;
  ExitDescriptor *Mismatch, *EEnd;
  {
    LirBuffer Buf(A);
    LIns *Tar = Buf.ins0(LOp::ParamTar);
    Mismatch = FO.makeExit();
    Mismatch->Kind = ExitKind::Nested;
    Buf.insTreeCall(&FI, Want, Mismatch);
    Buf.insStore(LOp::StI, Buf.insImmI(9), Tar, 24, Acc::Tar);
    EEnd = FO.makeExit();
    Buf.insExit(EEnd);
    FO.Body = Buf.instructions();
  }
  ASSERT_EQ(BE.compile(&FO), CompileResult::Ok);
  // The stash is one `mov [r15+d8], rax`.
  int32_t Off = (int32_t)((uint8_t *)&Ctx.LastNestedExit - (uint8_t *)&Ctx);
  ASSERT_LT(Off, 128);
  EXPECT_TRUE(codeContains(FO, {0x49, 0x89, 0x47, (uint8_t)Off}));

  auto Run = [&](int32_t X, bool Native) {
    std::vector<uint64_t> T(8, 0);
    T[0] = (uint64_t)X;
    Ctx.LastNestedExit = nullptr;
    ExitDescriptor *Got =
        Native ? BE.enter(T.data(), &FO)
               : LirExecutor::run(&FO, (uint8_t *)T.data(), &Ctx);
    return std::make_pair(Got, T);
  };
  for (bool Native : {true, false}) {
    SCOPED_TRACE(Native ? "native" : "executor");
    auto [Hit, THit] = Run(0, Native);
    EXPECT_EQ(Hit, EEnd);
    EXPECT_EQ(THit[2], 5u);
    EXPECT_EQ(THit[3], 9u);
    EXPECT_EQ(Ctx.LastNestedExit, nullptr);
    auto [Miss, TMiss] = Run(1, Native);
    EXPECT_EQ(Miss, Mismatch);
    EXPECT_EQ(Ctx.LastNestedExit, Other);
    EXPECT_EQ(TMiss[3], 0u);
  }
  BE.patchExitTo(Mismatch, &FB);
  for (bool Native : {true, false}) {
    SCOPED_TRACE(Native ? "native" : "executor");
    auto [Got, T] = Run(1, Native);
    EXPECT_EQ(Got, FB.Exits[0].get());
    EXPECT_EQ(Ctx.LastNestedExit, Other);
    EXPECT_EQ((int32_t)T[1], 777);
  }
}

// --- Encodings: TAR bias, context register, call table ----------------------

TEST_F(BackendFixture, TarAccessesAtEveryDisplacementWidth) {
  // RBX points 128 bytes into the TAR: offsets 0-248 take a disp8, the
  // rest a disp32. Load, change and store an I, Q and D word at each.
  const int32_t Offsets[] = {0, 120, 128, 248, 256, 4096};
  for (LOp Ld : {LOp::LdI, LOp::LdQ, LOp::LdD}) {
    Fragment F;
    LirBuffer Buf(A);
    LIns *Tar = Buf.ins0(LOp::ParamTar);
    for (int32_t Off : Offsets) {
      LIns *V = Buf.insLoad(Ld, Tar, Off, Acc::Tar);
      if (Ld == LOp::LdI)
        Buf.insStore(LOp::StI, Buf.ins2(LOp::AddI, V, Buf.insImmI(Off + 1)),
                     Tar, Off, Acc::Tar);
      else if (Ld == LOp::LdQ)
        Buf.insStore(LOp::StQ,
                     Buf.ins2(LOp::AddQ, V, Buf.insImmQ((int64_t)1 << 40)),
                     Tar, Off, Acc::Tar);
      else
        Buf.insStore(LOp::StD, Buf.ins2(LOp::MulD, V, Buf.insImmD(-2.5)),
                     Tar, Off, Acc::Tar);
    }
    // An immediate store at a disp8 and a disp32 offset too.
    Buf.insStore(LOp::StI, Buf.insImmI(-7), Tar, 8, Acc::Tar);
    Buf.insStore(LOp::StQ, Buf.insImmQ(-9), Tar, 4104, Acc::Tar);
    ExitDescriptor *E = F.makeExit();
    Buf.insExit(E);
    F.Body = Buf.instructions();
    std::vector<uint64_t> Init(4112 / 8);
    for (size_t K = 0; K < Init.size(); ++K) {
      double D = (double)K * 0.75 + 1;
      if (Ld == LOp::LdD)
        memcpy(&Init[K], &D, 8);
      else
        Init[K] = 0x100000000ull * K + K * 3;
    }
    SCOPED_TRACE(lopName(Ld));
    checkBoth(F, Init, E);
    // The first access is `[rbx-0x80]`: modrm mod=01 base=rbx, disp8 0x80.
    const uint8_t ModRmDisp8Rbx[] = {0x43, 0x4B, 0x53, 0x73, 0x7B};
    bool Found = false;
    for (uint32_t K = 0; K + 1 < F.NativeSize && !Found; ++K)
      for (uint8_t M : ModRmDisp8Rbx)
        Found |= F.NativeEntry[K] == M && F.NativeEntry[K + 1] == 0x80;
    EXPECT_TRUE(Found) << "TAR byte 0 is not a disp8 of -128";
  }
}

namespace {

uint64_t tarWord1Plus(uint64_t *Tar, int64_t K) { return Tar[1] + K; }
uint64_t tarWord1PlusShim(void *Addr, const uint64_t *A) {
  return ((uint64_t(*)(uint64_t *, int64_t))Addr)((uint64_t *)A[0],
                                                  (int64_t)A[1]);
}

const VMContext *ExpectedCtx = nullptr;
int32_t isTheContext(VMContext *C, int32_t K) {
  return C == ExpectedCtx ? K * 2 : -1;
}
uint64_t isTheContextShim(void *Addr, const uint64_t *A) {
  return (uint64_t)(uint32_t)((int32_t(*)(VMContext *, int32_t))Addr)(
      (VMContext *)A[0], (int32_t)A[1]);
}

} // namespace

TEST_F(BackendFixture, TarAndContextPassedAsCallArguments) {
  // A hand-built helper outside the call table, so `movabs rax; call rax`:
  // it takes the TAR (`lea rdi, [rbx-128]`) and reads word 1 through it.
  // A second one takes the context (`mov rdi, r15`).
  CallInfo ReadTar;
  ReadTar.Addr = (void *)tarWord1Plus;
  ReadTar.Name = "tarWord1Plus";
  ReadTar.Ret = LTy::Q;
  ReadTar.NArgs = 2;
  ReadTar.Args[0] = ReadTar.Args[1] = LTy::Q;
  ReadTar.Shim = tarWord1PlusShim;
  CallInfo Probe;
  Probe.Addr = (void *)isTheContext;
  Probe.Name = "isTheContext";
  Probe.Ret = LTy::I32;
  Probe.NArgs = 2;
  Probe.Args[0] = LTy::Q;
  Probe.Args[1] = LTy::I32;
  Probe.Shim = isTheContextShim;
  EXPECT_EQ(BE.callSlot(ReadTar.Addr), nullptr);
  ExpectedCtx = &Ctx;

  Fragment F;
  LirBuffer Buf(A);
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *Args[2] = {Tar, Buf.insImmQ(5)};
  Buf.insStore(LOp::StQ, Buf.insCall(&ReadTar, Args, 2), Tar, 16, Acc::Tar);
  LIns *CArgs[2] = {Buf.insImmQ((int64_t)(intptr_t)&Ctx), Buf.insImmI(21)};
  Buf.insStore(LOp::StI, Buf.insCall(&Probe, CArgs, 2), Tar, 24, Acc::Tar);
  ExitDescriptor *E = F.makeExit();
  Buf.insExit(E);
  F.Body = Buf.instructions();
  checkBoth(F, {1, 1000, 0, 0}, E);
  std::vector<uint64_t> T = {1, 1000, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(BE.enter(T.data(), &F), E);
  EXPECT_EQ(T[2], 1005u);
  EXPECT_EQ((int32_t)T[3], 42);
  EXPECT_TRUE(codeContains(F, {0x48, 0x8D, 0x7B, 0x80})) << "lea rdi,[rbx-128]";
  EXPECT_TRUE(codeContains(F, {0x4C, 0x89, 0xFF})) << "mov rdi, r15";
  EXPECT_TRUE(codeContains(F, {0xFF, 0xD0})) << "call rax";
}

TEST_F(BackendFixture, TableHelperCallsThroughThePool) {
  // Every helper and traceable native has a slot in the pool floor; a call
  // to one is `call [rip+disp32]`. js_String_fromCharCode also takes the
  // context, and returns an interned unit string, so both backends store
  // the same word.
  for (const void *T : traceCallTargets()) {
    const uint8_t *Slot = BE.callSlot(T);
    ASSERT_NE(Slot, nullptr);
    uint64_t Word;
    memcpy(&Word, Slot, 8);
    EXPECT_EQ(Word, (uint64_t)(uintptr_t)T);
    EXPECT_GT(Slot, BE.trampolineCode());
    EXPECT_LT(Slot, BE.trampolineCode() + BE.pool().floorBytes());
  }
  const CallInfo &CI = helperCalls().FromCharCode1;
  Fragment F;
  LirBuffer Buf(A);
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *Args[2] = {Buf.insImmQ((int64_t)(intptr_t)&Ctx),
                   Buf.insLoad(LOp::LdI, Tar, 0, Acc::Tar)};
  Buf.insStore(LOp::StQ, Buf.insCall(&CI, Args, 2), Tar, 8, Acc::Tar);
  ExitDescriptor *E = F.makeExit();
  Buf.insExit(E);
  F.Body = Buf.instructions();
  checkBoth(F, {65, 0}, E);
  EXPECT_TRUE(codeContains(F, {0x4C, 0x89, 0xFF})) << "mov rdi, r15";
  EXPECT_TRUE(codeContains(F, {0xFF, 0x15})) << "call [rip+disp32]";
  EXPECT_FALSE(codeContains(F, {0xFF, 0xD0})) << "no call rax";
}

TEST_F(BackendFixture, LoadsFoldIntoGuardedCompares) {
  // A dword or byte load whose only use is a compare against an immediate,
  // fused with its guard, becomes `cmp [m], imm`. A byte load folds only
  // into == and != with an immediate that fits a byte: its zero-extended
  // value would compare wrongly as a signed byte.
  const uint64_t Words[] = {0, 1, 7, 200, 255, 0x80000000u, 0xfffffffeu};
  const int32_t Imms[] = {0, 1, 200, 255, 300, -1};
  for (LOp Ld : {LOp::LdI, LOp::LdUB})
    for (LOp Op : {LOp::EqI, LOp::NeI, LOp::LtI, LOp::GeI, LOp::LtUI})
      for (int32_t Imm : Imms)
        for (bool Left : {false, true})
          for (uint64_t W : Words) {
            Fragment F;
            LirBuffer Buf(A);
            LIns *Tar = Buf.ins0(LOp::ParamTar);
            LIns *V = Buf.insLoad(Ld, Tar, 8, Acc::Tar);
            LIns *K = Buf.insImmI(Imm);
            ExitDescriptor *E0 = F.makeExit();
            ExitDescriptor *E1 = F.makeExit();
            Buf.insGuard(LOp::GuardT,
                         Left ? Buf.ins2(Op, K, V) : Buf.ins2(Op, V, K), E0);
            Buf.insExit(E1);
            F.Body = Buf.instructions();
            std::vector<uint64_t> Init = {0, W, 0};
            std::vector<uint64_t> Probe = Init;
            Probe.resize(Init.size() + 64);
            ExitDescriptor *Want =
                LirExecutor::run(&F, (uint8_t *)Probe.data(), &Ctx);
            SCOPED_TRACE(std::string(lopName(Ld)) + " " + lopName(Op) +
                         " imm=" + std::to_string(Imm) +
                         (Left ? " left" : "") + " w=" + std::to_string(W));
            checkBoth(F, Init, Want);
            // `cmp byte [rbx-0x78], imm8` is 80 7B 88 ib.
            bool ByteCmp = codeContains(F, {0x80, 0x7B, 0x88});
            EXPECT_EQ(ByteCmp, Ld == LOp::LdUB &&
                                   (Op == LOp::EqI || Op == LOp::NeI) &&
                                   Imm >= 0 && Imm <= 255);
          }
}

TEST_F(BackendFixture, PreemptGuardComparesTheFlagInPlace) {
  // The §6.4 guard is `cmp dword [r15+d], 0; jne exit`: no register, no
  // movabs. It must fire on InterruptGC on both backends.
  Fragment F;
  LirBuffer Buf(A);
  LIns *Tar = Buf.ins0(LOp::ParamTar);
  LIns *FlagAddr = Buf.insImmQ((int64_t)(intptr_t)&Ctx.PreemptFlag);
  LIns *Flag = Buf.insLoad(LOp::LdI, FlagAddr, 0, Acc::Vm);
  ExitDescriptor *Pre = F.makeExit();
  Pre->Kind = ExitKind::Preempt;
  Buf.insGuard(LOp::GuardT, Buf.ins2(LOp::EqI, Flag, Buf.insImmI(0)), Pre);
  Buf.insStore(LOp::StI, Buf.insImmI(1), Tar, 0, Acc::Tar);
  ExitDescriptor *E = F.makeExit();
  Buf.insExit(E);
  F.Body = Buf.instructions();
  checkBoth(F, {0, 0}, E);
  Ctx.requestInterrupt(InterruptGC);
  checkBoth(F, {0, 0}, Pre);
  Ctx.PreemptFlag.store(0);
  checkBoth(F, {0, 0}, E);

  int32_t Off = (int32_t)((uint8_t *)&Ctx.PreemptFlag - (uint8_t *)&Ctx);
  ASSERT_LT(Off, 128);
  if (Off == 0)
    EXPECT_TRUE(codeContains(F, {0x41, 0x83, 0x3F, 0x00}));
  else
    EXPECT_TRUE(codeContains(F, {0x41, 0x83, 0x7F, (uint8_t)Off, 0x00}));
  EXPECT_FALSE(codeContains(F, {0x48, 0xB8})) << "no movabs rax";
}

// --- Frame cost of an inlined call ------------------------------------------------

TEST(Backend, DeepCallFrameCost) {
  // perfbench deep-call: ten nested one-line calls in a hot loop. Each
  // inlined frame should cost only its body: no return-pc store (exits
  // carry return pcs), and no store of an immediate into the TAR (callees
  // pinned by their identity guards and literal operands are exit-constant
  // slots, restored from the descriptors).
  const char *Src = R"js(
function fA(x) { return x + 1; }
function fB(x) { return fA(x) + 1; }
function fC(x) { return fB(x) + 1; }
function fD(x) { return fC(x) + 1; }
function fE(x) { return fD(x) + 1; }
function fF(x) { return fE(x) + 1; }
function fG(x) { return fF(x) + 1; }
function fH(x) { return fG(x) + 1; }
function fI(x) { return fH(x) + 1; }
function fJ(x) { return fI(x) + 1; }
var t = 0;
for (var i = 0; i < 100000; ++i) t = t + fJ(i & 1023);
print(t);
)js";
  EngineOptions O;
  O.JitBackend = Backend::Native;
  Engine E(O);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  ASSERT_TRUE(E.eval(Src).ok());
  EXPECT_EQ(Out, "52031728\n");

  const Fragment *Root = nullptr;
  for (const auto &F : E.context().Monitor->fragments())
    if (F->Kind == FragmentKind::Root && !F->Body.empty())
      Root = F.get();
  ASSERT_NE(Root, nullptr) << "deep-call must compile a tree";
  ASSERT_NE(Root->NativeEntry, nullptr);

  const std::vector<uint32_t> &Rps = E.context().FrameReturnPcs;
  uintptr_t RpLo = (uintptr_t)Rps.data(),
            RpHi = (uintptr_t)(Rps.data() + Rps.size());
  for (size_t P = Root->PrologueEnd; P < Root->Body.size(); ++P) {
    const LIns *I = Root->Body[P];
    if (!I->isStore())
      continue;
    if (I->B->Op == LOp::ImmQ) {
      uintptr_t Addr = (uintptr_t)I->B->Imm.ImmQ64 + I->Disp;
      EXPECT_FALSE(Addr >= RpLo && Addr < RpHi)
          << "return-pc store in the loop body: " << formatIns(I);
    }
    if (I->B->Op == LOp::ParamTar) {
      EXPECT_FALSE(I->A->isImm())
          << "immediate stored to a TAR slot: " << formatIns(I);
    }
  }
  // 700 bytes when this test was written, against 1121 with return-pc
  // stores, pinned-callee stores and literal-operand stores in the loop.
  EXPECT_LT(Root->NativeSize, 800u);
}

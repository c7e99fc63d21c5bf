//===- compiler_x64.cpp - LIR -> x86-64 compiler --------------------------------===//

#include "jit/compiler_x64.h"

#include <cassert>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "interp/vmcontext.h"
#include "jit/assembler_x64.h"
#include "lir/lir.h"

namespace tracejit {

// --- Runtime stubs -------------------------------------------------------------

NativeBackend::NativeBackend(size_t CacheBytes, const FaultHook *FI,
                             bool DualMap)
    : Pool(CacheBytes, FI, DualMap), Faults(FI) {
  if (!Pool.valid())
    return;
  emitRuntimeStubs();
  Pool.setFloor(); // whole-cache flushes keep the stubs
  Ready = Trampoline != nullptr;
}

void NativeBackend::emitRuntimeStubs() {
  uint8_t *Mem = Pool.reserve(128);
  if (!Mem)
    return;
  Assembler A(Mem, 128);

  // EnterFn(rdi = TAR, rsi = fragment code).
  uint8_t *Entry = A.pc();
  A.push(RBP);
  A.push(RBX);
  A.push(R12);
  A.push(R13);
  A.push(R14);
  A.push(R15);
  A.movRR64(RBX, RDI);
  A.addRI64(RSP, -SpillAreaBytes);
  A.jmpReg(RSI);

  // Shared epilogue: rax = ExitDescriptor*.
  SharedEpilogue = A.pc();
  A.addRI64(RSP, SpillAreaBytes);
  A.pop(R15);
  A.pop(R14);
  A.pop(R13);
  A.pop(R12);
  A.pop(RBX);
  A.pop(RBP);
  A.ret();

  if (A.overflowed()) {
    Pool.rewind();
    return;
  }
  Pool.commit(A.size());
  // The trampoline is called, so it must be an exec-view address (identity
  // in single-map mode). Everything else in the pool stays write-view.
  Trampoline = (EnterFn)Pool.execAddr(Entry);
}

void NativeBackend::patchExitTo(ExitDescriptor *E, Fragment *Target) {
  E->Target = Target;
  if (E->PatchAddr && Target->NativeEntry && Pool.makeWritable()) {
    // Overwrite the stub's `mov eax, <index>` with `jmp rel32`. If the W^X
    // flip fails, Target alone still routes the transfer: the stub keeps
    // returning to the monitor, which sees E->Target and resumes there.
    uint8_t *P = E->PatchAddr;
    P[0] = 0xE9;
    Assembler::patchRel32(P + 1, Target->NativeEntry);
  }
}

// --- Fragment compiler ------------------------------------------------------------

namespace {

/// Where a value currently lives.
enum class LocKind : uint8_t { None, Reg, Spill };

struct ValState {
  LocKind Loc = LocKind::None;
  uint8_t Reg = 0;     ///< Gpr or Xmm number depending on type.
  int32_t Slot = -1;   ///< Spill slot index, once assigned.
  uint32_t UseCursor = 0;
  std::vector<uint32_t> Uses; ///< Instruction positions that read this value.
  bool Fused = false;  ///< Compare folded into the following guard.
};

constexpr Gpr GprPool[] = {RCX, RDX, RSI, RDI, R8,  R9,  R10,
                           R11, RBP, R12, R13, R14, R15};
constexpr int NumGprPool = (int)(sizeof(GprPool) / sizeof(GprPool[0]));
constexpr bool isCallerSavedGpr(Gpr R) {
  return R == RCX || R == RDX || R == RSI || R == RDI || R == R8 || R == R9 ||
         R == R10 || R == R11;
}
constexpr Gpr IntArgRegs[] = {RDI, RSI, RDX, RCX, R8, R9};

constexpr int NumXmmPool = 15; // XMM1..XMM15; XMM0 is scratch/return

/// `mov eax, imm32` + `jmp rel8`: an exit stub within rel8 range of the tail.
constexpr uint32_t CompactStubBytes = 7;
/// `mov eax, imm32` + `jmp rel32`: an exit stub too far from the tail.
constexpr uint32_t FarStubBytes = 10;
/// How many stubs can precede the tail and still reach it with a rel8.
constexpr uint32_t MaxCompactStubs = 127 / CompactStubBytes + 1;

class FragmentCompiler {
public:
  FragmentCompiler(NativeBackend &BE, Fragment *F, VMContext *Ctx,
                   Assembler &A)
      : BE(BE), F(F), Ctx(Ctx), A(A), Body(F->Body) {}

  bool run();

private:
  // --- Value metadata --------------------------------------------------------
  ValState &st(LIns *I) { return States[I->Id]; }
  bool isXmmVal(LIns *I) const { return I->Ty == LTy::D; }

  uint32_t nextUse(LIns *V, uint32_t After) {
    ValState &S = st(V);
    for (uint32_t K = S.UseCursor; K < S.Uses.size(); ++K)
      if (S.Uses[K] > After)
        return S.Uses[K];
    return UINT32_MAX;
  }

  // --- Register file ----------------------------------------------------------
  LIns *GprHeld[16] = {};
  LIns *XmmHeld[16] = {};

  void freeReg(LIns *V) {
    ValState &S = st(V);
    if (S.Loc != LocKind::Reg)
      return;
    if (isXmmVal(V))
      XmmHeld[S.Reg] = nullptr;
    else
      GprHeld[S.Reg] = nullptr;
    S.Loc = S.Slot >= 0 ? LocKind::Spill : LocKind::None;
  }

  int32_t assignSlot(LIns *V) {
    ValState &S = st(V);
    if (S.Slot < 0) {
      S.Slot = NextSlot++;
      if (NextSlot > MaxSpillSlots)
        Failed = true;
    }
    return S.Slot;
  }

  void spill(LIns *V) {
    ValState &S = st(V);
    assert(S.Loc == LocKind::Reg);
    // Immediates are rematerialized, never spilled.
    if (!V->isImm() && V->Op != LOp::ParamTar) {
      int32_t Slot = assignSlot(V);
      if (isXmmVal(V))
        A.movsdMR(RSP, Slot * 8, (Xmm)S.Reg);
      else
        A.movMR64(RSP, Slot * 8, (Gpr)S.Reg);
      S.Loc = LocKind::Spill;
    } else {
      S.Loc = LocKind::None;
    }
    if (isXmmVal(V))
      XmmHeld[S.Reg] = nullptr;
    else
      GprHeld[S.Reg] = nullptr;
  }

  /// Paper §5.2: evict the value whose next reference is furthest away.
  Gpr allocGpr(uint32_t Pos, uint32_t AvoidMask) {
    for (int K = 0; K < NumGprPool; ++K) {
      Gpr R = GprPool[K];
      if (!GprHeld[R] && !(AvoidMask & (1u << R)))
        return R;
    }
    Gpr Victim = RCX;
    uint32_t Furthest = 0;
    bool Found = false;
    for (int K = 0; K < NumGprPool; ++K) {
      Gpr R = GprPool[K];
      if (AvoidMask & (1u << R))
        continue;
      uint32_t NU = nextUse(GprHeld[R], CurPos);
      if (!Found || NU > Furthest) {
        Furthest = NU;
        Victim = R;
        Found = true;
      }
    }
    if (!Found) {
      Failed = true;
      return RCX;
    }
    spill(GprHeld[Victim]);
    (void)Pos;
    return Victim;
  }

  Xmm allocXmm(uint32_t Pos, uint32_t AvoidMask) {
    for (int K = 1; K <= NumXmmPool; ++K) {
      if (!XmmHeld[K] && !(AvoidMask & (1u << K)))
        return (Xmm)K;
    }
    int Victim = 1;
    uint32_t Furthest = 0;
    bool Found = false;
    for (int K = 1; K <= NumXmmPool; ++K) {
      if (AvoidMask & (1u << K))
        continue;
      uint32_t NU = nextUse(XmmHeld[K], CurPos);
      if (!Found || NU > Furthest) {
        Furthest = NU;
        Victim = K;
        Found = true;
      }
    }
    if (!Found) {
      Failed = true;
      return XMM1;
    }
    spill(XmmHeld[Victim]);
    (void)Pos;
    return (Xmm)Victim;
  }

  void bindGpr(LIns *V, Gpr R) {
    GprHeld[R] = V;
    ValState &S = st(V);
    S.Loc = LocKind::Reg;
    S.Reg = R;
  }
  void bindXmm(LIns *V, Xmm R) {
    XmmHeld[R] = V;
    ValState &S = st(V);
    S.Loc = LocKind::Reg;
    S.Reg = R;
  }

  /// Materialize/reload \p V into a register, avoiding AvoidMask.
  Gpr ensureGpr(LIns *V, uint32_t AvoidMask = 0) {
    if (V->Op == LOp::ParamTar)
      return RBX;
    ValState &S = st(V);
    if (S.Loc == LocKind::Reg)
      return (Gpr)S.Reg;
    Gpr R = allocGpr(CurPos, AvoidMask);
    if (S.Loc == LocKind::Spill) {
      A.movRM64(R, RSP, S.Slot * 8);
    } else {
      switch (V->Op) {
      case LOp::ImmI:
        A.movRI32(R, V->Imm.ImmI32);
        break;
      case LOp::ImmQ:
        A.movRI64(R, (uint64_t)V->Imm.ImmQ64);
        break;
      default:
        Failed = true; // value was never defined: compiler bug
        break;
      }
    }
    bindGpr(V, R);
    return R;
  }

  Xmm ensureXmm(LIns *V, uint32_t AvoidMask = 0) {
    ValState &S = st(V);
    if (S.Loc == LocKind::Reg)
      return (Xmm)S.Reg;
    Xmm R = allocXmm(CurPos, AvoidMask);
    if (S.Loc == LocKind::Spill) {
      A.movsdRM(R, RSP, S.Slot * 8);
    } else if (V->Op == LOp::ImmD) {
      uint64_t Bits;
      std::memcpy(&Bits, &V->Imm.ImmDbl, 8);
      A.movRI64(RAX, Bits);
      A.movqXmmGpr(R, RAX);
    } else {
      Failed = true;
    }
    bindXmm(V, R);
    return R;
  }

  /// Release operand registers whose last use this was.
  void consume(LIns *V) {
    if (!V || V->Op == LOp::ParamTar)
      return;
    ValState &S = st(V);
    while (S.UseCursor < S.Uses.size() && S.Uses[S.UseCursor] <= CurPos)
      ++S.UseCursor;
    if (S.UseCursor >= S.Uses.size())
      freeReg(V);
  }

  Gpr defGpr(LIns *I, uint32_t AvoidMask = 0) {
    Gpr R = allocGpr(CurPos, AvoidMask);
    bindGpr(I, R);
    return R;
  }
  Xmm defXmm(LIns *I, uint32_t AvoidMask = 0) {
    Xmm R = allocXmm(CurPos, AvoidMask);
    bindXmm(I, R);
    return R;
  }

  static uint32_t maskOf(Gpr R) { return 1u << R; }
  static uint32_t maskOfX(Xmm R) { return 1u << R; }

  /// Spill every live caller-saved GPR and every live XMM (C call clobbers).
  void flushForCall() {
    for (int R = 0; R < 16; ++R)
      if (GprHeld[R] && isCallerSavedGpr((Gpr)R))
        spill(GprHeld[R]);
    for (int R = 0; R < 16; ++R)
      if (XmmHeld[R])
        spill(XmmHeld[R]);
  }

  /// Spill every live register at the prologue/loop boundary. The back edge
  /// jumps to LoopEntryPc, so any value computed in the prologue (or still
  /// in a register from the previous iteration) must live in its spill slot
  /// there: slots are per-value and never recycled, so a prologue value's
  /// slot stays valid for the whole trace. Immediates and ParamTar go to
  /// LocKind::None and are rematerialized on demand.
  void flushPrologue() {
    for (int R = 0; R < 16; ++R)
      if (GprHeld[R])
        spill(GprHeld[R]);
    for (int R = 0; R < 16; ++R)
      if (XmmHeld[R])
        spill(XmmHeld[R]);
  }

  /// Back-edge target: just past the hoisted prologue (set when the body
  /// has one; otherwise Loop jumps to NativeEntry).
  uint8_t *LoopEntryPc = nullptr;

  /// Load a call argument into a specific register from wherever it lives.
  void loadArgGpr(Gpr Dst, LIns *V);
  void loadArgXmm(Xmm Dst, LIns *V);

  // --- Exits ------------------------------------------------------------------
  struct PendingStub {
    uint8_t *Fixup;
    ExitDescriptor *Exit;
  };
  std::vector<PendingStub> Stubs;

  void jccToExit(Cond C, ExitDescriptor *E) {
    Stubs.push_back({A.jccFwd(C), E});
  }
  void jmpToExit(ExitDescriptor *E) { Stubs.push_back({A.jmpFwd(), E}); }

  // --- Instruction emission ------------------------------------------------------
  void emitIns(uint32_t Pos, LIns *I);
  void emitBinGpr32(LIns *I, void (Assembler::*Op)(Gpr, Gpr));
  void emitBinXmm(LIns *I, uint8_t SseOp);
  void emitCmpSet(LIns *I);
  void emitGuard(LIns *I);
  void emitShift(LIns *I);
  void emitCall(LIns *I);
  void emitTreeCall(LIns *I);

  /// Try to fuse a compare whose single use is the immediately following
  /// guard; returns true when handled at the guard site instead.
  bool fuseWithNextGuard(uint32_t Pos, LIns *I);
  void emitFusedGuard(LIns *Guard, LIns *Cmp);
  Cond intCondFor(LOp Op, bool *SwapOperands);

  NativeBackend &BE;
  Fragment *F;
  VMContext *Ctx;
  Assembler &A;
  std::vector<LIns *> &Body;
  std::vector<ValState> States;
  int32_t NextSlot = 0;
  uint32_t CurPos = 0;
  bool Failed = false;
};

void FragmentCompiler::loadArgGpr(Gpr Dst, LIns *V) {
  if (V->Op == LOp::ParamTar) {
    A.movRR64(Dst, RBX);
    return;
  }
  ValState &S = st(V);
  if (S.Loc == LocKind::Reg) {
    A.movRR64(Dst, (Gpr)S.Reg);
  } else if (S.Loc == LocKind::Spill) {
    A.movRM64(Dst, RSP, S.Slot * 8);
  } else if (V->Op == LOp::ImmI) {
    A.movRI32(Dst, V->Imm.ImmI32);
  } else if (V->Op == LOp::ImmQ) {
    A.movRI64(Dst, (uint64_t)V->Imm.ImmQ64);
  } else {
    Failed = true;
  }
}

void FragmentCompiler::loadArgXmm(Xmm Dst, LIns *V) {
  ValState &S = st(V);
  if (S.Loc == LocKind::Reg) {
    A.movsdRR(Dst, (Xmm)S.Reg);
  } else if (S.Loc == LocKind::Spill) {
    A.movsdRM(Dst, RSP, S.Slot * 8);
  } else if (V->Op == LOp::ImmD) {
    uint64_t Bits;
    std::memcpy(&Bits, &V->Imm.ImmDbl, 8);
    A.movRI64(RAX, Bits);
    A.movqXmmGpr(Dst, RAX);
  } else {
    Failed = true;
  }
}

Cond FragmentCompiler::intCondFor(LOp Op, bool *Swap) {
  *Swap = false;
  switch (Op) {
  case LOp::EqI:
  case LOp::EqQ:
    return CondE;
  case LOp::NeI:
    return CondNE;
  case LOp::LtI:
    return CondL;
  case LOp::LeI:
    return CondLE;
  case LOp::GtI:
    return CondG;
  case LOp::GeI:
    return CondGE;
  case LOp::LtUI:
    return CondB;
  default:
    assert(false);
    return CondE;
  }
}

static Cond invert(Cond C) { return (Cond)(C ^ 1); }

bool FragmentCompiler::fuseWithNextGuard(uint32_t Pos, LIns *I) {
  ValState &S = st(I);
  if (S.Uses.size() != 1 || S.Uses[0] != Pos + 1)
    return false;
  LIns *Next = Body[Pos + 1];
  if ((Next->Op != LOp::GuardT && Next->Op != LOp::GuardF) || Next->A != I)
    return false;
  S.Fused = true;
  return true;
}

void FragmentCompiler::emitFusedGuard(LIns *G, LIns *C) {
  bool ExitIfTrue = G->Op == LOp::GuardF;
  switch (C->Op) {
  case LOp::EqI:
  case LOp::NeI:
  case LOp::LtI:
  case LOp::LeI:
  case LOp::GtI:
  case LOp::GeI:
  case LOp::LtUI: {
    Gpr Ra = ensureGpr(C->A);
    Gpr Rb = ensureGpr(C->B, maskOf(Ra));
    A.cmpRR32(Ra, Rb);
    consume(C->A);
    consume(C->B);
    bool Swap;
    Cond CC = intCondFor(C->Op, &Swap);
    jccToExit(ExitIfTrue ? CC : invert(CC), G->Exit);
    return;
  }
  case LOp::EqQ: {
    Gpr Ra = ensureGpr(C->A);
    Gpr Rb = ensureGpr(C->B, maskOf(Ra));
    A.cmpRR64(Ra, Rb);
    consume(C->A);
    consume(C->B);
    jccToExit(ExitIfTrue ? CondE : CondNE, G->Exit);
    return;
  }
  case LOp::LtD:
  case LOp::LeD:
  case LOp::GtD:
  case LOp::GeD: {
    // a < b  <=>  b `above` a under ucomisd(b, a); NaN compares false.
    Xmm Xa = ensureXmm(C->A);
    Xmm Xb = ensureXmm(C->B, maskOfX(Xa));
    bool Reverse = C->Op == LOp::LtD || C->Op == LOp::LeD;
    if (Reverse)
      A.ucomisd(Xb, Xa);
    else
      A.ucomisd(Xa, Xb);
    consume(C->A);
    consume(C->B);
    bool Strict = C->Op == LOp::LtD || C->Op == LOp::GtD;
    Cond CC = Strict ? CondA : CondAE; // true-condition; unordered -> false
    jccToExit(ExitIfTrue ? CC : invert(CC), G->Exit);
    return;
  }
  case LOp::EqD:
  case LOp::NeD: {
    Xmm Xa = ensureXmm(C->A);
    Xmm Xb = ensureXmm(C->B, maskOfX(Xa));
    A.ucomisd(Xa, Xb);
    consume(C->A);
    consume(C->B);
    bool CondIsEq = C->Op == LOp::EqD;
    // cond==true means: EqD -> (ZF && !PF); NeD -> (!ZF || PF).
    bool ExitOnEqual = (CondIsEq == ExitIfTrue);
    if (ExitOnEqual) {
      // exit iff ZF && !PF: skip on parity, then exit on equal.
      uint8_t *Skip = A.jccFwd(CondP);
      jccToExit(CondE, G->Exit);
      Assembler::patchRel32(Skip, A.pc());
    } else {
      // exit iff !ZF || PF.
      jccToExit(CondP, G->Exit);
      jccToExit(CondNE, G->Exit);
    }
    return;
  }
  default:
    assert(false && "unfusable compare");
  }
}

void FragmentCompiler::emitCmpSet(LIns *I) {
  switch (I->Op) {
  case LOp::EqI:
  case LOp::NeI:
  case LOp::LtI:
  case LOp::LeI:
  case LOp::GtI:
  case LOp::GeI:
  case LOp::LtUI: {
    Gpr Ra = ensureGpr(I->A);
    Gpr Rb = ensureGpr(I->B, maskOf(Ra));
    A.cmpRR32(Ra, Rb);
    consume(I->A);
    consume(I->B);
    Gpr Rd = defGpr(I);
    bool Swap;
    A.setcc(intCondFor(I->Op, &Swap), Rd);
    A.movzxByteRR(Rd, Rd);
    return;
  }
  case LOp::EqQ: {
    Gpr Ra = ensureGpr(I->A);
    Gpr Rb = ensureGpr(I->B, maskOf(Ra));
    A.cmpRR64(Ra, Rb);
    consume(I->A);
    consume(I->B);
    Gpr Rd = defGpr(I);
    A.setcc(CondE, Rd);
    A.movzxByteRR(Rd, Rd);
    return;
  }
  case LOp::LtD:
  case LOp::LeD:
  case LOp::GtD:
  case LOp::GeD: {
    Xmm Xa = ensureXmm(I->A);
    Xmm Xb = ensureXmm(I->B, maskOfX(Xa));
    bool Reverse = I->Op == LOp::LtD || I->Op == LOp::LeD;
    if (Reverse)
      A.ucomisd(Xb, Xa);
    else
      A.ucomisd(Xa, Xb);
    consume(I->A);
    consume(I->B);
    Gpr Rd = defGpr(I);
    bool Strict = I->Op == LOp::LtD || I->Op == LOp::GtD;
    A.setcc(Strict ? CondA : CondAE, Rd);
    A.movzxByteRR(Rd, Rd);
    return;
  }
  case LOp::EqD:
  case LOp::NeD: {
    Xmm Xa = ensureXmm(I->A);
    Xmm Xb = ensureXmm(I->B, maskOfX(Xa));
    A.ucomisd(Xa, Xb);
    consume(I->A);
    consume(I->B);
    Gpr Rd = defGpr(I);
    // EqD: sete && setnp; NeD: setne || setp. Use RAX as the second flag.
    if (I->Op == LOp::EqD) {
      A.setcc(CondE, Rd);
      A.setcc(CondNP, RAX);
      A.andRR32(Rd, RAX);
    } else {
      A.setcc(CondNE, Rd);
      A.setcc(CondP, RAX);
      A.orRR32(Rd, RAX);
    }
    A.movzxByteRR(Rd, Rd);
    return;
  }
  default:
    assert(false);
  }
}

void FragmentCompiler::emitBinGpr32(LIns *I, void (Assembler::*Op)(Gpr, Gpr)) {
  Gpr Ra = ensureGpr(I->A);
  Gpr Rb = ensureGpr(I->B, maskOf(Ra));
  Gpr Rd = defGpr(I, maskOf(Ra) | maskOf(Rb));
  if (Rd != Ra)
    A.movRR32(Rd, Ra);
  (A.*Op)(Rd, Rb);
  consume(I->A);
  consume(I->B);
}

void FragmentCompiler::emitBinXmm(LIns *I, uint8_t SseOp) {
  Xmm Xa = ensureXmm(I->A);
  Xmm Xb = ensureXmm(I->B, maskOfX(Xa));
  Xmm Xd = defXmm(I, maskOfX(Xa) | maskOfX(Xb));
  if (Xd != Xa)
    A.movsdRR(Xd, Xa);
  A.sseRR(SseOp, Xd, Xb);
  consume(I->A);
  consume(I->B);
}

void FragmentCompiler::emitShift(LIns *I) {
  bool Is64 = I->Op == LOp::ShlQ || I->Op == LOp::ShrQ || I->Op == LOp::SarQ;
  // Immediate count fast path.
  if (I->B->Op == LOp::ImmI) {
    uint8_t N = (uint8_t)(I->B->Imm.ImmI32 & (Is64 ? 63 : 31));
    Gpr Ra = ensureGpr(I->A);
    Gpr Rd = defGpr(I, maskOf(Ra));
    if (Is64) {
      if (Rd != Ra)
        A.movRR64(Rd, Ra);
      if (I->Op == LOp::ShlQ)
        A.shlI64(Rd, N);
      else if (I->Op == LOp::ShrQ)
        A.shrI64(Rd, N);
      else
        A.sarI64(Rd, N);
    } else {
      if (Rd != Ra)
        A.movRR32(Rd, Ra);
      if (I->Op == LOp::ShlI)
        A.shlI32(Rd, N);
      else if (I->Op == LOp::UshrI)
        A.shrI32(Rd, N);
      else
        A.sarI32(Rd, N);
    }
    consume(I->A);
    consume(I->B);
    return;
  }
  // Variable count must be in CL.
  assert(!Is64 && "64-bit shifts always have immediate counts");
  Gpr Ra = ensureGpr(I->A);
  Gpr Rb = ensureGpr(I->B, maskOf(Ra));
  // Relocate whatever currently holds RCX (unless it is the count itself):
  // a plain spill would leave a stale register assignment for A.
  if (GprHeld[RCX] && GprHeld[RCX] != I->B) {
    LIns *V = GprHeld[RCX];
    Gpr NR = allocGpr(CurPos, maskOf(RCX) | maskOf(Ra) | maskOf(Rb));
    if (Failed)
      return;
    A.movRR64(NR, RCX);
    GprHeld[RCX] = nullptr;
    bindGpr(V, NR);
    if (V == I->A)
      Ra = NR;
  }
  if (Rb != RCX)
    A.movRR32(RCX, Rb);
  Gpr Rd = defGpr(I, maskOf(Ra) | maskOf(Rb) | maskOf(RCX));
  if (Rd != Ra)
    A.movRR32(Rd, Ra);
  if (I->Op == LOp::ShlI)
    A.shlCl32(Rd);
  else if (I->Op == LOp::UshrI)
    A.shrCl32(Rd);
  else
    A.sarCl32(Rd);
  consume(I->A);
  consume(I->B);
}

void FragmentCompiler::emitGuard(LIns *I) {
  LIns *C = I->A;
  if (st(C).Fused) {
    emitFusedGuard(I, C);
    return;
  }
  Gpr Rc = ensureGpr(C);
  A.testRR32(Rc, Rc);
  consume(C);
  // GuardT exits when the condition is FALSE.
  jccToExit(I->Op == LOp::GuardT ? CondE : CondNE, I->Exit);
}

void FragmentCompiler::emitCall(LIns *I) {
  const CallInfo *CI = I->CI;
  flushForCall();
  uint32_t IntIdx = 0, DblIdx = 0;
  for (uint32_t K = 0; K < I->NCallArgs; ++K) {
    LIns *Arg = I->CallArgs[K];
    if (CI->Args[K] == LTy::D)
      loadArgXmm((Xmm)(DblIdx++), Arg);
    else
      loadArgGpr(IntArgRegs[IntIdx++], Arg);
  }
  for (uint32_t K = 0; K < I->NCallArgs; ++K)
    consume(I->CallArgs[K]);
  A.movRI64(RAX, (uint64_t)(uintptr_t)CI->Addr);
  A.callReg(RAX);
  if (CI->Ret == LTy::D) {
    Xmm Xd = defXmm(I);
    A.movsdRR(Xd, XMM0);
  } else if (CI->Ret != LTy::Void) {
    Gpr Rd = defGpr(I);
    A.movRR64(Rd, RAX);
  }
}

void FragmentCompiler::emitTreeCall(LIns *I) {
  flushForCall();
  A.movRR64(RDI, RBX);
  // imm64 code addresses must point into the executable view; rel32 jumps
  // within the pool are view-agnostic, absolute embeds are not.
  A.movRI64(RSI,
            (uint64_t)(uintptr_t)BE.pool().execAddr(I->Target->NativeEntry));
  A.movRI64(RAX, (uint64_t)(uintptr_t)BE.trampolineAddr());
  A.callReg(RAX);
  // Guard: did the inner tree return through the expected exit?
  A.movRI64(RCX, (uint64_t)(uintptr_t)I->ExpectedExit);
  A.cmpRR64(RAX, RCX);
  uint8_t *Ok = A.jccFwd(CondE);
  A.movRI64(RCX, (uint64_t)(uintptr_t)&Ctx->LastNestedExit);
  A.movMR64(RCX, 0, RAX);
  jmpToExit(I->Exit);
  Assembler::patchRel32(Ok, A.pc());
}

void FragmentCompiler::emitIns(uint32_t Pos, LIns *I) {
  CurPos = Pos;
  switch (I->Op) {
  case LOp::ParamTar:
    return; // pinned in RBX
  case LOp::ImmI:
  case LOp::ImmQ:
  case LOp::ImmD:
    return; // rematerialized at use sites

  case LOp::LdI: {
    Gpr Rb = ensureGpr(I->A);
    Gpr Rd = defGpr(I, maskOf(Rb));
    A.movRM32(Rd, Rb, I->Disp);
    consume(I->A);
    return;
  }
  case LOp::LdQ: {
    Gpr Rb = ensureGpr(I->A);
    Gpr Rd = defGpr(I, maskOf(Rb));
    A.movRM64(Rd, Rb, I->Disp);
    consume(I->A);
    return;
  }
  case LOp::LdUB: {
    Gpr Rb = ensureGpr(I->A);
    Gpr Rd = defGpr(I, maskOf(Rb));
    A.movzxByteRM(Rd, Rb, I->Disp);
    consume(I->A);
    return;
  }
  case LOp::LdD: {
    Gpr Rb = ensureGpr(I->A);
    Xmm Xd = defXmm(I);
    A.movsdRM(Xd, Rb, I->Disp);
    consume(I->A);
    return;
  }

  case LOp::StI: {
    Gpr Rv = ensureGpr(I->A);
    Gpr Rb = ensureGpr(I->B, maskOf(Rv));
    A.movMR32(Rb, I->Disp, Rv);
    consume(I->A);
    consume(I->B);
    return;
  }
  case LOp::StQ: {
    Gpr Rv = ensureGpr(I->A);
    Gpr Rb = ensureGpr(I->B, maskOf(Rv));
    A.movMR64(Rb, I->Disp, Rv);
    consume(I->A);
    consume(I->B);
    return;
  }
  case LOp::StD: {
    Xmm Xv = ensureXmm(I->A);
    Gpr Rb = ensureGpr(I->B);
    A.movsdMR(Rb, I->Disp, Xv);
    consume(I->A);
    consume(I->B);
    return;
  }

  case LOp::AddI:
    emitBinGpr32(I, &Assembler::addRR32);
    return;
  case LOp::SubI:
    emitBinGpr32(I, &Assembler::subRR32);
    return;
  case LOp::MulI:
    emitBinGpr32(I, &Assembler::imulRR32);
    return;
  case LOp::AndI:
    emitBinGpr32(I, &Assembler::andRR32);
    return;
  case LOp::OrI:
    emitBinGpr32(I, &Assembler::orRR32);
    return;
  case LOp::XorI:
    emitBinGpr32(I, &Assembler::xorRR32);
    return;
  case LOp::ShlI:
  case LOp::ShrI:
  case LOp::UshrI:
  case LOp::ShlQ:
  case LOp::ShrQ:
  case LOp::SarQ:
    emitShift(I);
    return;

  case LOp::AddOvI:
  case LOp::SubOvI:
  case LOp::MulOvI: {
    Gpr Ra = ensureGpr(I->A);
    Gpr Rb = ensureGpr(I->B, maskOf(Ra));
    Gpr Rd = defGpr(I, maskOf(Ra) | maskOf(Rb));
    if (Rd != Ra)
      A.movRR32(Rd, Ra);
    if (I->Op == LOp::AddOvI)
      A.addRR32(Rd, Rb);
    else if (I->Op == LOp::SubOvI)
      A.subRR32(Rd, Rb);
    else
      A.imulRR32(Rd, Rb);
    consume(I->A);
    consume(I->B);
    jccToExit(CondO, I->Exit);
    return;
  }

  case LOp::AddQ:
    // 64-bit add (address arithmetic).
    {
      Gpr Ra = ensureGpr(I->A);
      Gpr Rb = ensureGpr(I->B, maskOf(Ra));
      Gpr Rd = defGpr(I, maskOf(Ra) | maskOf(Rb));
      if (Rd != Ra)
        A.movRR64(Rd, Ra);
      A.addRR64(Rd, Rb);
      consume(I->A);
      consume(I->B);
      return;
    }
  case LOp::AndQ:
  case LOp::OrQ: {
    Gpr Ra = ensureGpr(I->A);
    Gpr Rb = ensureGpr(I->B, maskOf(Ra));
    Gpr Rd = defGpr(I, maskOf(Ra) | maskOf(Rb));
    if (Rd != Ra)
      A.movRR64(Rd, Ra);
    if (I->Op == LOp::AndQ)
      A.andRR64(Rd, Rb);
    else
      A.orRR64(Rd, Rb);
    consume(I->A);
    consume(I->B);
    return;
  }
  case LOp::Q2I:
  case LOp::UI2Q: {
    Gpr Ra = ensureGpr(I->A);
    Gpr Rd = defGpr(I, maskOf(Ra));
    A.movRR32(Rd, Ra); // zero-extending 32-bit move
    consume(I->A);
    return;
  }

  case LOp::EqI:
  case LOp::NeI:
  case LOp::LtI:
  case LOp::LeI:
  case LOp::GtI:
  case LOp::GeI:
  case LOp::LtUI:
  case LOp::EqQ:
  case LOp::EqD:
  case LOp::NeD:
  case LOp::LtD:
  case LOp::LeD:
  case LOp::GtD:
  case LOp::GeD:
    if (fuseWithNextGuard(Pos, I))
      return;
    emitCmpSet(I);
    return;

  case LOp::AddD:
    emitBinXmm(I, 0x58);
    return;
  case LOp::SubD:
    emitBinXmm(I, 0x5C);
    return;
  case LOp::MulD:
    emitBinXmm(I, 0x59);
    return;
  case LOp::DivD:
    emitBinXmm(I, 0x5E);
    return;
  case LOp::NegD: {
    Xmm Xa = ensureXmm(I->A);
    Xmm Xd = defXmm(I, maskOfX(Xa));
    A.movRI64(RAX, 0x8000000000000000ULL);
    A.movqXmmGpr(XMM0, RAX);
    if (Xd != Xa)
      A.movsdRR(Xd, Xa);
    A.xorpd(Xd, XMM0);
    consume(I->A);
    return;
  }

  case LOp::I2D: {
    Gpr Ra = ensureGpr(I->A);
    Xmm Xd = defXmm(I);
    A.cvtsi2sd(Xd, Ra, /*Src64=*/false);
    consume(I->A);
    return;
  }
  case LOp::UI2D: {
    Gpr Ra = ensureGpr(I->A);
    A.movRR32(RAX, Ra); // zero-extend into RAX
    Xmm Xd = defXmm(I);
    A.cvtsi2sd(Xd, RAX, /*Src64=*/true);
    consume(I->A);
    return;
  }
  case LOp::D2I: {
    Xmm Xa = ensureXmm(I->A);
    Gpr Rd = defGpr(I);
    A.cvttsd2si(Rd, Xa);
    consume(I->A);
    return;
  }

  case LOp::GuardT:
  case LOp::GuardF:
    emitGuard(I);
    return;

  case LOp::Exit:
    jmpToExit(I->Exit);
    return;

  case LOp::Call:
    emitCall(I);
    return;

  case LOp::TreeCall:
    emitTreeCall(I);
    return;

  case LOp::Loop:
    // With a hoisted prologue the back edge lands at LoopEntryPc, where the
    // register model is "nothing held" (flushPrologue parked every value in
    // its spill slot, and slots are never recycled) -- so arbitrary register
    // state at the jump is fine. Without a prologue the whole body
    // re-executes and re-defines everything, so NativeEntry needs no fixup
    // either.
    A.jmp(LoopEntryPc ? LoopEntryPc : F->NativeEntry);
    return;

  case LOp::JmpFrag:
    A.jmp(I->Target->NativeEntry);
    return;

  case LOp::NumOps:
    Failed = true;
    return;
  }
}

bool FragmentCompiler::run() {
  // Pass 1: use positions.
  uint32_t MaxId = 0;
  for (LIns *I : Body)
    if (I->Id > MaxId)
      MaxId = I->Id;
  States.assign(MaxId + 1, ValState());
  for (uint32_t P = 0; P < Body.size(); ++P) {
    LIns *I = Body[P];
    if (I->A)
      st(I->A).Uses.push_back(P);
    if (I->B)
      st(I->B).Uses.push_back(P);
    for (uint32_t K = 0; K < I->NCallArgs; ++K)
      st(I->CallArgs[K]).Uses.push_back(P);
  }

  // Pass 2: emit.
  F->NativeEntry = A.pc();
  for (uint32_t P = 0; P < Body.size() && !Failed && !A.overflowed(); ++P) {
    if (F->PrologueEnd && P == F->PrologueEnd) {
      // Prologue/loop boundary: park every live value in its spill slot so
      // the back edge can land here with no register assumptions.
      flushPrologue();
      LoopEntryPc = A.pc();
    }
    emitIns(P, Body[P]);
  }

  // Exit stubs: one per descriptor so stitching can retarget every jump to
  // that exit by patching a single site. A stub is `mov eax, <index>`
  // (exactly the 5 bytes patchExitTo overwrites with `jmp rel32`) plus a
  // jump to the fragment's one exit tail, which maps the index to its
  // ExitDescriptor* through F->ExitTable and leaves by the shared epilogue.
  std::unordered_map<ExitDescriptor *, uint32_t> IndexOf;
  F->ExitTable.clear();
  for (PendingStub &S : Stubs)
    if (IndexOf.emplace(S.Exit, (uint32_t)F->ExitTable.size()).second)
      F->ExitTable.push_back(S.Exit);
  // The last MaxCompactStubs stubs reach the tail with a rel8; any before
  // them take a rel32, so the tail's address is known up front.
  const uint32_t N = (uint32_t)F->ExitTable.size();
  const uint32_t NumFar = N > MaxCompactStubs ? N - MaxCompactStubs : 0;
  uint8_t *Tail =
      A.pc() + NumFar * FarStubBytes + (N - NumFar) * CompactStubBytes;
  std::vector<uint8_t *> StubAt(N);
  for (uint32_t I = 0; I < N; ++I) {
    StubAt[I] = A.pc();
    F->ExitTable[I]->PatchAddr = StubAt[I];
    A.movRI32(RAX, (int32_t)I);
    if (I < NumFar)
      A.jmp(Tail);
    else
      A.jmp8(Tail);
  }
  for (PendingStub &S : Stubs)
    Assembler::patchRel32(S.Fixup, StubAt[IndexOf[S.Exit]]);
  if (N) {
    assert(A.overflowed() || A.pc() == Tail);
    A.movRI64(RCX, (uint64_t)(uintptr_t)F->ExitTable.data());
    A.movRMIndex64(RAX, RCX, RAX);
    A.jmp(BE.sharedEpilogue());
  }

  F->NativeSize = (uint32_t)A.size();
  return !Failed && !A.overflowed();
}

} // namespace

CompileResult NativeBackend::compile(Fragment *F, VMContext *Ctx) {
  if (!Ready)
    return CompileResult::BackendUnavailable;
  if (inject(FaultSite::CompileFail))
    return CompileResult::Fault;
  if (!Pool.makeWritable())
    return CompileResult::Fault; // W^X flip failed; cannot emit
  size_t Estimate = F->Body.size() * 48 + F->Exits.size() * 24 + 512;
  uint8_t *Mem = Pool.reserve(Estimate);
  if (!Mem)
    return CompileResult::PoolExhausted;
  Assembler A(Mem, Estimate);
  FragmentCompiler FC(*this, F, Ctx, A);
  if (!FC.run()) {
    bool Overflow = A.overflowed();
    F->NativeEntry = nullptr;
    F->NativeSize = 0;
    Pool.rewind(); // a failed compile returns its bytes
    return Overflow ? CompileResult::AssemblerOverflow
                    : CompileResult::Unsupported;
  }
  Pool.commit(F->NativeSize); // keep only what was emitted, not Estimate
  return CompileResult::Ok;
}

} // namespace tracejit

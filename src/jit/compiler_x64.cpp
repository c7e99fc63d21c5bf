//===- compiler_x64.cpp - LIR -> x86-64 compiler --------------------------------===//

#include "jit/compiler_x64.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "interp/vmcontext.h"
#include "jit/assembler_x64.h"
#include "lir/lir.h"
#include "trace/helpers.h"

namespace tracejit {

// --- Runtime stubs -------------------------------------------------------------

/// The register compiled code keeps the backend's VMContext* in.
constexpr Gpr CtxReg = R15;

NativeBackend::NativeBackend(VMContext *C, size_t CacheBytes,
                             const FaultHook *FI)
    : Ctx(C), Pool(CacheBytes, FI), Faults(FI) {
  if (!Pool.valid())
    return;
  emitRuntimeStubs();
  Pool.setFloor(); // whole-cache flushes keep the stubs and the table
  Ready = Trampoline != nullptr;
}

void NativeBackend::emitRuntimeStubs() {
  CallTargets = traceCallTargets();
  std::sort(CallTargets.begin(), CallTargets.end());
  CallTargets.erase(std::unique(CallTargets.begin(), CallTargets.end()),
                    CallTargets.end());
  const size_t Bytes = 128 + 8 * CallTargets.size();
  uint8_t *Mem = Pool.reserve(Bytes);
  if (!Mem)
    return;
  Assembler A(Mem, Bytes);

  // EnterFn(rdi = TAR, rsi = fragment code). Nested tree calls enter here
  // too, with the same TAR bias and context.
  uint8_t *Entry = A.pc();
  A.push(RBP);
  A.push(RBX);
  A.push(R12);
  A.push(R13);
  A.push(R14);
  A.push(R15);
  A.lea(RBX, RDI, TarBias);
  A.movRI64(CtxReg, (uint64_t)(uintptr_t)Ctx);
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

  // The call table: one 8-byte slot per address, read by
  // `call [rip+disp32]` through the exec view.
  while (A.size() % 8)
    A.int3();
  uint8_t *Table = A.pc();
  for (const void *T : CallTargets)
    A.data64((uint64_t)(uintptr_t)T);

  if (A.overflowed()) {
    Pool.rewind();
    return;
  }
  Pool.commit(A.size());
  // The trampoline is called from C++, so it must be an exec-view address.
  // Everything else in the pool stays write-view.
  Trampoline = (EnterFn)Pool.execAddr(Entry);
  TrampolineCode = Entry;
  CallTable = Table;
}

const uint8_t *NativeBackend::callSlot(const void *Fn) const {
  auto It = std::lower_bound(CallTargets.begin(), CallTargets.end(), Fn);
  if (!CallTable || It == CallTargets.end() || *It != Fn)
    return nullptr;
  return CallTable + 8 * (It - CallTargets.begin());
}

void NativeBackend::patchExitTo(ExitDescriptor *E, Fragment *Target) {
  E->Target = Target;
  if (!Target->NativeEntry)
    return;
  // Retarget every jcc/jmp that leaves for this exit through the write
  // view; both views share offsets, so the rel32 is the same.
  for (uint8_t *Site : E->JumpSites)
    Assembler::patchRel32(Site, Target->NativeEntry);
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

// RAX is scratch, RBX the biased TAR pointer, R15 the context.
constexpr Gpr GprPool[] = {RCX, RDX, RSI, RDI, R8,  R9,
                           R10, R11, RBP, R12, R13, R14};
constexpr int NumGprPool = (int)(sizeof(GprPool) / sizeof(GprPool[0]));
constexpr bool isCallerSavedGpr(Gpr R) {
  return R == RCX || R == RDX || R == RSI || R == RDI || R == R8 || R == R9 ||
         R == R10 || R == R11;
}
constexpr Gpr IntArgRegs[] = {RDI, RSI, RDX, RCX, R8, R9};

constexpr int NumXmmPool = 15; // XMM1..XMM15; XMM0 is scratch/return

/// Exit stubs load their index with `mov al, imm8` when the fragment has
/// at most this many exits, and with `mov eax, imm32` otherwise.
constexpr uint32_t MaxByteIndexedExits = 256;

class FragmentCompiler {
public:
  FragmentCompiler(NativeBackend &BE, Fragment *F, Assembler &A)
      : BE(BE), F(F), Ctx(BE.context()), A(A), Body(F->Body) {}

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
  Gpr allocGpr(uint32_t AvoidMask) {
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
    return Victim;
  }

  Xmm allocXmm(uint32_t AvoidMask) {
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
    ValState &S = st(V);
    if (S.Loc == LocKind::Reg)
      return (Gpr)S.Reg;
    Gpr R = allocGpr(AvoidMask);
    if (S.Loc == LocKind::Spill)
      A.movRM64(R, RSP, S.Slot * 8);
    else
      rematerialize(R, V);
    bindGpr(V, R);
    return R;
  }

  /// Offset of \p Addr within the VMContext, when it lies inside it.
  bool ctxOffset(int64_t Addr, int32_t &Off) const {
    uintptr_t P = (uintptr_t)Addr, C = (uintptr_t)Ctx;
    if (P < C || P - C >= sizeof(VMContext))
      return false;
    Off = (int32_t)(P - C);
    return true;
  }

  /// Load the value of an immediate or of ParamTar into \p Dst: ParamTar
  /// and addresses inside the VMContext from RBX and R15.
  void rematerialize(Gpr Dst, const LIns *V) {
    int32_t Off = 0;
    switch (V->Op) {
    case LOp::ParamTar:
      A.lea(Dst, RBX, -TarBias);
      return;
    case LOp::ImmI:
      A.movRI32(Dst, V->Imm.ImmI32);
      return;
    case LOp::ImmQ:
      if (!ctxOffset(V->Imm.ImmQ64, Off))
        A.movRI64(Dst, (uint64_t)V->Imm.ImmQ64);
      else if (Off == 0)
        A.movRR64(Dst, CtxReg);
      else
        A.lea(Dst, CtxReg, Off);
      return;
    default:
      Failed = true; // value was never defined: compiler bug
      return;
    }
  }

  /// The memory operand [\p Base + \p Disp]: TAR bytes off the biased
  /// RBX, VMContext fields off R15, anything else off \p Base's register.
  struct MemRef {
    Gpr Reg;
    int32_t Disp;
  };
  MemRef memRef(LIns *Base, int32_t Disp, uint32_t AvoidMask = 0) {
    int32_t Off = 0;
    if (Base->Op == LOp::ParamTar)
      return {RBX, Disp - TarBias};
    if (Base->Op == LOp::ImmQ && st(Base).Loc != LocKind::Reg &&
        ctxOffset(Base->Imm.ImmQ64 + Disp, Off))
      return {CtxReg, Off};
    return {ensureGpr(Base, AvoidMask), Disp};
  }

  Xmm ensureXmm(LIns *V, uint32_t AvoidMask = 0) {
    ValState &S = st(V);
    if (S.Loc == LocKind::Reg)
      return (Xmm)S.Reg;
    Xmm R = allocXmm(AvoidMask);
    if (S.Loc == LocKind::Spill) {
      A.movsdRM(R, RSP, S.Slot * 8);
    } else if (V->Op == LOp::ImmD) {
      materializeD(R, V);
    } else {
      Failed = true;
    }
    bindXmm(V, R);
    return R;
  }

  /// Load immediate double \p V into \p Dst (+0.0 by zeroing it).
  void materializeD(Xmm Dst, const LIns *V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V->Imm.ImmDbl, 8);
    if (Bits == 0) {
      A.xorpd(Dst, Dst);
      return;
    }
    A.movRI64(RAX, Bits);
    A.movqXmmGpr(Dst, RAX);
  }

  /// \p V as an instruction immediate: an ImmI, or an ImmQ that
  /// sign-extends from 32 bits. A folded immediate never takes a register.
  static bool asImm32(const LIns *V, int32_t &Out) {
    if (V->Op == LOp::ImmI) {
      Out = V->Imm.ImmI32;
      return true;
    }
    if (V->Op == LOp::ImmQ && fitsSImm32(V->Imm.ImmQ64)) {
      Out = (int32_t)V->Imm.ImmQ64;
      return true;
    }
    return false;
  }

  /// Release operand registers whose last use this was.
  void consume(LIns *V) {
    if (!V)
      return;
    ValState &S = st(V);
    while (S.UseCursor < S.Uses.size() && S.Uses[S.UseCursor] <= CurPos)
      ++S.UseCursor;
    if (S.UseCursor >= S.Uses.size())
      freeReg(V);
  }

  Gpr defGpr(LIns *I, uint32_t AvoidMask = 0) {
    Gpr R = allocGpr(AvoidMask);
    bindGpr(I, R);
    return R;
  }
  Xmm defXmm(LIns *I, uint32_t AvoidMask = 0) {
    Xmm R = allocXmm(AvoidMask);
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
  void emitIntBin(LIns *I);
  void emitBinXmm(LIns *I, uint8_t SseOp);
  void emitCmpSet(LIns *I);
  void emitGuard(LIns *I);
  void emitShift(LIns *I);
  void emitCall(LIns *I);
  void emitTreeCall(LIns *I);

  /// Try to fuse a compare whose single use is the immediately following
  /// guard; returns true when handled at the guard site instead.
  bool fuseWithNextGuard(uint32_t Pos, LIns *I);
  /// Try to fold a load into the next non-immediate instruction, a
  /// compare against an immediate that fuses with its guard
  /// (`cmp [m], imm; jcc`): the §6.4 preempt check and object-kind checks.
  /// True when the load is left to the compare.
  bool fuseLoadWithNextCompare(uint32_t Pos, LIns *Ld);
  void emitFusedGuard(LIns *Guard, LIns *Cmp);
  /// Emit the flags-setting half of an integer/pointer compare (folding an
  /// immediate operand, `test` against zero) and return the condition
  /// that holds when \p Cmp is true.
  Cond emitIntCompare(LIns *Cmp);

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
  ValState &S = st(V);
  if (S.Loc == LocKind::Reg)
    A.movRR64(Dst, (Gpr)S.Reg);
  else if (S.Loc == LocKind::Spill)
    A.movRM64(Dst, RSP, S.Slot * 8);
  else
    rematerialize(Dst, V);
}

void FragmentCompiler::loadArgXmm(Xmm Dst, LIns *V) {
  ValState &S = st(V);
  if (S.Loc == LocKind::Reg) {
    A.movsdRR(Dst, (Xmm)S.Reg);
  } else if (S.Loc == LocKind::Spill) {
    A.movsdRM(Dst, RSP, S.Slot * 8);
  } else if (V->Op == LOp::ImmD) {
    materializeD(Dst, V);
  } else {
    Failed = true;
  }
}

static Cond intCondFor(LOp Op) {
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

/// The condition that holds for (b, a) when \p C holds for (a, b).
static Cond swapOperands(Cond C) {
  switch (C) {
  case CondL:
    return CondG;
  case CondG:
    return CondL;
  case CondLE:
    return CondGE;
  case CondGE:
    return CondLE;
  case CondB:
    return CondA;
  case CondA:
    return CondB;
  case CondAE:
    return CondBE;
  case CondBE:
    return CondAE;
  default:
    return C; // E, NE
  }
}

static Cond invert(Cond C) { return (Cond)(C ^ 1); }

/// True when \p I's only use is the instruction right after it, a guard
/// on \p I.
static bool onlyUseIsNextGuard(const std::vector<uint32_t> &Uses,
                               const std::vector<LIns *> &Body, uint32_t Pos,
                               const LIns *I) {
  if (Uses.size() != 1 || Uses[0] != Pos + 1 || Pos + 1 >= Body.size())
    return false;
  const LIns *Next = Body[Pos + 1];
  return (Next->Op == LOp::GuardT || Next->Op == LOp::GuardF) && Next->A == I;
}

bool FragmentCompiler::fuseWithNextGuard(uint32_t Pos, LIns *I) {
  ValState &S = st(I);
  if (!onlyUseIsNextGuard(S.Uses, Body, Pos, I))
    return false;
  S.Fused = true;
  return true;
}

bool FragmentCompiler::fuseLoadWithNextCompare(uint32_t Pos, LIns *Ld) {
  // Immediates in between emit nothing.
  uint32_t CPos = Pos + 1;
  while (CPos < Body.size() && Body[CPos]->isImm())
    ++CPos;
  ValState &S = st(Ld);
  if (S.Uses.size() != 1 || S.Uses[0] != CPos)
    return false;
  LIns *C = Body[CPos];
  LIns *Other = C->A == Ld ? C->B : C->A;
  int32_t Imm = 0;
  if (!Other || !asImm32(Other, Imm) ||
      !onlyUseIsNextGuard(st(C).Uses, Body, CPos, C))
    return false;
  switch (C->Op) {
  case LOp::EqI:
  case LOp::NeI:
    break;
  case LOp::LtI:
  case LOp::LeI:
  case LOp::GtI:
  case LOp::GeI:
  case LOp::LtUI:
    // A byte compare would read the zero-extended byte as signed.
    if (Ld->Op != LOp::LdI)
      return false;
    break;
  default:
    return false;
  }
  if (Ld->Op == LOp::LdUB && (Imm < 0 || Imm > 255))
    return false;
  S.Fused = true;
  return true;
}

Cond FragmentCompiler::emitIntCompare(LIns *C) {
  bool Is64 = C->Op == LOp::EqQ;
  Cond CC = intCondFor(C->Op);
  LIns *L = C->A, *R = C->B;
  int32_t Imm = 0;
  if (!asImm32(R, Imm) && asImm32(L, Imm)) {
    std::swap(L, R);
    CC = swapOperands(CC);
  }
  if (st(L).Fused) {
    // A load folded into this compare (fuseLoadWithNextCompare).
    MemRef M = memRef(L->A, L->Disp);
    if (L->Op == LOp::LdUB)
      A.cmpMI8(M.Reg, M.Disp, (uint8_t)Imm);
    else
      A.aluMI(false, AluCmp, M.Reg, M.Disp, Imm);
    consume(L->A);
    consume(C->A);
    consume(C->B);
    return CC;
  }
  Gpr Rl = ensureGpr(L);
  if (asImm32(R, Imm)) {
    // `test r, r` leaves exactly the flags `cmp r, 0` would.
    if (Imm == 0)
      A.testRR(Is64, Rl, Rl);
    else
      A.aluRI(Is64, AluCmp, Rl, Imm);
  } else {
    Gpr Rr = ensureGpr(R, maskOf(Rl));
    if (Is64)
      A.cmpRR64(Rl, Rr);
    else
      A.cmpRR32(Rl, Rr);
  }
  consume(C->A);
  consume(C->B);
  return CC;
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
  case LOp::LtUI:
  case LOp::EqQ: {
    Cond CC = emitIntCompare(C);
    jccToExit(ExitIfTrue ? CC : invert(CC), G->Exit);
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
      uint8_t *Skip = A.jcc8Fwd(CondP);
      jccToExit(CondE, G->Exit);
      Assembler::patchRel8(Skip, A.pc());
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
  case LOp::LtUI:
  case LOp::EqQ: {
    Cond CC = emitIntCompare(I);
    Gpr Rd = defGpr(I);
    A.setcc(CC, Rd);
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

void FragmentCompiler::emitIntBin(LIns *I) {
  bool Is64 = false, Mul = false, Commutes = true;
  uint8_t Ext = AluAdd;
  switch (I->Op) {
  case LOp::AddQ:
    Is64 = true;
    break;
  case LOp::AddI:
  case LOp::AddOvI:
    break;
  case LOp::SubI:
  case LOp::SubOvI:
    Ext = AluSub;
    Commutes = false;
    break;
  case LOp::MulI:
  case LOp::MulOvI:
    Mul = true;
    break;
  case LOp::AndQ:
    Is64 = true;
    Ext = AluAnd;
    break;
  case LOp::AndI:
    Ext = AluAnd;
    break;
  case LOp::OrQ:
    Is64 = true;
    Ext = AluOr;
    break;
  case LOp::OrI:
    Ext = AluOr;
    break;
  case LOp::XorI:
    Ext = AluXor;
    break;
  default:
    assert(false && "not an integer binary op");
  }
  LIns *L = I->A, *R = I->B;
  int32_t Imm = 0;
  if (Commutes && !asImm32(R, Imm) && asImm32(L, Imm))
    std::swap(L, R);
  Gpr Ra = ensureGpr(L);
  bool Folded = asImm32(R, Imm);
  Gpr Rb = Folded ? Ra : ensureGpr(R, maskOf(Ra));
  Gpr Rd = defGpr(I, maskOf(Ra) | maskOf(Rb));
  if (Mul && Folded) {
    A.imulRRI32(Rd, Ra, Imm);
  } else {
    if (Rd != Ra && Is64)
      A.movRR64(Rd, Ra);
    else if (Rd != Ra)
      A.movRR32(Rd, Ra);
    // The register form of a group-1 op, `op r, r/m`, is (Ext << 3) | 3.
    if (Mul)
      A.imulRR32(Rd, Rb);
    else if (Folded)
      A.aluRI(Is64, Ext, Rd, Imm);
    else
      A.aluRR(Is64, (uint8_t)((Ext << 3) | 3), Rd, Rb);
  }
  consume(I->A);
  consume(I->B);
  if (I->Op == LOp::AddOvI || I->Op == LOp::SubOvI || I->Op == LOp::MulOvI)
    jccToExit(CondO, I->Exit);
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
    Gpr NR = allocGpr(maskOf(RCX) | maskOf(Ra) | maskOf(Rb));
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
  if (const uint8_t *Slot = BE.callSlot(CI->Addr)) {
    A.callRip(Slot);
  } else {
    A.movRI64(RAX, (uint64_t)(uintptr_t)CI->Addr);
    A.callReg(RAX);
  }
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
  // Re-enter the trampoline with the inner tree's entry: both are in the
  // pool, so the code address is RIP-relative and the call a rel32, and
  // the view they resolve in is the exec view the caller runs from.
  A.lea(RDI, RBX, -TarBias);
  A.leaRip(RSI, I->Target->NativeEntry);
  A.callRel(BE.trampolineCode());
  // Guard: did the inner tree return through the expected exit?
  A.movRI64(RCX, (uint64_t)(uintptr_t)I->ExpectedExit);
  A.cmpRR64(RAX, RCX);
  uint8_t *Ok = A.jcc8Fwd(CondE);
  A.movMR64(CtxReg,
            (int32_t)((uint8_t *)&Ctx->LastNestedExit - (uint8_t *)Ctx), RAX);
  jmpToExit(I->Exit);
  Assembler::patchRel8(Ok, A.pc());
}

void FragmentCompiler::emitIns(uint32_t Pos, LIns *I) {
  CurPos = Pos;
  switch (I->Op) {
  case LOp::ParamTar:
    return; // pinned in RBX (biased); rematerialized where used as a value
  case LOp::ImmI:
  case LOp::ImmQ:
  case LOp::ImmD:
    return; // rematerialized at use sites

  case LOp::LdI: {
    if (fuseLoadWithNextCompare(Pos, I))
      return;
    MemRef M = memRef(I->A, I->Disp);
    Gpr Rd = defGpr(I, maskOf(M.Reg));
    A.movRM32(Rd, M.Reg, M.Disp);
    consume(I->A);
    return;
  }
  case LOp::LdQ: {
    MemRef M = memRef(I->A, I->Disp);
    Gpr Rd = defGpr(I, maskOf(M.Reg));
    A.movRM64(Rd, M.Reg, M.Disp);
    consume(I->A);
    return;
  }
  case LOp::LdUB: {
    if (fuseLoadWithNextCompare(Pos, I))
      return;
    MemRef M = memRef(I->A, I->Disp);
    Gpr Rd = defGpr(I, maskOf(M.Reg));
    A.movzxByteRM(Rd, M.Reg, M.Disp);
    consume(I->A);
    return;
  }
  case LOp::LdD: {
    MemRef M = memRef(I->A, I->Disp);
    Xmm Xd = defXmm(I);
    A.movsdRM(Xd, M.Reg, M.Disp);
    consume(I->A);
    return;
  }

  case LOp::StI:
  case LOp::StQ: {
    bool Is64 = I->Op == LOp::StQ;
    int32_t Imm = 0;
    MemRef M = memRef(I->B, I->Disp);
    if (asImm32(I->A, Imm)) {
      A.movMI(Is64, M.Reg, M.Disp, Imm);
    } else {
      Gpr Rv = ensureGpr(I->A, maskOf(M.Reg));
      if (Is64)
        A.movMR64(M.Reg, M.Disp, Rv);
      else
        A.movMR32(M.Reg, M.Disp, Rv);
    }
    consume(I->A);
    consume(I->B);
    return;
  }
  case LOp::StD: {
    Xmm Xv = ensureXmm(I->A);
    MemRef M = memRef(I->B, I->Disp);
    A.movsdMR(M.Reg, M.Disp, Xv);
    consume(I->A);
    consume(I->B);
    return;
  }

  case LOp::AddI:
  case LOp::SubI:
  case LOp::MulI:
  case LOp::AndI:
  case LOp::OrI:
  case LOp::XorI:
  case LOp::AddOvI:
  case LOp::SubOvI:
  case LOp::MulOvI:
  case LOp::AddQ:
  case LOp::AndQ:
  case LOp::OrQ:
    emitIntBin(I);
    return;
  case LOp::ShlI:
  case LOp::ShrI:
  case LOp::UshrI:
  case LOp::ShlQ:
  case LOp::ShrQ:
  case LOp::SarQ:
    emitShift(I);
    return;

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

  // Exit stubs: one per descriptor. A stub loads the exit's index into al
  // (eax past MaxByteIndexedExits) and jumps to the fragment's one exit
  // tail, which maps the index to its ExitDescriptor* through
  // F->ExitTable and leaves by the shared epilogue. Stitching never
  // touches a stub: it rewrites the jump sites that lead to it.
  std::unordered_map<ExitDescriptor *, uint32_t> IndexOf;
  F->ExitTable.clear();
  for (PendingStub &S : Stubs)
    if (IndexOf.emplace(S.Exit, (uint32_t)F->ExitTable.size()).second) {
      F->ExitTable.push_back(S.Exit);
      S.Exit->JumpSites.clear();
    }
  // The last MaxCompact stubs reach the tail with a rel8; any before them
  // take a rel32, so the tail's address is known up front.
  const uint32_t N = (uint32_t)F->ExitTable.size();
  const bool ByteIndex = N <= MaxByteIndexedExits;
  const uint32_t MovBytes = ByteIndex ? 2 : 5;
  const uint32_t CompactBytes = MovBytes + 2, FarBytes = MovBytes + 5;
  const uint32_t MaxCompact = 127 / CompactBytes + 1;
  const uint32_t NumFar = N > MaxCompact ? N - MaxCompact : 0;
  uint8_t *Tail = A.pc() + NumFar * FarBytes + (N - NumFar) * CompactBytes;
  std::vector<uint8_t *> StubAt(N);
  for (uint32_t I = 0; I < N; ++I) {
    StubAt[I] = A.pc();
    if (ByteIndex)
      A.movRI8(RAX, (uint8_t)I);
    else
      A.movRI32(RAX, (int32_t)I);
    if (I < NumFar)
      A.jmp(Tail);
    else
      A.jmp8(Tail);
  }
  for (PendingStub &S : Stubs) {
    Assembler::patchRel32(S.Fixup, StubAt[IndexOf[S.Exit]]);
    S.Exit->JumpSites.push_back(S.Fixup);
  }
  if (N) {
    assert(A.overflowed() || A.pc() == Tail);
    if (ByteIndex)
      A.movzxByteRR(RAX, RAX);
    A.movRI64(RCX, (uint64_t)(uintptr_t)F->ExitTable.data());
    A.movRMIndex64(RAX, RCX, RAX);
    A.jmp(BE.sharedEpilogue());
  }

  F->NativeSize = (uint32_t)A.size();
  return !Failed && !A.overflowed();
}

} // namespace

CompileResult NativeBackend::compile(Fragment *F) {
  if (!Ready)
    return CompileResult::BackendUnavailable;
  if (inject(FaultSite::CompileFail))
    return CompileResult::Fault;
  size_t Estimate = F->Body.size() * 48 + F->Exits.size() * 24 + 512;
  uint8_t *Mem = Pool.reserve(Estimate);
  if (!Mem)
    return CompileResult::PoolExhausted;
  Assembler A(Mem, Estimate);
  FragmentCompiler FC(*this, F, A);
  if (!FC.run()) {
    bool Overflow = A.overflowed();
    F->NativeEntry = nullptr;
    F->NativeSize = 0;
    for (ExitDescriptor *E : F->ExitTable)
      E->JumpSites.clear();
    Pool.rewind(); // a failed compile returns its bytes
    return Overflow ? CompileResult::AssemblerOverflow
                    : CompileResult::Unsupported;
  }
  Pool.commit(F->NativeSize); // keep only what was emitted, not Estimate
  return CompileResult::Ok;
}

} // namespace tracejit

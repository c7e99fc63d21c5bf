//===- filters.cpp - Forward LIR filters -------------------------------------===//

#include "lir/filters.h"

#include <cmath>

namespace tracejit {

// --- ExprFilter ------------------------------------------------------------------

static bool isImmI(LIns *I, int32_t V) {
  return I->Op == LOp::ImmI && I->Imm.ImmI32 == V;
}

LIns *ExprFilter::ins1(LOp Op, LIns *A) {
  // Constant folding on unary ops.
  if (A->Op == LOp::ImmI) {
    int32_t V = A->Imm.ImmI32;
    switch (Op) {
    case LOp::I2D:
      return insImmD((double)V);
    case LOp::UI2D:
      return insImmD((double)(uint32_t)V);
    case LOp::UI2Q:
      return insImmQ((int64_t)(uint32_t)V);
    default:
      break;
    }
  }
  if (A->Op == LOp::ImmD && Op == LOp::D2I)
    return insImmI((int32_t)A->Imm.ImmDbl);
  if (A->Op == LOp::ImmD && Op == LOp::NegD)
    return insImmD(-A->Imm.ImmDbl);
  if (A->Op == LOp::ImmQ && Op == LOp::Q2I)
    return insImmI((int32_t)A->Imm.ImmQ64);

  // The language-specific INT<->DOUBLE narrowing from §5.1: "LIR that
  // converts an INT to a DOUBLE and then back again would be removed".
  if (Op == LOp::D2I && A->Op == LOp::I2D)
    return A->A;
  // Double negation.
  if (Op == LOp::NegD && A->Op == LOp::NegD)
    return A->A;

  return Out->ins1(Op, A);
}

LIns *ExprFilter::ins2(LOp Op, LIns *A, LIns *B) {
  // Integer constant folding.
  if (A->Op == LOp::ImmI && B->Op == LOp::ImmI) {
    int64_t X = A->Imm.ImmI32, Y = B->Imm.ImmI32;
    switch (Op) {
    case LOp::AddI:
      return insImmI((int32_t)(X + Y));
    case LOp::SubI:
      return insImmI((int32_t)(X - Y));
    case LOp::MulI:
      return insImmI((int32_t)(X * Y));
    case LOp::AndI:
      return insImmI((int32_t)(X & Y));
    case LOp::OrI:
      return insImmI((int32_t)(X | Y));
    case LOp::XorI:
      return insImmI((int32_t)(X ^ Y));
    case LOp::ShlI:
      return insImmI((int32_t)((uint32_t)X << (Y & 31)));
    case LOp::ShrI:
      return insImmI((int32_t)X >> (Y & 31));
    case LOp::UshrI:
      return insImmI((int32_t)((uint32_t)X >> (Y & 31)));
    case LOp::EqI:
      return insImmI(X == Y);
    case LOp::NeI:
      return insImmI(X != Y);
    case LOp::LtI:
      return insImmI(X < Y);
    case LOp::LeI:
      return insImmI(X <= Y);
    case LOp::GtI:
      return insImmI(X > Y);
    case LOp::GeI:
      return insImmI(X >= Y);
    case LOp::LtUI:
      return insImmI((uint32_t)X < (uint32_t)Y);
    default:
      break;
    }
  }
  // Double constant folding.
  if (A->Op == LOp::ImmD && B->Op == LOp::ImmD) {
    double X = A->Imm.ImmDbl, Y = B->Imm.ImmDbl;
    switch (Op) {
    case LOp::AddD:
      return insImmD(X + Y);
    case LOp::SubD:
      return insImmD(X - Y);
    case LOp::MulD:
      return insImmD(X * Y);
    case LOp::DivD:
      return insImmD(X / Y);
    case LOp::EqD:
      return insImmI(X == Y);
    case LOp::NeD:
      return insImmI(X != Y);
    case LOp::LtD:
      return insImmI(X < Y);
    case LOp::LeD:
      return insImmI(X <= Y);
    case LOp::GtD:
      return insImmI(X > Y);
    case LOp::GeD:
      return insImmI(X >= Y);
    default:
      break;
    }
  }
  // Pointer-equality folding.
  if (Op == LOp::EqQ && A->Op == LOp::ImmQ && B->Op == LOp::ImmQ)
    return insImmI(A->Imm.ImmQ64 == B->Imm.ImmQ64);

  // Algebraic identities.
  switch (Op) {
  case LOp::AddI:
    if (isImmI(B, 0))
      return A;
    if (isImmI(A, 0))
      return B;
    break;
  case LOp::SubI:
    if (isImmI(B, 0))
      return A;
    if (A == B)
      return insImmI(0); // a - a = 0 (§5.1)
    break;
  case LOp::MulI:
    if (isImmI(B, 1))
      return A;
    if (isImmI(A, 1))
      return B;
    if (isImmI(B, 0) || isImmI(A, 0))
      return insImmI(0);
    break;
  case LOp::AndI:
    if (A == B)
      return A;
    if (isImmI(B, -1))
      return A;
    if (isImmI(A, -1))
      return B;
    if (isImmI(B, 0) || isImmI(A, 0))
      return insImmI(0);
    break;
  case LOp::OrI:
    if (A == B)
      return A;
    if (isImmI(B, 0))
      return A;
    if (isImmI(A, 0))
      return B;
    break;
  case LOp::XorI:
    if (A == B)
      return insImmI(0);
    if (isImmI(B, 0))
      return A;
    break;
  case LOp::ShlI:
  case LOp::ShrI:
  case LOp::UshrI:
    if (isImmI(B, 0))
      return A;
    break;
  case LOp::EqI:
    if (A == B)
      return insImmI(1);
    break;
  case LOp::NeI:
    if (A == B)
      return insImmI(0);
    break;
  case LOp::EqQ:
    if (A == B)
      return insImmI(1);
    break;
  case LOp::AddD:
    // NOTE: no `x + 0.0 => x`: wrong for x = -0.0.
    break;
  case LOp::MulD:
    if (B->Op == LOp::ImmD && B->Imm.ImmDbl == 1.0)
      return A;
    if (A->Op == LOp::ImmD && A->Imm.ImmDbl == 1.0)
      return B;
    break;
  case LOp::AndQ:
    if (B->Op == LOp::ImmQ && B->Imm.ImmQ64 == -1)
      return A;
    break;
  case LOp::AddQ:
    if (B->Op == LOp::ImmQ && B->Imm.ImmQ64 == 0)
      return A;
    break;
  case LOp::OrQ:
    if (B->Op == LOp::ImmQ && B->Imm.ImmQ64 == 0)
      return A;
    break;
  case LOp::ShlQ:
  case LOp::ShrQ:
  case LOp::SarQ:
    if (isImmI(B, 0))
      return A;
    break;
  default:
    break;
  }
  return Out->ins2(Op, A, B);
}

LIns *ExprFilter::insGuard(LOp Op, LIns *Cond, ExitDescriptor *Exit) {
  // A guard on a constant condition either always holds (drop it) or would
  // always exit. The recorder never emits an always-failing guard except
  // deliberately; keep those.
  if (Cond->Op == LOp::ImmI) {
    bool Holds = (Op == LOp::GuardT) == (Cond->Imm.ImmI32 != 0);
    if (Holds)
      return nullptr;
  }
  return Out->insGuard(Op, Cond, Exit);
}

LIns *ExprFilter::insOvf(LOp Op, LIns *A, LIns *B, ExitDescriptor *Exit) {
  // Fold overflow-checked arithmetic on constants when no overflow occurs.
  if (A->Op == LOp::ImmI && B->Op == LOp::ImmI) {
    int64_t X = A->Imm.ImmI32, Y = B->Imm.ImmI32;
    int64_t R = Op == LOp::AddOvI ? X + Y : Op == LOp::SubOvI ? X - Y : X * Y;
    if (R >= INT32_MIN && R <= INT32_MAX)
      return insImmI((int32_t)R);
  }
  // x +/- 0 and x * 1 cannot overflow.
  if ((Op == LOp::AddOvI || Op == LOp::SubOvI) && isImmI(B, 0))
    return A;
  if (Op == LOp::AddOvI && isImmI(A, 0))
    return B;
  if (Op == LOp::MulOvI && isImmI(B, 1))
    return A;
  if (Op == LOp::MulOvI && isImmI(A, 1))
    return B;
  return Out->insOvf(Op, A, B, Exit);
}

// --- CseFilter -------------------------------------------------------------------

template <typename EmitFn>
LIns *CseFilter::numbered(const Key &K, EmitFn Emit) {
  auto It = Exprs.find(K);
  if (It != Exprs.end())
    return It->second;
  LIns *I = Emit();
  Exprs.emplace(K, I);
  return I;
}

static uint64_t operandKey(const LIns *I) { return (uint64_t)(uintptr_t)I; }

LIns *CseFilter::ins1(LOp Op, LIns *A) {
  return numbered({(uint32_t)Op, operandKey(A), 0, 0},
                  [&] { return Out->ins1(Op, A); });
}

LIns *CseFilter::ins2(LOp Op, LIns *A, LIns *B) {
  return numbered({(uint32_t)Op, operandKey(A), operandKey(B), 0},
                  [&] { return Out->ins2(Op, A, B); });
}

LIns *CseFilter::insImmI(int32_t V) {
  return numbered({(uint32_t)LOp::ImmI, 0, 0, V},
                  [&] { return Out->insImmI(V); });
}

LIns *CseFilter::insImmQ(int64_t V) {
  return numbered({(uint32_t)LOp::ImmQ, 0, 0, V},
                  [&] { return Out->insImmQ(V); });
}

LIns *CseFilter::insImmD(double V) {
  int64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V));
  __builtin_memcpy(&Bits, &V, 8);
  return numbered({(uint32_t)LOp::ImmD, 0, 0, Bits},
                  [&] { return Out->insImmD(V); });
}

LIns *CseFilter::insLoad(LOp Op, LIns *Base, int32_t Disp) {
  if (Base->Op == LOp::ImmQ)
    return Out->insLoad(Op, Base, Disp); // volatile VM channel
  uint64_t Gen = Base->Op == LOp::ParamTar
                     ? (TarEpoch << 32) | TarGen[Disp / 8]
                     : HeapGen;
  return numbered({(uint32_t)Op, operandKey(Base), Gen, Disp},
                  [&] { return Out->insLoad(Op, Base, Disp); });
}

LIns *CseFilter::insStore(LOp Op, LIns *Val, LIns *Base, int32_t Disp) {
  // An absolute (ImmQ) store writes a VM channel, which no load caches.
  if (Base->Op == LOp::ParamTar)
    ++TarGen[Disp / 8];
  else if (Base->Op != LOp::ImmQ)
    ++HeapGen;
  return Out->insStore(Op, Val, Base, Disp);
}

LIns *CseFilter::insCall(const CallInfo *CI, LIns **Args, uint32_t N) {
  if (!CI->Pure) {
    ++HeapGen;
    return Out->insCall(CI, Args, N);
  }
  if (N > 2)
    return Out->insCall(CI, Args, N);
  return numbered({(uint32_t)LOp::Call, (uint64_t)(uintptr_t)CI,
                   N >= 1 ? operandKey(Args[0]) : 0,
                   N >= 2 ? (int64_t)operandKey(Args[1]) : 0},
                  [&] { return Out->insCall(CI, Args, N); });
}

LIns *CseFilter::insGuard(LOp Op, LIns *Cond, ExitDescriptor *Exit) {
  // A second guard on the same SSA condition with the same polarity is
  // redundant: the first guard already proved it.
  uint64_t GK = (operandKey(Cond) << 1) | (Op == LOp::GuardT ? 1 : 0);
  if (GuardedConds.count(GK)) {
    ++GuardsEliminated;
    return nullptr;
  }
  LIns *I = Out->insGuard(Op, Cond, Exit);
  if (I)
    GuardedConds.insert(GK);
  return I;
}

LIns *CseFilter::insOvf(LOp Op, LIns *A, LIns *B, ExitDescriptor *Exit) {
  Key K{(uint32_t)Op, operandKey(A), operandKey(B), 0};
  auto It = Exprs.find(K);
  if (It != Exprs.end()) {
    ++GuardsEliminated; // same result, and its check already passed
    return It->second;
  }
  LIns *I = Out->insOvf(Op, A, B, Exit);
  Exprs.emplace(K, I);
  return I;
}

LIns *CseFilter::insTreeCall(Fragment *Inner, ExitDescriptor *Expected,
                             ExitDescriptor *MismatchExit) {
  // The inner tree can write any TAR slot and any heap location.
  ++HeapGen;
  ++TarEpoch;
  TarGen.clear();
  return Out->insTreeCall(Inner, Expected, MismatchExit);
}

} // namespace tracejit

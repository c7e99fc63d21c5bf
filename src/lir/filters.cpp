//===- filters.cpp - Forward LIR filters -------------------------------------===//

#include "lir/filters.h"

#include <cmath>
#include <cstdint>

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
    // No `x * 0 => 0`: JS gives -0 for a negative x, and the recorder's
    // guard on that case (recordArith) must see the product.
    if (isImmI(B, 1))
      return A;
    if (isImmI(A, 1))
      return B;
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

/// Deepest AddD/SubD tree the ToInt32 fold rewrites. Each leaf is an int32
/// or uint32 value, so |leaf| < 2^32, and a tree at most 8 deep has at most
/// 2^8 leaves: every partial sum stays below 2^40 in magnitude, exact in a
/// double's 53-bit significand. ToInt32 of an exact integer is that integer
/// mod 2^32, and so is the wrapping int32 sum of the same leaves. MulD has
/// no such bound (a product of two int32s needs 62 bits): it stays a call.
static constexpr int MaxSumDepth = 8;

static bool isInt32Valued(double V) {
  return V >= INT32_MIN && V <= INT32_MAX && (double)(int32_t)V == V;
}

/// True when \p D is an AddD/SubD tree at most \p Depth deep whose every
/// leaf is an I2D, a UI2D or an int32-valued ImmD (-0 counts as 0).
static bool isIntSumTree(const LIns *D, int Depth) {
  switch (D->Op) {
  case LOp::I2D:
  case LOp::UI2D:
    return true;
  case LOp::ImmD:
    return isInt32Valued(D->Imm.ImmDbl);
  case LOp::AddD:
  case LOp::SubD:
    return Depth > 0 && isIntSumTree(D->A, Depth - 1) &&
           isIntSumTree(D->B, Depth - 1);
  default:
    return false;
  }
}

LIns *ExprFilter::intSum(LIns *D) {
  switch (D->Op) {
  case LOp::I2D:
  case LOp::UI2D: // a uint32 is its int32 bit pattern mod 2^32
    return D->A;
  case LOp::ImmD:
    return insImmI((int32_t)D->Imm.ImmDbl);
  default:
    return ins2(D->Op == LOp::AddD ? LOp::AddI : LOp::SubI, intSum(D->A),
                intSum(D->B));
  }
}

LIns *ExprFilter::insCall(const CallInfo *CI, LIns **Args, uint32_t N) {
  // `(a + b) | 0` where a + b once overflowed int32: the recorder emitted
  // the sum as doubles and ToInt32 as a call. The double chain stays for
  // any exit that reads it; DCE drops it otherwise.
  if (CI == ToInt32 && N == 1 && isIntSumTree(Args[0], MaxSumDepth))
    return intSum(Args[0]);
  return Out->insCall(CI, Args, N);
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
    bool NegZero = Op == LOp::MulOvI && R == 0 && (X < 0 || Y < 0);
    if (R >= INT32_MIN && R <= INT32_MAX && !NegZero)
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

void CseFilter::clobber(AccSet Writes) {
  if (Writes & Acc::Tar) {
    ++TarEpoch;
    TarGen.clear();
  }
  for (uint32_t C = 0; C < NumClasses; ++C)
    if (Writes & (1u << C))
      ++ClassGen[C];
}

LIns *CseFilter::insLoad(LOp Op, LIns *Base, int32_t Disp, AccSet Loc) {
  if (Loc == Acc::Vm)
    return Out->insLoad(Op, Base, Disp, Loc); // volatile VM channel
  uint64_t Gen = Loc == Acc::Tar ? (TarEpoch << 32) | TarGen[Disp / 8]
                                 : ClassGen[__builtin_ctz(Loc)];
  return numbered({(uint32_t)Op, operandKey(Base), Gen | (uint64_t)Loc << 56,
                   Disp},
                  [&] { return Out->insLoad(Op, Base, Disp, Loc); });
}

LIns *CseFilter::insStore(LOp Op, LIns *Val, LIns *Base, int32_t Disp,
                          AccSet Loc) {
  if (Loc == Acc::Tar)
    ++TarGen[Disp / 8];
  else
    clobber(Loc); // a VM store's generation is one no load keys on
  return Out->insStore(Op, Val, Base, Disp, Loc);
}

LIns *CseFilter::insCall(const CallInfo *CI, LIns **Args, uint32_t N) {
  if (!CI->Pure) {
    clobber(CI->Writes);
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
  clobber(Acc::All);
  return Out->insTreeCall(Inner, Expected, MismatchExit);
}

} // namespace tracejit

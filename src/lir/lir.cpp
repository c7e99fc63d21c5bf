//===- lir.cpp - LIR buffer and base writer ---------------------------------===//

#include "lir/lir.h"

#include <bit>
#include <cassert>

namespace tracejit {

const char *accName(AccSet A) {
  switch (A) {
  case Acc::Tar:
    return "tar";
  case Acc::Vm:
    return "vm";
  case Acc::Header:
    return "hdr";
  case Acc::Slots:
    return "slots";
  case Acc::Elems:
    return "elems";
  case Acc::ReadOnly:
    return "ro";
  default:
    return "?";
  }
}

const char *lopName(LOp Op) {
  return Op < LOp::NumOps ? lirOp(Op).Name : "?";
}

uint64_t LIns::immWord() const {
  switch (Op) {
  case LOp::ImmI:
    return (uint32_t)Imm.ImmI32;
  case LOp::ImmQ:
    return (uint64_t)Imm.ImmQ64;
  default:
    return std::bit_cast<uint64_t>(Imm.ImmDbl);
  }
}

bool evalLir(LOp Op, uint64_t A, uint64_t B, uint64_t &R) {
  int32_t X = (int32_t)A, Y = (int32_t)B;
  double DX = std::bit_cast<double>(A), DY = std::bit_cast<double>(B);
  auto I = [&](int64_t V) { R = (uint32_t)V; }; // int32 wraps, as native
  auto D = [&](double V) { R = std::bit_cast<uint64_t>(V); };
  auto Ov = [&](int64_t V) {
    if (V < INT32_MIN || V > INT32_MAX)
      return false;
    I(V);
    return true;
  };
  switch (Op) {
  case LOp::AddI:
    I((int64_t)X + Y);
    break;
  case LOp::SubI:
    I((int64_t)X - Y);
    break;
  case LOp::MulI:
    I((int64_t)X * Y);
    break;
  case LOp::AndI:
    I(X & Y);
    break;
  case LOp::OrI:
    I(X | Y);
    break;
  case LOp::XorI:
    I(X ^ Y);
    break;
  case LOp::ShlI:
    I((uint32_t)X << (Y & 31));
    break;
  case LOp::ShrI:
    I(X >> (Y & 31));
    break;
  case LOp::UshrI:
    I((uint32_t)X >> (Y & 31));
    break;
  case LOp::AddOvI:
    return Ov((int64_t)X + Y);
  case LOp::SubOvI:
    return Ov((int64_t)X - Y);
  case LOp::MulOvI:
    return Ov((int64_t)X * Y);
  case LOp::AddQ:
    R = A + B;
    break;
  case LOp::AndQ:
    R = A & B;
    break;
  case LOp::OrQ:
    R = A | B;
    break;
  case LOp::ShlQ:
    R = A << (Y & 63);
    break;
  case LOp::ShrQ:
    R = A >> (Y & 63);
    break;
  case LOp::SarQ:
    R = (uint64_t)((int64_t)A >> (Y & 63));
    break;
  case LOp::Q2I:
  case LOp::UI2Q:
    R = (uint32_t)A;
    break;
  case LOp::EqI:
    R = X == Y;
    break;
  case LOp::NeI:
    R = X != Y;
    break;
  case LOp::LtI:
    R = X < Y;
    break;
  case LOp::LeI:
    R = X <= Y;
    break;
  case LOp::GtI:
    R = X > Y;
    break;
  case LOp::GeI:
    R = X >= Y;
    break;
  case LOp::LtUI:
    R = (uint32_t)X < (uint32_t)Y;
    break;
  case LOp::EqQ:
    R = A == B;
    break;
  case LOp::AddD:
    D(DX + DY);
    break;
  case LOp::SubD:
    D(DX - DY);
    break;
  case LOp::MulD:
    D(DX * DY);
    break;
  case LOp::DivD:
    D(DX / DY);
    break;
  case LOp::NegD:
    D(-DX);
    break;
  case LOp::EqD:
    R = DX == DY;
    break;
  case LOp::NeD:
    R = DX != DY;
    break;
  case LOp::LtD:
    R = DX < DY;
    break;
  case LOp::LeD:
    R = DX <= DY;
    break;
  case LOp::GtD:
    R = DX > DY;
    break;
  case LOp::GeD:
    R = DX >= DY;
    break;
  case LOp::I2D:
    D(X);
    break;
  case LOp::UI2D:
    D((uint32_t)X);
    break;
  case LOp::D2I:
    // cvttsd2si: NaN and anything outside int32 give the "integer
    // indefinite" value.
    I(DX > -2147483649.0 && DX < 2147483648.0 ? (int32_t)DX : INT32_MIN);
    break;
  default:
    assert(!"evalLir: not a value opcode");
    R = 0;
  }
  return true;
}

// --- Base writer: forward everything downstream ---------------------------------

LIns *LirWriter::ins0(LOp Op) { return Out->ins0(Op); }
LIns *LirWriter::ins1(LOp Op, LIns *A) { return Out->ins1(Op, A); }
LIns *LirWriter::ins2(LOp Op, LIns *A, LIns *B) { return Out->ins2(Op, A, B); }
LIns *LirWriter::insImmI(int32_t V) { return Out->insImmI(V); }
LIns *LirWriter::insImmQ(int64_t V) { return Out->insImmQ(V); }
LIns *LirWriter::insImmD(double V) { return Out->insImmD(V); }
LIns *LirWriter::insLoad(LOp Op, LIns *Base, int32_t Disp, AccSet Loc) {
  return Out->insLoad(Op, Base, Disp, Loc);
}
LIns *LirWriter::insStore(LOp Op, LIns *Val, LIns *Base, int32_t Disp,
                          AccSet Loc) {
  return Out->insStore(Op, Val, Base, Disp, Loc);
}
LIns *LirWriter::insCall(const CallInfo *CI, LIns **Args, uint32_t N) {
  return Out->insCall(CI, Args, N);
}
LIns *LirWriter::insGuard(LOp Op, LIns *Cond, ExitDescriptor *Exit) {
  return Out->insGuard(Op, Cond, Exit);
}
LIns *LirWriter::insOvf(LOp Op, LIns *A, LIns *B, ExitDescriptor *Exit) {
  return Out->insOvf(Op, A, B, Exit);
}
LIns *LirWriter::insExit(ExitDescriptor *Exit) { return Out->insExit(Exit); }
LIns *LirWriter::insTreeCall(Fragment *Inner, ExitDescriptor *Expected,
                             ExitDescriptor *MismatchExit) {
  return Out->insTreeCall(Inner, Expected, MismatchExit);
}
LIns *LirWriter::insLoop() { return Out->insLoop(); }
LIns *LirWriter::insJmpFrag(Fragment *Target) {
  return Out->insJmpFrag(Target);
}

// --- Buffer -----------------------------------------------------------------------

LIns *LirBuffer::make(LOp Op, LIns *A, LIns *B) {
  LIns *I = TheArena.make<LIns>();
  I->Op = Op;
  I->Ty = resultType(Op);
  I->A = A;
  I->B = B;
  I->Id = NextId++;
  Body.push_back(I);
  return I;
}

LIns *LirBuffer::ins0(LOp Op) { return make(Op); }
LIns *LirBuffer::ins1(LOp Op, LIns *A) { return make(Op, A); }
LIns *LirBuffer::ins2(LOp Op, LIns *A, LIns *B) { return make(Op, A, B); }

LIns *LirBuffer::insImmI(int32_t V) {
  LIns *I = make(LOp::ImmI);
  I->Imm.ImmI32 = V;
  return I;
}

LIns *LirBuffer::insImmQ(int64_t V) {
  LIns *I = make(LOp::ImmQ);
  I->Imm.ImmQ64 = V;
  return I;
}

LIns *LirBuffer::insImmD(double V) {
  LIns *I = make(LOp::ImmD);
  I->Imm.ImmDbl = V;
  return I;
}

LIns *LirBuffer::insLoad(LOp Op, LIns *Base, int32_t Disp, AccSet Loc) {
  LIns *I = make(Op, Base);
  I->Disp = Disp;
  I->Loc = Loc;
  return I;
}

LIns *LirBuffer::insStore(LOp Op, LIns *Val, LIns *Base, int32_t Disp,
                          AccSet Loc) {
  LIns *I = make(Op, Val, Base);
  I->Disp = Disp;
  I->Loc = Loc;
  return I;
}

LIns *LirBuffer::insCall(const CallInfo *CI, LIns **Args, uint32_t N) {
  assert(N == CI->NArgs && "call arity mismatch");
  LIns *I = make(LOp::Call);
  I->Ty = CI->Ret;
  I->CI = CI;
  I->NCallArgs = (uint8_t)N;
  I->CallArgs = TheArena.makeArray<LIns *>(N);
  for (uint32_t K = 0; K < N; ++K)
    I->CallArgs[K] = Args[K];
  return I;
}

LIns *LirBuffer::insGuard(LOp Op, LIns *Cond, ExitDescriptor *Exit) {
  LIns *I = make(Op, Cond);
  I->Exit = Exit;
  return I;
}

LIns *LirBuffer::insOvf(LOp Op, LIns *A, LIns *B, ExitDescriptor *Exit) {
  LIns *I = make(Op, A, B);
  I->Exit = Exit;
  return I;
}

LIns *LirBuffer::insExit(ExitDescriptor *Exit) {
  LIns *I = make(LOp::Exit);
  I->Exit = Exit;
  return I;
}

LIns *LirBuffer::insTreeCall(Fragment *Inner, ExitDescriptor *Expected,
                             ExitDescriptor *MismatchExit) {
  LIns *I = make(LOp::TreeCall);
  I->Target = Inner;
  I->ExpectedExit = Expected;
  I->Exit = MismatchExit;
  return I;
}

LIns *LirBuffer::insLoop() { return make(LOp::Loop); }

LIns *LirBuffer::insJmpFrag(Fragment *Target) {
  LIns *I = make(LOp::JmpFrag);
  I->Target = Target;
  return I;
}

} // namespace tracejit

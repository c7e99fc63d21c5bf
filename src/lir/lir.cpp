//===- lir.cpp - LIR buffer and base writer ---------------------------------===//

#include "lir/lir.h"

#include <cassert>

namespace tracejit {

const char *lopName(LOp Op) {
  switch (Op) {
  case LOp::ParamTar:
    return "param.tar";
  case LOp::ImmI:
    return "immi";
  case LOp::ImmQ:
    return "immq";
  case LOp::ImmD:
    return "immd";
  case LOp::LdI:
    return "ldi";
  case LOp::LdQ:
    return "ldq";
  case LOp::LdD:
    return "ldd";
  case LOp::LdUB:
    return "ldub";
  case LOp::StI:
    return "sti";
  case LOp::StQ:
    return "stq";
  case LOp::StD:
    return "std";
  case LOp::AddI:
    return "addi";
  case LOp::SubI:
    return "subi";
  case LOp::MulI:
    return "muli";
  case LOp::AndI:
    return "andi";
  case LOp::OrI:
    return "ori";
  case LOp::XorI:
    return "xori";
  case LOp::ShlI:
    return "shli";
  case LOp::ShrI:
    return "shri";
  case LOp::UshrI:
    return "ushri";
  case LOp::AddOvI:
    return "addov";
  case LOp::SubOvI:
    return "subov";
  case LOp::MulOvI:
    return "mulov";
  case LOp::AddQ:
    return "addq";
  case LOp::AndQ:
    return "andq";
  case LOp::OrQ:
    return "orq";
  case LOp::ShlQ:
    return "shlq";
  case LOp::ShrQ:
    return "shrq";
  case LOp::SarQ:
    return "sarq";
  case LOp::Q2I:
    return "q2i";
  case LOp::UI2Q:
    return "ui2q";
  case LOp::EqI:
    return "eqi";
  case LOp::NeI:
    return "nei";
  case LOp::LtI:
    return "lti";
  case LOp::LeI:
    return "lei";
  case LOp::GtI:
    return "gti";
  case LOp::GeI:
    return "gei";
  case LOp::LtUI:
    return "ltui";
  case LOp::EqQ:
    return "eqq";
  case LOp::AddD:
    return "addd";
  case LOp::SubD:
    return "subd";
  case LOp::MulD:
    return "muld";
  case LOp::DivD:
    return "divd";
  case LOp::NegD:
    return "negd";
  case LOp::EqD:
    return "eqd";
  case LOp::NeD:
    return "ned";
  case LOp::LtD:
    return "ltd";
  case LOp::LeD:
    return "led";
  case LOp::GtD:
    return "gtd";
  case LOp::GeD:
    return "ged";
  case LOp::I2D:
    return "i2d";
  case LOp::UI2D:
    return "ui2d";
  case LOp::D2I:
    return "d2i";
  case LOp::Call:
    return "call";
  case LOp::GuardT:
    return "xf"; // exits if condition false (paper's xf mnemonic)
  case LOp::GuardF:
    return "xt";
  case LOp::Exit:
    return "exit";
  case LOp::TreeCall:
    return "treecall";
  case LOp::Loop:
    return "loop";
  case LOp::JmpFrag:
    return "jmpfrag";
  case LOp::NumOps:
    break;
  }
  return "?";
}

LTy resultType(LOp Op) {
  switch (Op) {
  case LOp::ParamTar:
  case LOp::ImmQ:
  case LOp::LdQ:
  case LOp::AddQ:
  case LOp::AndQ:
  case LOp::OrQ:
  case LOp::ShlQ:
  case LOp::ShrQ:
  case LOp::SarQ:
  case LOp::UI2Q:
    return LTy::Q;
  case LOp::ImmD:
  case LOp::LdD:
  case LOp::AddD:
  case LOp::SubD:
  case LOp::MulD:
  case LOp::DivD:
  case LOp::NegD:
  case LOp::I2D:
  case LOp::UI2D:
    return LTy::D;
  case LOp::StI:
  case LOp::StQ:
  case LOp::StD:
  case LOp::GuardT:
  case LOp::GuardF:
  case LOp::Exit:
  case LOp::Loop:
  case LOp::JmpFrag:
  case LOp::TreeCall:
    return LTy::Void;
  case LOp::Call:
    return LTy::Void; // actual type comes from CallInfo
  default:
    return LTy::I32;
  }
}

// --- Base writer: forward everything downstream ---------------------------------

LIns *LirWriter::ins0(LOp Op) { return Out->ins0(Op); }
LIns *LirWriter::ins1(LOp Op, LIns *A) { return Out->ins1(Op, A); }
LIns *LirWriter::ins2(LOp Op, LIns *A, LIns *B) { return Out->ins2(Op, A, B); }
LIns *LirWriter::insImmI(int32_t V) { return Out->insImmI(V); }
LIns *LirWriter::insImmQ(int64_t V) { return Out->insImmQ(V); }
LIns *LirWriter::insImmD(double V) { return Out->insImmD(V); }
LIns *LirWriter::insLoad(LOp Op, LIns *Base, int32_t Disp) {
  return Out->insLoad(Op, Base, Disp);
}
LIns *LirWriter::insStore(LOp Op, LIns *Val, LIns *Base, int32_t Disp) {
  return Out->insStore(Op, Val, Base, Disp);
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

LIns *LirBuffer::ins0(LOp Op) {
  LIns *I = fresh();
  I->Op = Op;
  I->Ty = resultType(Op);
  return append(I);
}

LIns *LirBuffer::ins1(LOp Op, LIns *A) {
  LIns *I = fresh();
  I->Op = Op;
  I->Ty = resultType(Op);
  I->A = A;
  return append(I);
}

LIns *LirBuffer::ins2(LOp Op, LIns *A, LIns *B) {
  LIns *I = fresh();
  I->Op = Op;
  I->Ty = resultType(Op);
  I->A = A;
  I->B = B;
  return append(I);
}

LIns *LirBuffer::insImmI(int32_t V) {
  LIns *I = fresh();
  I->Op = LOp::ImmI;
  I->Ty = LTy::I32;
  I->Imm.ImmI32 = V;
  return append(I);
}

LIns *LirBuffer::insImmQ(int64_t V) {
  LIns *I = fresh();
  I->Op = LOp::ImmQ;
  I->Ty = LTy::Q;
  I->Imm.ImmQ64 = V;
  return append(I);
}

LIns *LirBuffer::insImmD(double V) {
  LIns *I = fresh();
  I->Op = LOp::ImmD;
  I->Ty = LTy::D;
  I->Imm.ImmDbl = V;
  return append(I);
}

LIns *LirBuffer::insLoad(LOp Op, LIns *Base, int32_t Disp) {
  LIns *I = fresh();
  I->Op = Op;
  I->Ty = resultType(Op);
  I->A = Base;
  I->Disp = Disp;
  return append(I);
}

LIns *LirBuffer::insStore(LOp Op, LIns *Val, LIns *Base, int32_t Disp) {
  LIns *I = fresh();
  I->Op = Op;
  I->Ty = LTy::Void;
  I->A = Val;
  I->B = Base;
  I->Disp = Disp;
  return append(I);
}

LIns *LirBuffer::insCall(const CallInfo *CI, LIns **Args, uint32_t N) {
  assert(N == CI->NArgs && "call arity mismatch");
  LIns *I = fresh();
  I->Op = LOp::Call;
  I->Ty = CI->Ret;
  I->CI = CI;
  I->NCallArgs = (uint8_t)N;
  I->CallArgs = TheArena.makeArray<LIns *>(N);
  for (uint32_t K = 0; K < N; ++K)
    I->CallArgs[K] = Args[K];
  return append(I);
}

LIns *LirBuffer::insGuard(LOp Op, LIns *Cond, ExitDescriptor *Exit) {
  LIns *I = fresh();
  I->Op = Op;
  I->Ty = LTy::Void;
  I->A = Cond;
  I->Exit = Exit;
  return append(I);
}

LIns *LirBuffer::insOvf(LOp Op, LIns *A, LIns *B, ExitDescriptor *Exit) {
  LIns *I = fresh();
  I->Op = Op;
  I->Ty = LTy::I32;
  I->A = A;
  I->B = B;
  I->Exit = Exit;
  return append(I);
}

LIns *LirBuffer::insExit(ExitDescriptor *Exit) {
  LIns *I = fresh();
  I->Op = LOp::Exit;
  I->Ty = LTy::Void;
  I->Exit = Exit;
  return append(I);
}

LIns *LirBuffer::insTreeCall(Fragment *Inner, ExitDescriptor *Expected,
                             ExitDescriptor *MismatchExit) {
  LIns *I = fresh();
  I->Op = LOp::TreeCall;
  I->Ty = LTy::Void;
  I->Target = Inner;
  I->ExpectedExit = Expected;
  I->Exit = MismatchExit;
  return append(I);
}

LIns *LirBuffer::insLoop() {
  LIns *I = fresh();
  I->Op = LOp::Loop;
  I->Ty = LTy::Void;
  return append(I);
}

LIns *LirBuffer::insJmpFrag(Fragment *Target) {
  LIns *I = fresh();
  I->Op = LOp::JmpFrag;
  I->Ty = LTy::Void;
  I->Target = Target;
  return append(I);
}

} // namespace tracejit

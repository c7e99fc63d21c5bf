//===- printer.cpp - LIR printing and type checking --------------------------===//

#include <cstdio>
#include <unordered_set>

#include "jit/fragment.h"
#include "lir/lir.h"

namespace tracejit {

static const char *tyName(LTy T) {
  switch (T) {
  case LTy::Void:
    return "v";
  case LTy::I32:
    return "i";
  case LTy::Q:
    return "q";
  case LTy::D:
    return "d";
  }
  return "?";
}

/// Compact one-char-per-slot rendering of an exit type map, globals and
/// stack separated by '|': "[ii|dis]". Long maps are truncated with the
/// count of the elided tail, keeping guard lines one line.
static std::string typeMapSummary(const TypeMap &M) {
  std::string Out = "[";
  const uint32_t Limit = 32;
  for (uint32_t I = 0; I < M.size(); ++I) {
    if (I == M.NumGlobals)
      Out += "|";
    if (I >= Limit) {
      Out += '+';
      Out += std::to_string(M.size() - I);
      break;
    }
    switch (M.Types[I]) {
    case TraceType::Int:
      Out += "i";
      break;
    case TraceType::Double:
      Out += "d";
      break;
    case TraceType::Object:
      Out += "o";
      break;
    case TraceType::String:
      Out += "s";
      break;
    case TraceType::Boolean:
      Out += "b";
      break;
    case TraceType::Null:
      Out += "n";
      break;
    case TraceType::Undefined:
      Out += "u";
      break;
    }
  }
  Out += "]";
  return Out;
}

/// "exit3(type@12 sp=2 depth=1 types=[|ii])" -- the exit metadata the
/// verifier's diagnostics (and anyone reading a trace dump) need: which
/// interpreter state the exit restores, not just where it resumes.
static void appendExitMeta(std::string &Out, const ExitDescriptor *E) {
  char Buf[64];
  if (!E) {
    Out += "exit?";
    return;
  }
  snprintf(Buf, sizeof(Buf), "exit%u(%s@%u sp=%u depth=%zu types=", E->Id,
           exitKindName(E->Kind), E->Pc, E->Sp, E->Frames.size());
  Out += Buf;
  Out += typeMapSummary(E->Types);
  Out += ")";
}

std::string formatIns(const LIns *I) {
  char Buf[256];
  auto Ref = [](const LIns *X) {
    static thread_local char RBuf[4][16];
    static thread_local int Slot = 0;
    Slot = (Slot + 1) & 3;
    if (!X)
      snprintf(RBuf[Slot], 16, "-");
    else
      snprintf(RBuf[Slot], 16, "v%u", X->Id);
    return RBuf[Slot];
  };

  std::string Out;
  snprintf(Buf, sizeof(Buf), "v%-4u %s= %-8s", I->Id, tyName(I->Ty),
           lopName(I->Op));
  Out += Buf;
  switch (I->Op) {
  case LOp::ImmI:
    snprintf(Buf, sizeof(Buf), " %d", I->Imm.ImmI32);
    Out += Buf;
    break;
  case LOp::ImmQ:
    snprintf(Buf, sizeof(Buf), " %#llx", (unsigned long long)I->Imm.ImmQ64);
    Out += Buf;
    break;
  case LOp::ImmD:
    snprintf(Buf, sizeof(Buf), " %g", I->Imm.ImmDbl);
    Out += Buf;
    break;
  case LOp::LdI:
  case LOp::LdQ:
  case LOp::LdD:
  case LOp::LdUB:
    snprintf(Buf, sizeof(Buf), " %s[%d]", Ref(I->A), I->Disp);
    Out += Buf;
    break;
  case LOp::StI:
  case LOp::StQ:
  case LOp::StD:
    snprintf(Buf, sizeof(Buf), " %s -> %s[%d]", Ref(I->A), Ref(I->B), I->Disp);
    Out += Buf;
    break;
  case LOp::Call: {
    snprintf(Buf, sizeof(Buf), " %s(", I->CI->Name);
    Out += Buf;
    for (uint32_t K = 0; K < I->NCallArgs; ++K) {
      if (K)
        Out += ", ";
      Out += Ref(I->CallArgs[K]);
    }
    Out += ")";
    break;
  }
  case LOp::GuardT:
  case LOp::GuardF:
    snprintf(Buf, sizeof(Buf), " %s -> ", Ref(I->A));
    Out += Buf;
    appendExitMeta(Out, I->Exit);
    break;
  case LOp::Exit:
    Out += " -> ";
    appendExitMeta(Out, I->Exit);
    break;
  case LOp::TreeCall:
    snprintf(Buf, sizeof(Buf), " frag%u expecting exit%u, mismatch -> ",
             I->Target ? I->Target->Id : 0,
             I->ExpectedExit ? I->ExpectedExit->Id : 0);
    Out += Buf;
    appendExitMeta(Out, I->Exit);
    break;
  case LOp::JmpFrag:
    snprintf(Buf, sizeof(Buf), " -> frag%u", I->Target ? I->Target->Id : 0);
    Out += Buf;
    break;
  case LOp::ParamTar:
  case LOp::Loop:
    break;
  default:
    if (I->A) {
      Out += " ";
      Out += Ref(I->A);
    }
    if (I->B) {
      Out += ", ";
      Out += Ref(I->B);
    }
    if (I->Exit) { // overflow-checked arithmetic
      Out += " -> ";
      appendExitMeta(Out, I->Exit);
    }
    break;
  }
  return Out;
}

std::string formatBody(const std::vector<LIns *> &Body) {
  std::string Out;
  for (const LIns *I : Body) {
    Out += formatIns(I);
    Out += "\n";
  }
  return Out;
}

std::string formatBody(const std::vector<LIns *> &Body, uint32_t PrologueEnd) {
  if (!PrologueEnd)
    return formatBody(Body);
  std::string Out = "-- prologue --\n";
  for (uint32_t P = 0; P < Body.size(); ++P) {
    if (P == PrologueEnd)
      Out += "-- loop --\n";
    Out += formatIns(Body[P]);
    Out += "\n";
  }
  return Out;
}

const char *exitKindName(ExitKind K) {
  switch (K) {
  case ExitKind::Branch:
    return "branch";
  case ExitKind::Type:
    return "type";
  case ExitKind::Overflow:
    return "overflow";
  case ExitKind::LoopExit:
    return "loopexit";
  case ExitKind::Unstable:
    return "unstable";
  case ExitKind::Nested:
    return "nested";
  case ExitKind::Preempt:
    return "preempt";
  case ExitKind::Deopt:
    return "deopt";
  }
  return "?";
}

const char *traceTypeName(TraceType T) {
  switch (T) {
  case TraceType::Int:
    return "int";
  case TraceType::Double:
    return "double";
  case TraceType::Object:
    return "object";
  case TraceType::String:
    return "string";
  case TraceType::Boolean:
    return "bool";
  case TraceType::Null:
    return "null";
  case TraceType::Undefined:
    return "undef";
  }
  return "?";
}

std::string TypeMap::describe() const {
  std::string Out = "[";
  for (uint32_t I = 0; I < size(); ++I) {
    if (I)
      Out += " ";
    if (I == NumGlobals)
      Out += "| ";
    Out += traceTypeName(Types[I]);
  }
  Out += "]";
  return Out;
}

// --- Type checker --------------------------------------------------------------

static std::string checkOperand(const LIns *I, const LIns *Opnd, LTy Want,
                                const char *Which) {
  if (!Opnd)
    return "missing " + std::string(Which) + " operand in " + formatIns(I);
  if (Opnd->Ty != Want)
    return std::string("operand type mismatch (") + Which + ") in " +
           formatIns(I) + ": have " + tyName(Opnd->Ty) + ", want " +
           tyName(Want);
  return "";
}

std::string typecheckBody(const std::vector<LIns *> &Body) {
  std::unordered_set<const LIns *> Defined;
  for (const LIns *I : Body) {
    // SSA ordering: every operand must be defined earlier in the body.
    auto CheckDef = [&](const LIns *O) -> std::string {
      if (O && !Defined.count(O))
        return "use before def in " + formatIns(I);
      return "";
    };
    for (const LIns *O : {I->A, I->B})
      if (auto E = CheckDef(O); !E.empty())
        return E;
    for (uint32_t K = 0; K < I->NCallArgs; ++K)
      if (auto E = CheckDef(I->CallArgs[K]); !E.empty())
        return E;

    std::string Err;
    switch (I->Op) {
    case LOp::AddI:
    case LOp::SubI:
    case LOp::MulI:
    case LOp::AndI:
    case LOp::OrI:
    case LOp::XorI:
    case LOp::ShlI:
    case LOp::ShrI:
    case LOp::UshrI:
    case LOp::AddOvI:
    case LOp::SubOvI:
    case LOp::MulOvI:
    case LOp::EqI:
    case LOp::NeI:
    case LOp::LtI:
    case LOp::LeI:
    case LOp::GtI:
    case LOp::GeI:
    case LOp::LtUI:
      Err = checkOperand(I, I->A, LTy::I32, "lhs");
      if (Err.empty())
        Err = checkOperand(I, I->B, LTy::I32, "rhs");
      break;
    case LOp::AddD:
    case LOp::SubD:
    case LOp::MulD:
    case LOp::DivD:
    case LOp::EqD:
    case LOp::NeD:
    case LOp::LtD:
    case LOp::LeD:
    case LOp::GtD:
    case LOp::GeD:
      Err = checkOperand(I, I->A, LTy::D, "lhs");
      if (Err.empty())
        Err = checkOperand(I, I->B, LTy::D, "rhs");
      break;
    case LOp::NegD:
    case LOp::D2I:
      Err = checkOperand(I, I->A, LTy::D, "src");
      break;
    case LOp::I2D:
    case LOp::UI2D:
    case LOp::UI2Q:
      Err = checkOperand(I, I->A, LTy::I32, "src");
      break;
    case LOp::Q2I:
      Err = checkOperand(I, I->A, LTy::Q, "src");
      break;
    case LOp::AddQ:
    case LOp::AndQ:
    case LOp::OrQ:
    case LOp::EqQ:
      Err = checkOperand(I, I->A, LTy::Q, "lhs");
      if (Err.empty())
        Err = checkOperand(I, I->B, LTy::Q, "rhs");
      break;
    case LOp::ShlQ:
    case LOp::ShrQ:
    case LOp::SarQ:
      Err = checkOperand(I, I->A, LTy::Q, "lhs");
      if (Err.empty())
        Err = checkOperand(I, I->B, LTy::I32, "count");
      break;
    case LOp::LdI:
    case LOp::LdQ:
    case LOp::LdD:
    case LOp::LdUB:
      Err = checkOperand(I, I->A, LTy::Q, "base");
      break;
    case LOp::StI:
      Err = checkOperand(I, I->A, LTy::I32, "value");
      if (Err.empty())
        Err = checkOperand(I, I->B, LTy::Q, "base");
      break;
    case LOp::StQ:
      Err = checkOperand(I, I->A, LTy::Q, "value");
      if (Err.empty())
        Err = checkOperand(I, I->B, LTy::Q, "base");
      break;
    case LOp::StD:
      Err = checkOperand(I, I->A, LTy::D, "value");
      if (Err.empty())
        Err = checkOperand(I, I->B, LTy::Q, "base");
      break;
    case LOp::GuardT:
    case LOp::GuardF:
      Err = checkOperand(I, I->A, LTy::I32, "cond");
      if (Err.empty() && !I->Exit)
        Err = "guard without exit: " + formatIns(I);
      break;
    case LOp::Call:
      for (uint32_t K = 0; K < I->NCallArgs && Err.empty(); ++K)
        Err = checkOperand(I, I->CallArgs[K], I->CI->Args[K], "arg");
      break;
    default:
      break;
    }
    if (!Err.empty())
      return Err;
    Defined.insert(I);
  }
  return "";
}

} // namespace tracejit

//===- verify.cpp - LIR verifier and trace-invariant checker -----------------===//

#include "lir/verify.h"

#include <unordered_set>

#include "frontend/bytecode.h"
#include "jit/fragment.h"
#include "support/stats.h"

namespace tracejit {

std::string VerifyError::describe() const {
  std::string Out = verifyRuleName(Rule);
  if (InsId != ~0u) {
    Out += " @v";
    Out += std::to_string(InsId);
  }
  Out += ": ";
  Out += Message;
  return Out;
}

namespace {

const char *tyn(LTy T) {
  switch (T) {
  case LTy::Void:
    return "void";
  case LTy::I32:
    return "i32";
  case LTy::Q:
    return "q";
  case LTy::D:
    return "d";
  }
  return "?";
}

/// A rule violation found by one of the shared checkers; empty = ok.
struct RuleHit {
  VerifyRule Rule = VerifyRule::None;
  std::string Msg;
  explicit operator bool() const { return Rule != VerifyRule::None; }
};

RuleHit wantOperand(LOp Op, const LIns *O, LTy Want, const char *Which) {
  if (!O)
    return {VerifyRule::MissingOperand,
            std::string("missing ") + Which + " operand of " + lopName(Op)};
  if (O->Ty != Want)
    return {VerifyRule::OperandType, std::string(Which) + " operand of " +
                                         lopName(Op) + " is " + tyn(O->Ty) +
                                         ", want " + tyn(Want)};
  return {};
}

RuleHit wantOperands(LOp Op, const LIns *A, LTy WantA, const LIns *B,
                     LTy WantB) {
  if (RuleHit H = wantOperand(Op, A, WantA, "first"))
    return H;
  return wantOperand(Op, B, WantB, "second");
}

/// Operand typing rules per opcode (the I/Q/D domains of §3.1; same table
/// the legacy typecheckBody used, now shared by both verifier entry
/// points). For stores, A is the value and B the base, matching both the
/// LIns layout and the insStore argument order.
RuleHit checkOperandTypes(LOp Op, const LIns *A, const LIns *B) {
  switch (Op) {
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
    return wantOperands(Op, A, LTy::I32, B, LTy::I32);
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
    return wantOperands(Op, A, LTy::D, B, LTy::D);
  case LOp::NegD:
  case LOp::D2I:
    return wantOperand(Op, A, LTy::D, "first");
  case LOp::I2D:
  case LOp::UI2D:
  case LOp::UI2Q:
    return wantOperand(Op, A, LTy::I32, "first");
  case LOp::Q2I:
    return wantOperand(Op, A, LTy::Q, "first");
  case LOp::AddQ:
  case LOp::AndQ:
  case LOp::OrQ:
  case LOp::EqQ:
    return wantOperands(Op, A, LTy::Q, B, LTy::Q);
  case LOp::ShlQ:
  case LOp::ShrQ:
  case LOp::SarQ:
    if (RuleHit H = wantOperands(Op, A, LTy::Q, B, LTy::I32))
      return H;
    if (B->Op != LOp::ImmI)
      return {VerifyRule::ShiftCountNotImm,
              std::string(lopName(Op)) + " count must be an immediate"};
    return {};
  case LOp::LdI:
  case LOp::LdQ:
  case LOp::LdD:
  case LOp::LdUB:
    return wantOperand(Op, A, LTy::Q, "base");
  case LOp::StI:
    return wantOperands(Op, A, LTy::I32, B, LTy::Q);
  case LOp::StQ:
    return wantOperands(Op, A, LTy::Q, B, LTy::Q);
  case LOp::StD:
    return wantOperands(Op, A, LTy::D, B, LTy::Q);
  case LOp::GuardT:
  case LOp::GuardF:
    return wantOperand(Op, A, LTy::I32, "condition");
  default:
    return {};
  }
}

/// TAR base+disp addressing: slots are 8 bytes and indexed from 0, so a
/// load/store whose base is the TAR parameter must use a non-negative,
/// 8-aligned offset; \p SlotLimit (when nonzero: the fragment's
/// RequiredTarSlots) bounds the slot domain.
RuleHit checkTarDisp(LOp Op, const LIns *Base, int32_t Disp,
                     uint32_t SlotLimit) {
  if (!Base || Base->Op != LOp::ParamTar)
    return {};
  if (Disp < 0 || (Disp % 8) != 0)
    return {VerifyRule::TarAddressing, std::string(lopName(Op)) +
                                           " TAR offset " +
                                           std::to_string(Disp) +
                                           " is negative or unaligned"};
  if (SlotLimit && (uint32_t)(Disp / 8) >= SlotLimit)
    return {VerifyRule::TarAddressing,
            std::string(lopName(Op)) + " TAR slot " +
                std::to_string(Disp / 8) +
                " is outside the fragment's slot domain (" +
                std::to_string(SlotLimit) + " slots)"};
  return {};
}

RuleHit checkCall(const CallInfo *CI, LIns *const *Args, uint32_t N) {
  if (!CI)
    return {VerifyRule::CallSignature, "call without a CallInfo"};
  if (N != CI->NArgs || N > 6)
    return {VerifyRule::CallSignature,
            std::string("call to ") + CI->Name + " passes " +
                std::to_string(N) + " args, signature has " +
                std::to_string(CI->NArgs)};
  for (uint32_t K = 0; K < N; ++K) {
    const LIns *A = Args ? Args[K] : nullptr;
    if (!A)
      return {VerifyRule::MissingOperand, std::string("missing arg ") +
                                              std::to_string(K) +
                                              " of call to " + CI->Name};
    if (A->Ty != CI->Args[K])
      return {VerifyRule::CallSignature,
              std::string("arg ") + std::to_string(K) + " of call to " +
                  CI->Name + " is " + tyn(A->Ty) + ", want " +
                  tyn(CI->Args[K])};
  }
  return {};
}

/// Exit descriptors restore interpreter state, so their type map must
/// cover exactly the slot domain [0, NumGlobals + Sp) (§2, §4).
RuleHit checkExitMap(LOp Op, const ExitDescriptor *E, uint32_t NumGlobals) {
  if (!E)
    return {VerifyRule::GuardWithoutExit,
            std::string(lopName(Op)) + " without an exit descriptor"};
  if (E->Types.NumGlobals != NumGlobals ||
      E->Types.size() != NumGlobals + E->Sp)
    return {VerifyRule::ExitTypeMapLength,
            std::string("exit") + std::to_string(E->Id) + " type map covers " +
                std::to_string(E->Types.size()) + " slots (globals " +
                std::to_string(E->Types.NumGlobals) + "), want " +
                std::to_string(NumGlobals + E->Sp) + " (globals " +
                std::to_string(NumGlobals) + " + sp " + std::to_string(E->Sp) +
                ")"};
  return {};
}

/// Exit-constant slots (ExitDescriptor::ConstSlots): strictly increasing,
/// stack slots at or above \p Floor (the tree's entry slot count; exits see
/// nothing else that only they observe) and below the exit's Sp, each typed
/// as a value with a TAR word that fits its type.
RuleHit checkExitConstSlots(const ExitDescriptor *E, uint32_t Floor) {
  if (!E)
    return {};
  auto Hit = [&](const ExitConstSlot &C, const std::string &What) {
    return RuleHit{VerifyRule::ExitConstSlots,
                   std::string("exit") + std::to_string(E->Id) +
                       " constant slot " + std::to_string(C.Slot) + " " +
                       What};
  };
  uint32_t Next = Floor;
  for (const ExitConstSlot &C : E->ConstSlots) {
    if (C.Slot < Next || C.Slot >= E->Types.size())
      return Hit(C, "is unsorted or outside [" + std::to_string(Floor) +
                        ", " + std::to_string(E->Types.size()) + ")");
    Next = C.Slot + 1;
    switch (E->Types.Types[C.Slot]) {
    case TraceType::Null:
    case TraceType::Undefined:
    case TraceType::Boxed:
      return Hit(C, "has a valueless type");
    case TraceType::Boolean:
      if (C.Word > 1)
        return Hit(C, "is not a boolean word");
      break;
    case TraceType::Int:
      if (C.Word >> 32)
        return Hit(C, "is not an int32 word");
      break;
    default:
      break;
    }
  }
  return {};
}

/// Frame-chain sanity at an exit: bases grow bottom-to-top, the top frame
/// sits at or below the exit Sp, and the resume pc lands inside the top
/// frame's script. Hand-built fragments without frame chains skip this.
RuleHit checkExitFrames(const ExitDescriptor *E) {
  if (!E || E->Frames.empty())
    return {};
  uint32_t PrevBase = 0;
  for (const FrameEntry &Fr : E->Frames) {
    if (Fr.Base < PrevBase)
      return {VerifyRule::ExitFrameBounds,
              std::string("exit") + std::to_string(E->Id) +
                  " frame bases are not monotonic"};
    PrevBase = Fr.Base;
  }
  if (E->Frames.back().Base > E->Sp)
    return {VerifyRule::ExitFrameBounds,
            std::string("exit") + std::to_string(E->Id) + " top frame base " +
                std::to_string(E->Frames.back().Base) + " is above sp " +
                std::to_string(E->Sp)};
  if (!E->Frames.back().Script)
    return {VerifyRule::ExitFrameBounds, std::string("exit") +
                                             std::to_string(E->Id) +
                                             " top frame has no script"};
  if (E->Pc >= E->Frames.back().Script->Code.size())
    return {VerifyRule::ExitFrameBounds,
            std::string("exit") + std::to_string(E->Id) + " resume pc " +
                std::to_string(E->Pc) + " is outside the top frame's script"};
  return {};
}

/// Tree-call stitch point (§4.1): the target must be a compiled root tree,
/// and the expected return exit must belong to a tree anchored at the same
/// loop (it may be a branch fragment's exit, or a type-unstable peer's
/// when the inner tree jumped across peers before exiting).
RuleHit checkTreeCallLinkage(const Fragment *Inner,
                             const ExitDescriptor *Expected) {
  if (!Inner)
    return {VerifyRule::TransferTarget, "treecall without a target tree"};
  if (Inner->Root != Inner)
    return {VerifyRule::TransferTarget,
            "treecall target frag" + std::to_string(Inner->Id) +
                " is not a root fragment"};
  if (!Expected)
    return {VerifyRule::TransferTarget, "treecall without an expected exit"};
  if (!Expected->Parent || !Expected->Parent->Root)
    return {VerifyRule::TransferTarget,
            "treecall expected exit" + std::to_string(Expected->Id) +
                " is orphaned (no parent fragment)"};
  if (Expected->Parent->Root->Loop != Inner->Loop)
    return {VerifyRule::TransferTarget,
            "treecall expected exit" + std::to_string(Expected->Id) +
                " belongs to a tree of a different loop"};
  return {};
}

/// The call-site type map (the mismatch exit snapshot, taken right after
/// coerceTo) must agree with the inner tree's entry map on every slot the
/// inner tree types: "identical type maps yield identical activation
/// record layouts" (§6.2), which is what lets the outer trace pass its own
/// TAR to the inner tree. A slot the inner map leaves Boxed may be typed at
/// the call site (kept in the TAR, out of the inner tree's reach).
RuleHit checkTreeCallTypes(const Fragment *Inner,
                           const ExitDescriptor *Mismatch) {
  if (!Inner || !Mismatch)
    return {}; // linkage/exit rules already reported
  const TypeMap &Site = Mismatch->Types;
  const TypeMap &In = Inner->EntryTypes;
  bool Agree = Site.NumGlobals == In.NumGlobals && Site.size() == In.size();
  for (uint32_t S = 0; Agree && S < In.size(); ++S)
    Agree = !In.typed(S) || Site.Types[S] == In.Types[S];
  if (!Agree)
    return {VerifyRule::TreeCallTypeMaps,
            "call-site map " + Site.describe() +
                " does not match inner entry map " + In.describe()};
  return {};
}

} // namespace

// --- Streaming entry point ------------------------------------------------------

VerifyWriter::VerifyWriter(LirWriter *Downstream, LirBuffer &B, uint32_t NG,
                           VMStats *S)
    : LirWriter(Downstream), Buf(B), NumGlobals(NG), Stats(S) {}

void VerifyWriter::fail(VerifyRule R, const std::string &Msg, const LIns *At) {
  if (Err)
    return; // keep the first violation; the rest is fallout
  Err.Rule = R;
  Err.InsId = At ? At->Id : Buf.size();
  Err.Message = Msg;
  if (At) {
    Err.Message += ": ";
    Err.Message += formatIns(At);
  }
  if (Stats) {
    ++Stats->VerifyFailures;
    ++Stats->VerifyFailuresByRule[(size_t)R];
  }
}

void VerifyWriter::countIns() {
  if (Stats)
    ++Stats->LirInsVerified;
}

bool VerifyWriter::checkDefined(LOp Op, const LIns *O, const char *Which) {
  if (!O)
    return true; // presence is the type rules' business
  const std::vector<LIns *> &Body = Buf.instructions();
  if (O->Id < Body.size() && Body[O->Id] == O)
    return true;
  fail(VerifyRule::UseBeforeDef, std::string(Which) + " operand of " +
                                     lopName(Op) +
                                     " is not defined in this trace",
       O);
  return false;
}

bool VerifyWriter::checkOperands(LOp Op, LIns *A, LIns *B) {
  bool Ok = checkDefined(Op, A, "first");
  Ok &= checkDefined(Op, B, "second");
  if (RuleHit H = checkOperandTypes(Op, A, B)) {
    fail(H.Rule, H.Msg);
    Ok = false;
  }
  return Ok;
}

bool VerifyWriter::checkExit(LOp Op, const ExitDescriptor *Exit) {
  RuleHit H = checkExitMap(Op, Exit, NumGlobals);
  if (!H)
    H = checkExitConstSlots(Exit, NumGlobals);
  if (H) {
    fail(H.Rule, H.Msg);
    return false;
  }
  return true;
}

LIns *VerifyWriter::ins0(LOp Op) {
  countIns();
  return Out->ins0(Op);
}

LIns *VerifyWriter::ins1(LOp Op, LIns *A) {
  countIns();
  checkOperands(Op, A, nullptr);
  return Out->ins1(Op, A);
}

LIns *VerifyWriter::ins2(LOp Op, LIns *A, LIns *B) {
  countIns();
  checkOperands(Op, A, B);
  return Out->ins2(Op, A, B);
}

LIns *VerifyWriter::insLoad(LOp Op, LIns *Base, int32_t Disp) {
  countIns();
  checkOperands(Op, Base, nullptr);
  // The streaming pass cannot bound the slot yet (the recorder grows the
  // domain as it imports); verifyTrace applies RequiredTarSlots.
  if (RuleHit H = checkTarDisp(Op, Base, Disp, 0))
    fail(H.Rule, H.Msg);
  return Out->insLoad(Op, Base, Disp);
}

LIns *VerifyWriter::insStore(LOp Op, LIns *Val, LIns *Base, int32_t Disp) {
  countIns();
  checkOperands(Op, Val, Base);
  if (RuleHit H = checkTarDisp(Op, Base, Disp, 0))
    fail(H.Rule, H.Msg);
  return Out->insStore(Op, Val, Base, Disp);
}

LIns *VerifyWriter::insCall(const CallInfo *CI, LIns **Args, uint32_t N) {
  countIns();
  for (uint32_t K = 0; K < N && Args; ++K)
    checkDefined(LOp::Call, Args[K], "arg");
  if (RuleHit H = checkCall(CI, Args, N))
    fail(H.Rule, H.Msg);
  return Out->insCall(CI, Args, N);
}

LIns *VerifyWriter::insGuard(LOp Op, LIns *Cond, ExitDescriptor *Exit) {
  countIns();
  checkOperands(Op, Cond, nullptr);
  checkExit(Op, Exit);
  return Out->insGuard(Op, Cond, Exit);
}

LIns *VerifyWriter::insOvf(LOp Op, LIns *A, LIns *B, ExitDescriptor *Exit) {
  countIns();
  checkOperands(Op, A, B);
  checkExit(Op, Exit);
  return Out->insOvf(Op, A, B, Exit);
}

LIns *VerifyWriter::insExit(ExitDescriptor *Exit) {
  countIns();
  checkExit(LOp::Exit, Exit);
  return Out->insExit(Exit);
}

LIns *VerifyWriter::insTreeCall(Fragment *Inner, ExitDescriptor *Expected,
                                ExitDescriptor *MismatchExit) {
  countIns();
  checkExit(LOp::TreeCall, MismatchExit);
  if (RuleHit H = checkTreeCallLinkage(Inner, Expected))
    fail(H.Rule, H.Msg);
  else if (RuleHit H2 = checkTreeCallTypes(Inner, MismatchExit))
    fail(H2.Rule, H2.Msg);
  return Out->insTreeCall(Inner, Expected, MismatchExit);
}

LIns *VerifyWriter::insJmpFrag(Fragment *Target) {
  countIns();
  if (!Target || Target->Root != Target)
    fail(VerifyRule::TransferTarget,
         "jmpfrag target is missing or not a root fragment");
  return Out->insJmpFrag(Target);
}

// --- Whole-trace entry point ----------------------------------------------------

bool verifyTrace(const Fragment &F, uint32_t NumGlobals, VerifyError &Err,
                 VMStats *Stats) {
  Err = VerifyError();
  if (Stats) {
    ++Stats->TracesVerified;
    Stats->LirInsVerified += F.Body.size();
  }

  auto Fail = [&](VerifyRule R, const LIns *I, std::string Msg) {
    Err.Rule = R;
    Err.InsId = I ? I->Id : ~0u;
    Err.Message = std::move(Msg);
    if (I) {
      Err.Message += ": ";
      Err.Message += formatIns(I);
    }
    if (Stats) {
      ++Stats->VerifyFailures;
      ++Stats->VerifyFailuresByRule[(size_t)R];
    }
    return false;
  };

  if (F.Body.empty())
    return Fail(VerifyRule::Terminator, nullptr,
                "empty trace body (no terminator)");

  // Prologue region shape (lir/opt.h, Hoist): Body[0, PrologueEnd) runs
  // once per tree entry, so it must sit strictly inside a Loop-terminated
  // body, execute no side effects (a prologue-guard failure claims "we
  // never entered"), and fail only through the entry-state Deopt exit.
  if (F.PrologueEnd) {
    if (F.PrologueEnd >= F.Body.size() || F.Body.back() == nullptr ||
        F.Body.back()->Op != LOp::Loop)
      return Fail(VerifyRule::PrologueShape, nullptr,
                  "prologue end " + std::to_string(F.PrologueEnd) +
                      " out of range, or trace does not end in Loop");
    for (uint32_t P = 0; P < F.PrologueEnd; ++P) {
      const LIns *I = F.Body[P];
      if (!I)
        break; // the main loop reports null instructions
      if (I->isStore() || I->Op == LOp::TreeCall || I->Op == LOp::Exit ||
          I->Op == LOp::JmpFrag ||
          (I->Op == LOp::Call && (!I->CI || !I->CI->Pure)))
        return Fail(VerifyRule::PrologueEffect, I,
                    "side effect inside the prologue region");
      if (I->isGuard() &&
          (!F.EntryExit || I->Exit != F.EntryExit ||
           F.EntryExit->Kind != ExitKind::Deopt))
        return Fail(
            VerifyRule::PrologueExit, I,
            "prologue guard does not exit through the entry-state Deopt exit");
    }
  }

  // Membership first: distinguishes "defined later" (an ordering bug) from
  // "not in the body at all" (a value the backward filters removed while a
  // survivor still uses it).
  std::unordered_set<const LIns *> InBody(F.Body.begin(), F.Body.end());
  uint32_t ConstFloor =
      F.Root ? (uint32_t)F.Root->EntryTypes.size() : NumGlobals;
  std::unordered_set<const LIns *> Defined;
  Defined.reserve(F.Body.size());

  // Which TAR slots hold a typed value at each point of the trace: at
  // entry the slots the entry map types (a slot above the map is one the
  // recorder pushes before reading, so it is not tracked), after a store
  // its slot, after a TreeCall the slots its expected exit types and those
  // the call site kept out of the inner tree's reach. Every
  // TAR read -- a load, an exit's write-back, the entry of a JmpFrag or
  // TreeCall target, the back edge -- must find one there. Null and
  // Undefined carry no TAR word, so only the other types read one.
  std::vector<uint8_t> TarTyped(F.EntryTypes.Types.size());
  for (uint32_t S = 0; S < F.EntryTypes.size(); ++S)
    TarTyped[S] = F.EntryTypes.typed(S);
  auto SlotTyped = [&](uint32_t S) {
    return S >= TarTyped.size() || TarTyped[S];
  };
  auto RequireTyped = [&](const TypeMap &M, const ExitDescriptor *Consts,
                          const char *What) {
    const ExitConstSlot *C = Consts ? Consts->ConstSlots.data() : nullptr;
    const ExitConstSlot *CEnd = C ? C + Consts->ConstSlots.size() : nullptr;
    for (uint32_t S = 0; S < M.size(); ++S) {
      if (C != CEnd && C->Slot == S) {
        ++C;
        continue;
      }
      TraceType T = M.Types[S];
      bool HasWord = T != TraceType::Boxed && T != TraceType::Null &&
                     T != TraceType::Undefined;
      if (HasWord && !SlotTyped(S))
        return std::string(What) + " reads TAR slot " + std::to_string(S) +
               ", which holds no typed value here";
    }
    return std::string();
  };

  for (size_t Idx = 0; Idx < F.Body.size(); ++Idx) {
    const LIns *I = F.Body[Idx];
    if (!I)
      return Fail(VerifyRule::MissingOperand, nullptr,
                  "null instruction at index " + std::to_string(Idx));

    // A trace is one straight line: exactly one terminator, and it is the
    // last instruction ("the VM simply ends the trace with an exit", §3.2).
    bool IsTerm =
        I->Op == LOp::Loop || I->Op == LOp::Exit || I->Op == LOp::JmpFrag;
    bool IsLast = Idx + 1 == F.Body.size();
    if (IsTerm && !IsLast)
      return Fail(VerifyRule::Terminator, I,
                  "terminator before the end of the trace");
    if (IsLast && !IsTerm)
      return Fail(VerifyRule::Terminator, I,
                  "trace does not end in a loop/exit/jmpfrag terminator");

    // Defined-before-use over the filtered body (SSA dominance is linear
    // order in a trace, §3.1).
    auto CheckUse = [&](const LIns *O, const char *Which) {
      if (!O)
        return true;
      if (!InBody.count(O)) {
        Fail(VerifyRule::DanglingOperand, I,
             std::string(Which) + " operand v" + std::to_string(O->Id) +
                 " is not in the trace body (removed by DCE?)");
        return false;
      }
      if (!Defined.count(O)) {
        Fail(VerifyRule::UseBeforeDef, I,
             std::string(Which) + " operand v" + std::to_string(O->Id) +
                 " is used before it is defined");
        return false;
      }
      return true;
    };
    if (!CheckUse(I->A, "first") || !CheckUse(I->B, "second"))
      return false;
    for (uint32_t K = 0; K < I->NCallArgs; ++K)
      if (!CheckUse(I->CallArgs ? I->CallArgs[K] : nullptr, "call"))
        return false;

    if (RuleHit H = checkOperandTypes(I->Op, I->A, I->B))
      return Fail(H.Rule, I, H.Msg);

    LTy WantTy =
        I->Op == LOp::Call ? (I->CI ? I->CI->Ret : LTy::Void) : resultType(I->Op);
    if (I->Ty != WantTy)
      return Fail(VerifyRule::ResultType, I,
                  std::string("result typed ") + tyn(I->Ty) + ", opcode yields " +
                      tyn(WantTy));

    if (I->Op == LOp::Call)
      if (RuleHit H = checkCall(I->CI, I->CallArgs, I->NCallArgs))
        return Fail(H.Rule, I, H.Msg);

    if (I->isLoad() || I->isStore()) {
      const LIns *Base = I->isLoad() ? I->A : I->B;
      if (RuleHit H = checkTarDisp(I->Op, Base, I->Disp, F.RequiredTarSlots))
        return Fail(H.Rule, I, H.Msg);
      if (Base && Base->Op == LOp::ParamTar) {
        uint32_t S = (uint32_t)(I->Disp / 8);
        if (I->isStore()) {
          if (S < TarTyped.size())
            TarTyped[S] = 1;
        } else if (!SlotTyped(S)) {
          return Fail(VerifyRule::UntypedTarSlot, I,
                      "load of TAR slot " + std::to_string(S) +
                          ", which holds no typed value here");
        }
      }
    }

    if (I->isGuard() || I->Op == LOp::Exit) {
      if (RuleHit H = checkExitMap(I->Op, I->Exit, NumGlobals))
        return Fail(H.Rule, I, H.Msg);
      if (RuleHit H = checkExitFrames(I->Exit))
        return Fail(H.Rule, I, H.Msg);
      if (RuleHit H = checkExitConstSlots(I->Exit, ConstFloor))
        return Fail(H.Rule, I, H.Msg);
    }

    if (I->Exit) {
      std::string Msg = RequireTyped(I->Exit->Types, I->Exit, "exit");
      if (!Msg.empty())
        return Fail(VerifyRule::UntypedTarSlot, I, Msg);
    }

    if (I->Op == LOp::TreeCall) {
      if (RuleHit H = checkTreeCallLinkage(I->Target, I->ExpectedExit))
        return Fail(H.Rule, I, H.Msg);
      if (RuleHit H = checkTreeCallTypes(I->Target, I->Exit))
        return Fail(H.Rule, I, H.Msg);
      std::string Msg =
          RequireTyped(I->Target->EntryTypes, nullptr, "inner tree");
      if (!Msg.empty())
        return Fail(VerifyRule::UntypedTarSlot, I, Msg);
      // The inner tree returns through ExpectedExit: the TAR now holds what
      // that exit types, less the constants it keeps in its descriptor,
      // plus what the call site kept out of the inner tree's reach.
      const ExitDescriptor *Ret = I->ExpectedExit;
      const TypeMap &In = I->Target->EntryTypes;
      std::vector<uint8_t> After(Ret->Types.size(), 0);
      for (uint32_t S = 0; S < Ret->Types.size(); ++S)
        After[S] = Ret->Types.typed(S) ||
                   (I->Exit && S < I->Exit->Types.size() && S < In.size() &&
                    I->Exit->Types.typed(S) && !In.typed(S) && SlotTyped(S));
      for (const ExitConstSlot &C : Ret->ConstSlots)
        After[C.Slot] = 0;
      TarTyped = std::move(After);
    }
    if (I->Op == LOp::JmpFrag) {
      if (!I->Target || I->Target->Root != I->Target)
        return Fail(VerifyRule::TransferTarget, I,
                    "jmpfrag target is missing or not a root fragment");
      std::string Msg =
          RequireTyped(I->Target->EntryTypes, nullptr, "jmpfrag target");
      if (!Msg.empty())
        return Fail(VerifyRule::UntypedTarSlot, I, Msg);
    }
    if (I->Op == LOp::Loop) {
      std::string Msg = RequireTyped(F.EntryTypes, nullptr, "back edge");
      if (!Msg.empty())
        return Fail(VerifyRule::UntypedTarSlot, I, Msg);
    }

    Defined.insert(I);
  }
  return true;
}

} // namespace tracejit

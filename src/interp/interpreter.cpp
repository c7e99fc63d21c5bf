//===- interpreter.cpp - Boxed-value bytecode interpreter ------------------===//

#include "interp/interpreter.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "interp/natives.h"
#include "trace/monitor.h"

namespace tracejit {

Interpreter::Interpreter(VMContext &C) : Ctx(C) {
  Stack.resize(StackSlots, Value::undefined());
  Frames.reserve(C.Opts.MaxFrames);
  // Root the live portion of the value stack.
  Ctx.TheHeap.addRootProvider([this](Marker &M) {
    for (uint32_t I = 0; I < Sp; ++I)
      M.markValue(Stack[I]);
  });
}

Interpreter::~Interpreter() = default;

// --- Semantic helpers ---------------------------------------------------------

double Interpreter::toNumber(const Value &V) {
  if (V.isInt())
    return (double)V.toInt();
  if (V.isDoubleCell())
    return V.toDoubleCell()->Val;
  if (V.isSpecial()) {
    switch (V.specialPayload()) {
    case SpecialFalse:
      return 0;
    case SpecialTrue:
      return 1;
    case SpecialNull:
      return 0;
    default:
      return std::nan("");
    }
  }
  if (V.isString()) {
    // Minimal ToNumber on strings: empty -> 0, decimal literal -> value.
    std::string S(V.toString()->view());
    if (S.empty())
      return 0;
    char *End = nullptr;
    double D = std::strtod(S.c_str(), &End);
    if (End && *End == 0)
      return D;
    return std::nan("");
  }
  return std::nan(""); // objects (no valueOf in the subset)
}

int32_t Interpreter::toInt32Slow(double D) {
  // ECMA-262 ToInt32: modular reduction into the int32 range.
  if (std::isnan(D) || std::isinf(D))
    return 0;
  double T = std::trunc(D);
  double M = std::fmod(T, 4294967296.0);
  if (M < 0)
    M += 4294967296.0;
  uint32_t U = (uint32_t)M;
  return (int32_t)U;
}

bool Interpreter::strictEquals(const Value &A, const Value &B) {
  if (A.isNumber() && B.isNumber())
    return A.numberValue() == B.numberValue();
  if (A.isString() && B.isString())
    return A.toString()->view() == B.toString()->view();
  return A.bits() == B.bits();
}

bool Interpreter::looseEquals(const Value &A, const Value &B) {
  if (A.isNumber() && B.isNumber())
    return A.numberValue() == B.numberValue();
  if (A.isString() && B.isString())
    return A.toString()->view() == B.toString()->view();
  if ((A.isNull() || A.isUndefined()) && (B.isNull() || B.isUndefined()))
    return true;
  if (A.isBoolean() || B.isBoolean()) {
    if (A.isObject() || B.isObject())
      return false;
    return toNumber(A) == toNumber(B);
  }
  if (A.isNumber() && B.isString())
    return A.numberValue() == toNumber(B);
  if (A.isString() && B.isNumber())
    return toNumber(A) == B.numberValue();
  return A.bits() == B.bits(); // object identity / mixed -> false
}

int Interpreter::compareValues(const Value &A, const Value &B) {
  if (A.isString() && B.isString()) {
    int C = A.toString()->view().compare(B.toString()->view());
    return C < 0 ? -1 : C > 0 ? 1 : 0;
  }
  double X = toNumber(A), Y = toNumber(B);
  if (std::isnan(X) || std::isnan(Y))
    return 2; // unordered: all relational comparisons false
  return X < Y ? -1 : X > Y ? 1 : 0;
}

Value Interpreter::concatValues(const Value &A, const Value &B) {
  char BufA[NumberBufSize], BufB[NumberBufSize];
  std::string SlowA, SlowB;
  Value R = Value::makeString(
      String::concat(Ctx.TheHeap, valueToStringView(A, BufA, SlowA),
                     valueToStringView(B, BufB, SlowB)));
  Ctx.maybeScheduleGC();
  return R;
}

void Interpreter::rtError(const char *Msg) {
  rtError(ErrorKind::Runtime, Msg);
}

void Interpreter::rtError(ErrorKind Kind, const char *Msg) {
  std::string Full = Msg;
  LineNote Where;
  if (!Frames.empty() && Frames.back().Script) {
    FunctionScript *S = Frames.back().Script;
    if (!S->Name.empty())
      Full += " (in function " + S->Name + ")";
    Where = S->lineAt(Pc);
  }
  Ctx.raiseError(Kind, Full, Where.Line, Where.Col);
  if (Kind == ErrorKind::StackOverflow)
    ++Ctx.Stats.StackOverflows;
}

// --- Property / element / call semantics ----------------------------------------

Value Interpreter::getPropValue(const Value &Base, String *Name) {
  if (Base.isString()) {
    if (Name->view() == "length")
      return Value::makeInt((int32_t)Base.toString()->length());
    rtError("unknown string property");
    return Value::undefined();
  }
  if (!Base.isObject()) {
    rtError("cannot read property of non-object");
    return Value::undefined();
  }
  return Base.toObject()->readProperty(Name);
}

/// The largest array index: the array's length, one more, must fit in a
/// uint32. Checked before any cast of the index to an integer type.
static constexpr double MaxArrayIndex = 4294967294.0;

Value Interpreter::getElemValue(const Value &Base, const Value &Index) {
  if (Base.isObject()) {
    Object *O = Base.toObject();
    if (O->isArray()) {
      double D = toNumber(Index);
      if (!(D >= 0) || D != std::floor(D)) {
        rtError("non-integer array index");
        return Value::undefined();
      }
      if (D > MaxArrayIndex)
        return Value::undefined(); // no such element
      return O->getElement((uint32_t)D);
    }
    rtError("indexing a non-array object");
    return Value::undefined();
  }
  if (Base.isString()) {
    String *S = Base.toString();
    double D = toNumber(Index);
    if (!(D >= 0 && D < S->length()) || D != std::floor(D))
      return Value::undefined();
    Value R = Value::makeString(Ctx.Atoms.unitString(S->charAt((uint32_t)D)));
    Ctx.maybeScheduleGC(); // the first use of a unit string allocates it
    return R;
  }
  rtError("indexing a non-object");
  return Value::undefined();
}

bool Interpreter::setElemValue(const Value &Base, const Value &Index,
                               const Value &V) {
  if (!Base.isObject() || !Base.toObject()->isArray()) {
    rtError("element store on a non-array");
    return false;
  }
  double D = toNumber(Index);
  if (!(D >= 0) || D != std::floor(D)) {
    rtError("non-integer array index");
    return false;
  }
  if (D > MaxArrayIndex) {
    rtError("array index out of range");
    return false;
  }
  if (!Base.toObject()->setElement(Ctx.TheHeap, (uint32_t)D, V)) {
    rtError(ErrorKind::OutOfMemory, "array storage cannot grow to that index");
    return false;
  }
  return true;
}

Value Interpreter::callNative(Object *Callee, Value ThisV, const Value *Args,
                              uint32_t N) {
  Value R = Callee->native()(*this, ThisV, Args, N);
  Ctx.maybeScheduleGC();
  return R;
}

bool Interpreter::pushFrameForCall(Object *Callee, uint32_t ArgC) {
  FunctionScript *S = Callee->script();
  // Normalize the argument count to the arity.
  while (ArgC < S->Arity) {
    Stack[Sp++] = Value::undefined();
    ++ArgC;
  }
  while (ArgC > S->Arity) {
    --Sp;
    --ArgC;
  }
  uint32_t Base = Sp - ArgC;
  if (Base + S->frameSlots() + 64 > StackSlots) {
    rtError(ErrorKind::StackOverflow, "stack overflow");
    return false;
  }
  if (Frames.size() >= Ctx.Opts.MaxFrames) {
    rtError(ErrorKind::StackOverflow, "too much recursion");
    return false;
  }
  // Initialize non-parameter locals.
  for (uint32_t I = S->Arity; I < S->NumLocals; ++I)
    Stack[Base + I] = Value::undefined();
  Frame F;
  F.Script = S;
  F.Base = Base;
  F.ReturnPc = Pc;
  Frames.push_back(F);
  Sp = Base + S->NumLocals;
  Pc = 0;
  return true;
}

Value Interpreter::callValue(Value Callee, Value ThisV, const Value *Args,
                             uint32_t N) {
  if (!Callee.isObject() || !Callee.toObject()->isFunction()) {
    rtError("calling a non-function");
    return Value::undefined();
  }
  Object *F = Callee.toObject();
  if (F->native())
    return callNative(F, ThisV, Args, N);

  // Re-entrant scripted call: set up [callee args...] and run a nested
  // dispatch until this frame returns.
  uint32_t SavedPc = Pc;
  size_t SavedFrames = Frames.size();
  Stack[Sp++] = Callee;
  for (uint32_t I = 0; I < N; ++I)
    Stack[Sp++] = Args[I];
  if (!pushFrameForCall(F, N))
    return Value::undefined();
  Value R = dispatchUntil(SavedFrames);
  Pc = SavedPc;
  return R;
}

// --- Dispatch -------------------------------------------------------------------

Value Interpreter::run(FunctionScript *Top) {
  uint32_t EntrySp = Sp;
  Frame F;
  F.Script = Top;
  F.Base = Sp;
  F.ReturnPc = 0;
  Frames.push_back(F);
  Sp += Top->NumLocals;
  Pc = 0;
  Value R = dispatchUntil(Frames.size() - 1);
  if (Ctx.Recording)
    Ctx.Monitor->flushRecorder();
  // An error unwind pops frames without restoring Sp; reset it so the dead
  // frames' values stop rooting garbage (an aborted allocation bomb must be
  // collectable, or the engine would stay over quota forever).
  if (Ctx.HasError)
    Sp = EntrySp;
  return R;
}

// --- Frames ---------------------------------------------------------------------

void Interpreter::popReturnFrame() {
  uint32_t Base = Frames.back().Base;
  Frames.pop_back();
  Sp = Base;
  if (Base > 0)
    --Sp; // drop the callee slot pushed by callValue
}

// --- Property inline caches -----------------------------------------------------

bool Interpreter::icGetProp(PropertyIC &IC, const Value &B, Value &Out) {
  // No ICState check: entries stay valid for the engine's lifetime (shapes
  // are immutable, transitions memoized), so even a Mega site keeps
  // serving its frozen entries -- it just stopped learning. Uninit has
  // N == 0 and falls through the scan.
  if (B.isObject()) {
    Object *O = B.toObject();
    Shape *S = O->shape();
    uint8_t K = (uint8_t)O->kind();
    for (uint8_t I = 0; I < IC.N; ++I) {
      const ICEntry &E = IC.Entries[I];
      if (E.ShapePtr != S || E.KindGuard != K)
        continue;
      if (E.Kind == ICEntryKind::Slot) { // hot case first
        Out = O->slotValue(E.Slot);
        return true;
      }
      if (E.Kind == ICEntryKind::Absent) {
        Out = Value::undefined();
        return true;
      }
      if (E.Kind == ICEntryKind::ArrayLength) {
        Out = Value::makeInt((int32_t)O->arrayLength());
        return true;
      }
      return false; // StringLength/Transition never match an object probe
    }
    return false;
  }
  if (B.isString()) {
    for (uint8_t I = 0; I < IC.N; ++I) {
      if (IC.Entries[I].Kind == ICEntryKind::StringLength) {
        Out = Value::makeInt((int32_t)B.toString()->length());
        return true;
      }
    }
  }
  return false;
}

void Interpreter::icFillGetProp(PropertyIC &IC, const Value &B, String *Name,
                                FunctionScript *Script, uint32_t Pc) {
  ICEntry E;
  if (B.isString()) {
    // getPropValue succeeded on a string, so the name was "length".
    E.Kind = ICEntryKind::StringLength;
  } else if (B.isObject()) {
    Object *O = B.toObject();
    E.ShapePtr = O->shape();
    E.KindGuard = (uint8_t)O->kind();
    // Mirror getPropValue's resolution order: array length shadows any
    // named slot that happens to be called "length".
    if (O->isArray() && Name->view() == "length") {
      E.Kind = ICEntryKind::ArrayLength;
    } else {
      int Slot = O->slotOf(Name);
      if (Slot >= 0) {
        E.Kind = ICEntryKind::Slot;
        E.Slot = (uint32_t)Slot;
      } else {
        E.Kind = ICEntryKind::Absent;
      }
    }
  } else {
    return; // primitive receivers error out before reaching the fill
  }
  icInsert(IC, E, Script, Pc);
}

bool Interpreter::icSetProp(PropertyIC &IC, Object *O, Value V) {
  Shape *S = O->shape();
  uint8_t K = (uint8_t)O->kind();
  for (uint8_t I = 0; I < IC.N; ++I) {
    const ICEntry &E = IC.Entries[I];
    if (E.ShapePtr != S || E.KindGuard != K)
      continue;
    if (E.Kind == ICEntryKind::Slot) {
      O->setSlotValue(E.Slot, V);
      return true;
    }
    if (E.Kind == ICEntryKind::Transition) {
      O->applyTransition(E.Target, E.Slot, V);
      return true;
    }
    return false;
  }
  return false;
}

void Interpreter::icFillSetProp(PropertyIC &IC, Object *O, Shape *OldShape,
                                String *Name, FunctionScript *Script,
                                uint32_t Pc) {
  ICEntry E;
  E.ShapePtr = OldShape;
  E.KindGuard = (uint8_t)O->kind();
  if (O->shape() == OldShape) {
    int Slot = O->slotOf(Name);
    if (Slot < 0)
      return;
    E.Kind = ICEntryKind::Slot;
    E.Slot = (uint32_t)Slot;
  } else {
    // setProperty transitioned. ShapeTree::transition is memoized, so the
    // (From, Name) -> (To, Slot) triple is stable and safe to replay.
    E.Kind = ICEntryKind::Transition;
    E.Target = O->shape();
    E.Slot = OldShape->slotCount();
  }
  icInsert(IC, E, Script, Pc);
}

void Interpreter::icInsert(PropertyIC &IC, const ICEntry &E,
                           FunctionScript *Script, uint32_t Pc) {
  if (IC.State == ICState::Mega)
    return;
  for (uint8_t I = 0; I < IC.N; ++I) {
    const ICEntry &X = IC.Entries[I];
    if (X.ShapePtr == E.ShapePtr && X.KindGuard == E.KindGuard &&
        X.Kind == E.Kind)
      return; // already cached
  }
  ICState NewState;
  if (IC.N < PropertyIC::MaxEntries) {
    IC.Entries[IC.N++] = E;
    NewState = IC.N == 1 ? ICState::Mono : ICState::Poly;
  } else {
    NewState = ICState::Mega;
    ++Ctx.Stats.IcMegaSites; // rare, counted unconditionally like GCs
  }
  if (NewState == IC.State)
    return;
  IC.State = NewState;
  // Polymorphism observed at this site is speculation feedback, exactly
  // like an oracle demotion (§5): the recorder consults it to choose
  // multi-shape guards (poly) or to abort recording (mega).
  if (Ctx.Monitor && NewState != ICState::Mono)
    Ctx.Monitor->notePropSite(Script->Id, Pc, NewState == ICState::Mega);
  if (Ctx.EventListener) {
    JitEvent Ev;
    Ev.Kind = JitEventKind::IcTransition;
    Ev.ScriptId = Script->Id;
    Ev.Pc = Pc;
    Ev.Arg0 = (uint64_t)NewState;
    Ev.Arg1 = IC.N;
    Ctx.emitEvent(Ev);
  }
}

// --- Dispatch harnesses ---------------------------------------------------------

/// X-macro over every opcode, in Op enum order. Drives the threaded-dispatch
/// label table; must stay in sync with enum Op (static_asserted below).
#define TJ_FOR_EACH_OP(X)                                                      \
  X(Nop) X(LoopHeader) X(Nop3) X(PushConst) X(PushUndefined) X(Pop)            \
  X(PopResult) X(Dup) X(Dup2) X(GetLocal) X(SetLocal) X(GetGlobal)             \
  X(SetGlobal) X(GetProp) X(SetProp) X(InitProp) X(GetElem) X(SetElem)         \
  X(Add) X(Sub) X(Mul) X(Div) X(Mod) X(Neg) X(BitAnd) X(BitOr) X(BitXor)       \
  X(Shl) X(Shr) X(Ushr) X(BitNot) X(Lt) X(Le) X(Gt) X(Ge) X(Eq) X(Ne)          \
  X(StrictEq) X(StrictNe) X(LogicalNot) X(Jump) X(JumpIfFalse) X(JumpIfTrue)   \
  X(Call) X(CallProp) X(Return) X(ReturnUndefined) X(NewArray) X(NewObject)

#define TJ_COUNT(name) +1
static_assert(0 TJ_FOR_EACH_OP(TJ_COUNT) == (int)Op::NumOps,
              "TJ_FOR_EACH_OP out of sync with enum Op");
#undef TJ_COUNT

/// Little-endian bytecode operands at \p P (FunctionScript::u16At/u32At
/// over a raw code pointer).
static inline uint16_t readU16(const uint8_t *P) {
  return (uint16_t)(P[0] | (P[1] << 8));
}
static inline uint32_t readU32(const uint8_t *P) {
  return (uint32_t)P[0] | ((uint32_t)P[1] << 8) | ((uint32_t)P[2] << 16) |
         ((uint32_t)P[3] << 24);
}

/// ToBoolean with the Boolean case (every comparison result) inline.
static inline bool isTruthy(const Value &V) {
  return V.isSpecial() ? V.specialPayload() == SpecialTrue : V.truthy();
}

/// Op bodies that can change the frame chain refresh the cached frame.
#define TJ_RELOAD_FRAME()                                                      \
  do {                                                                         \
    F = &Frames.back();                                                        \
    Script = F->Script;                                                        \
    Code = Script->Code.data();                                                \
  } while (0)

// Threaded dispatch: pc and sp live in locals (Pc/Sp are their spill copy),
// and every op ends in its own copy of the dispatch tail.
Value Interpreter::dispatchUntil(size_t StopDepth) {
  VMContext &C = Ctx;
  const bool Stats = C.Opts.CollectStats;
  Value *const Stk = Stack.data();
  uint32_t pc = Pc;
  uint32_t sp = Sp;
  Frame *F = &Frames.back();
  FunctionScript *Script = F->Script;
  const uint8_t *Code = Script->Code.data();
  Op O;

#define TJ_SPILL()                                                             \
  do {                                                                         \
    Pc = pc;                                                                   \
    Sp = sp;                                                                   \
  } while (0)
#define TJ_RELOAD()                                                            \
  do {                                                                         \
    pc = Pc;                                                                   \
    sp = Sp;                                                                   \
  } while (0)

  // One label per opcode, indexed by the opcode byte.
  static const void *const Table[] = {
#define TJ_LABEL(name) &&L_##name,
      TJ_FOR_EACH_OP(TJ_LABEL)
#undef TJ_LABEL
  };

  // The dispatch tail, copied into every op so each op has its own
  // indirect jump (and its own branch-predictor history). The recording
  // hook and the bytecode counter sit behind one flag test each; the cold
  // work lives out of line at TjHooks.
#define TJ_DISPATCH()                                                          \
  do {                                                                         \
    if (C.HasError)                                                            \
      goto TjUnwind;                                                           \
    O = (Op)Code[pc];                                                          \
    if (C.Recording)                                                           \
      goto TjHooks;                                                            \
    if (Stats)                                                                 \
      ++C.Stats.BytecodesInterpreted;                                          \
    if ((uint8_t)O >= (uint8_t)Op::NumOps)                                     \
      goto L_Corrupt;                                                          \
    goto *Table[(uint8_t)O];                                                   \
  } while (0)

  TJ_DISPATCH();

TjHooks:
  if (O != Op::LoopHeader) {
    TJ_SPILL(); // the recorder reads the live pc and stack
    C.Monitor->recordOp(pc);
    if (Stats)
      ++C.Stats.BytecodesRecorded;
  } else if (Stats) {
    ++C.Stats.BytecodesInterpreted;
  }
  if ((uint8_t)O >= (uint8_t)Op::NumOps)
    goto L_Corrupt;
  goto *Table[(uint8_t)O];

#define TJ_OP(name) L_##name: {
#define TJ_NEXT() } TJ_DISPATCH();
#include "interp/dispatch.inc"
#undef TJ_OP
#undef TJ_NEXT

L_Corrupt:
  TJ_SPILL();
  rtError("corrupt bytecode");
  TJ_DISPATCH();

TjUnwind:
  TJ_SPILL();
  while (Frames.size() > StopDepth)
    Frames.pop_back();
  return Value::undefined();
#undef TJ_DISPATCH
#undef TJ_SPILL
#undef TJ_RELOAD
}

#undef TJ_RELOAD_FRAME

} // namespace tracejit

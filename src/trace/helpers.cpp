//===- helpers.cpp - Runtime helpers callable from traces ----------------------===//

#include "trace/helpers.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "interp/interpreter.h"
#include "interp/vmcontext.h"
#include "trace/monitor.h"
#include "vm/object.h"
#include "vm/string.h"

namespace tracejit {

// --- Helper bodies ----------------------------------------------------------------

extern "C" {

int32_t tj_ToInt32D(double D) { return Interpreter::toInt32(D); }

int32_t tj_ModI(int32_t A, int32_t B) { return A % B; }

double tj_ModD(double A, double B) { return std::fmod(A, B); }

uint64_t tj_BoxDouble(VMContext *Ctx, double D) {
  Value V = Ctx->TheHeap.boxDouble(D);
  Ctx->maybeScheduleGC();
  return V.bits();
}

int32_t tj_ArraySetV(VMContext *Ctx, Object *A, int32_t Idx, uint64_t Bits) {
  if (Idx < 0)
    return 0;
  A->setElement(Ctx->TheHeap, (uint32_t)Idx, Value::fromBits(Bits));
  return 1;
}

int32_t tj_ArraySetD(VMContext *Ctx, Object *A, int32_t Idx, double D) {
  if (Idx < 0)
    return 0;
  Value V = Ctx->TheHeap.boxDouble(D);
  Ctx->maybeScheduleGC();
  A->setElement(Ctx->TheHeap, (uint32_t)Idx, V);
  return 1;
}

uint64_t tj_ConcatSS(VMContext *Ctx, String *A, String *B) {
  std::string S;
  S.reserve(A->length() + B->length());
  S.append(A->view());
  S.append(B->view());
  String *R = String::create(Ctx->TheHeap, S);
  Ctx->maybeScheduleGC();
  return (uint64_t)(uintptr_t)R;
}

int32_t tj_EqSS(String *A, String *B) { return A->view() == B->view(); }

uint64_t tj_CharAt(VMContext *Ctx, String *S, int32_t I) {
  if (I < 0 || (uint32_t)I >= S->length()) {
    String *R = String::create(Ctx->TheHeap, "");
    Ctx->maybeScheduleGC();
    return (uint64_t)(uintptr_t)R;
  }
  String *R =
      String::create(Ctx->TheHeap, std::string_view(S->data() + I, 1));
  Ctx->maybeScheduleGC();
  return (uint64_t)(uintptr_t)R;
}

uint64_t tj_FromCharCode1(VMContext *Ctx, int32_t C) {
  char Ch = (char)(C & 0xff);
  String *R = String::create(Ctx->TheHeap, std::string_view(&Ch, 1));
  Ctx->maybeScheduleGC();
  return (uint64_t)(uintptr_t)R;
}

uint64_t tj_NewArray(VMContext *Ctx, int32_t Len) {
  Object *A = Object::createArray(Ctx->TheHeap, Ctx->Shapes,
                                  Len < 0 ? 0 : (uint32_t)Len);
  Ctx->maybeScheduleGC();
  return (uint64_t)(uintptr_t)A;
}

uint64_t tj_NewObject(VMContext *Ctx) {
  Object *O = Object::create(Ctx->TheHeap, Ctx->Shapes);
  Ctx->maybeScheduleGC();
  return (uint64_t)(uintptr_t)O;
}

void tj_InitProp(VMContext *Ctx, Object *O, String *Name, uint64_t Bits) {
  O->setProperty(Ctx->Shapes, Name, Value::fromBits(Bits));
}

uint64_t tj_GetPropGeneric(Object *O, String *Name) {
  return O->readProperty(Name).bits();
}

int32_t tj_ArrayPushV(VMContext *Ctx, Object *A, uint64_t Bits) {
  A->setElement(Ctx->TheHeap, A->arrayLength(), Value::fromBits(Bits));
  return (int32_t)A->arrayLength();
}

int32_t tj_TruthyD(double D) { return D != 0 && !std::isnan(D); }

} // extern "C"

// --- Method-tier helper bodies ------------------------------------------------------
//
// MethodOps is a friend of the Interpreter so the method tier can reuse the
// exact op semantics (getPropValue, callPropValue, nested dispatch) instead
// of reimplementing them. Protocol: set the interpreter pc first (error
// positions come from Frames.back().Script->lineAt(Pc)), run the
// interpreter semantics, and return MethodErrorSentinel when an error is
// pending -- the method code guards the sentinel and deopts at this pc,
// where the dispatch harness unwinds without re-executing the op.

struct MethodOps {
  static String *atom(Interpreter &I, uint32_t Idx) {
    return I.Frames.back().Script->Atoms[Idx];
  }

  static uint64_t finish(Interpreter &I, Value R) {
    return I.Ctx.HasError ? MethodErrorSentinel : R.bits();
  }

  static uint64_t binop(Interpreter &I, uint32_t Pc, Op O, uint64_t Aw,
                        uint64_t Bw) {
    I.Pc = Pc;
    VMContext &C = I.Ctx;
    Value A = Value::fromBits(Aw), B = Value::fromBits(Bw);
    Value R;
    switch (O) {
    case Op::Add:
      if (A.isInt() && B.isInt()) {
        int64_t S = (int64_t)A.toInt() + B.toInt();
        R = Value::fitsInt31(S) ? Value::makeInt((int32_t)S)
                                : C.TheHeap.boxDouble((double)S);
      } else if (A.isString() || B.isString()) {
        R = I.concatValues(A, B);
      } else {
        R = C.TheHeap.boxNumber(Interpreter::toNumber(A) +
                                Interpreter::toNumber(B));
      }
      break;
    case Op::Sub:
      if (A.isInt() && B.isInt()) {
        int64_t S = (int64_t)A.toInt() - B.toInt();
        R = Value::fitsInt31(S) ? Value::makeInt((int32_t)S)
                                : C.TheHeap.boxDouble((double)S);
      } else {
        R = C.TheHeap.boxNumber(Interpreter::toNumber(A) -
                                Interpreter::toNumber(B));
      }
      break;
    case Op::Mul:
      if (A.isInt() && B.isInt()) {
        int64_t S = (int64_t)A.toInt() * B.toInt();
        R = Value::fitsInt31(S) ? Value::makeInt((int32_t)S)
                                : C.TheHeap.boxDouble((double)S);
      } else {
        R = C.TheHeap.boxNumber(Interpreter::toNumber(A) *
                                Interpreter::toNumber(B));
      }
      break;
    case Op::Div:
      R = C.TheHeap.boxNumber(Interpreter::toNumber(A) /
                              Interpreter::toNumber(B));
      break;
    case Op::Mod:
      if (A.isInt() && B.isInt() && A.toInt() >= 0 && B.toInt() > 0)
        R = Value::makeInt(A.toInt() % B.toInt());
      else
        R = C.TheHeap.boxNumber(
            std::fmod(Interpreter::toNumber(A), Interpreter::toNumber(B)));
      break;
    case Op::BitAnd:
    case Op::BitOr:
    case Op::BitXor:
    case Op::Shl:
    case Op::Shr: {
      int32_t X = A.isInt() ? A.toInt() : Interpreter::valueToInt32(A);
      int32_t Y = B.isInt() ? B.toInt() : Interpreter::valueToInt32(B);
      int32_t V;
      switch (O) {
      case Op::BitAnd:
        V = X & Y;
        break;
      case Op::BitOr:
        V = X | Y;
        break;
      case Op::BitXor:
        V = X ^ Y;
        break;
      case Op::Shl:
        V = (int32_t)((uint32_t)X << (Y & 31));
        break;
      default:
        V = X >> (Y & 31);
        break;
      }
      R = Value::makeInt(V);
      break;
    }
    case Op::Ushr: {
      uint32_t X = (uint32_t)(A.isInt() ? A.toInt()
                                        : Interpreter::valueToInt32(A));
      int32_t Y = B.isInt() ? B.toInt() : Interpreter::valueToInt32(B);
      uint32_t V = X >> (Y & 31);
      R = V <= (uint32_t)INT32_MAX ? Value::makeInt((int32_t)V)
                                   : C.TheHeap.boxDouble((double)V);
      break;
    }
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge: {
      bool V;
      if (A.isInt() && B.isInt()) {
        int32_t X = A.toInt(), Y = B.toInt();
        V = O == Op::Lt   ? X < Y
            : O == Op::Le ? X <= Y
            : O == Op::Gt ? X > Y
                          : X >= Y;
      } else {
        int Cv = Interpreter::compareValues(A, B);
        if (Cv == 2)
          V = false;
        else
          V = O == Op::Lt   ? Cv < 0
              : O == Op::Le ? Cv <= 0
              : O == Op::Gt ? Cv > 0
                            : Cv >= 0;
      }
      R = Value::makeBoolean(V);
      break;
    }
    case Op::Eq:
      R = Value::makeBoolean(Interpreter::looseEquals(A, B));
      break;
    case Op::Ne:
      R = Value::makeBoolean(!Interpreter::looseEquals(A, B));
      break;
    case Op::StrictEq:
      R = Value::makeBoolean(Interpreter::strictEquals(A, B));
      break;
    case Op::StrictNe:
      R = Value::makeBoolean(!Interpreter::strictEquals(A, B));
      break;
    default:
      I.rtError("unsupported method-tier binop");
      break;
    }
    return finish(I, R);
  }

  static uint64_t unop(Interpreter &I, uint32_t Pc, Op O, uint64_t Vw) {
    I.Pc = Pc;
    Value A = Value::fromBits(Vw);
    Value R;
    switch (O) {
    case Op::Neg:
      if (A.isInt() && A.toInt() != 0 && A.toInt() != INT32_MIN)
        R = Value::makeInt(-A.toInt());
      else
        R = I.Ctx.TheHeap.boxDouble(-Interpreter::toNumber(A));
      break;
    case Op::BitNot:
      R = Value::makeInt(~(A.isInt() ? A.toInt()
                                     : Interpreter::valueToInt32(A)));
      break;
    case Op::LogicalNot:
      R = Value::makeBoolean(!A.truthy());
      break;
    default:
      I.rtError("unsupported method-tier unop");
      break;
    }
    return finish(I, R);
  }

  static uint64_t getProp(Interpreter &I, uint32_t Pc, uint32_t AtomIdx,
                          uint64_t Base) {
    I.Pc = Pc;
    return finish(I, I.getPropValue(Value::fromBits(Base), atom(I, AtomIdx)));
  }

  static uint64_t setProp(Interpreter &I, uint32_t Pc, uint32_t AtomIdx,
                          uint64_t Base, uint64_t Vw) {
    I.Pc = Pc;
    Value B = Value::fromBits(Base);
    if (!B.isObject()) {
      I.rtError("property store on a non-object");
      return MethodErrorSentinel;
    }
    B.toObject()->setProperty(I.Ctx.Shapes, atom(I, AtomIdx),
                              Value::fromBits(Vw));
    return finish(I, Value::undefined());
  }

  static uint64_t initProp(Interpreter &I, uint32_t Pc, uint32_t AtomIdx,
                           uint64_t Base, uint64_t Vw) {
    I.Pc = Pc;
    Value::fromBits(Base).toObject()->setProperty(
        I.Ctx.Shapes, atom(I, AtomIdx), Value::fromBits(Vw));
    return finish(I, Value::undefined());
  }

  static uint64_t getElem(Interpreter &I, uint32_t Pc, uint64_t Base,
                          uint64_t Idx) {
    I.Pc = Pc;
    return finish(
        I, I.getElemValue(Value::fromBits(Base), Value::fromBits(Idx)));
  }

  static uint64_t setElem(Interpreter &I, uint32_t Pc, uint64_t Base,
                          uint64_t Idx, uint64_t Vw) {
    I.Pc = Pc;
    I.setElemValue(Value::fromBits(Base), Value::fromBits(Idx),
                   Value::fromBits(Vw));
    return finish(I, Value::undefined());
  }

  static uint64_t newArray(Interpreter &I, uint32_t Pc, uint32_t N,
                           const uint64_t *Elems) {
    I.Pc = Pc;
    VMContext &C = I.Ctx;
    Object *A = Object::createArray(C.TheHeap, C.Shapes, N);
    for (uint32_t K = 0; K < N; ++K)
      A->setElement(C.TheHeap, K, Value::fromBits(Elems[K]));
    C.maybeScheduleGC();
    return finish(I, Value::makeObject(A));
  }

  static uint64_t newObject(Interpreter &I, uint32_t Pc) {
    I.Pc = Pc;
    VMContext &C = I.Ctx;
    Object *O = Object::create(C.TheHeap, C.Shapes);
    C.maybeScheduleGC();
    return finish(I, Value::makeObject(O));
  }

  /// Mirror the TAR back into the live interpreter state before a nested
  /// call: globals into the global table, the shadowed stack region into
  /// the value stack, and Sp above it. Nested execution (and any GC it
  /// runs -- the stack and globals are GC roots, the TAR is not) then sees
  /// exactly the method's current state.
  static void mirrorTarToInterp(Interpreter &I, uint64_t *Tar, uint32_t Sp) {
    VMContext &C = I.Ctx;
    uint32_t NG = C.Globals.size();
    for (uint32_t G = 0; G < NG; ++G)
      C.Globals.Values[G] = Value::fromBits(Tar[G]);
    for (uint32_t J = 0; J < Sp; ++J)
      I.Stack[J] = Value::fromBits(Tar[NG + J]);
    I.Sp = Sp;
  }

  /// After a nested call: flush any recording the callee started (it
  /// cannot continue once method code resumes), propagate global stores
  /// back into the TAR, and apply the sentinel protocol to the result.
  static uint64_t finishNestedCall(Interpreter &I, uint64_t *Tar, Value R) {
    VMContext &C = I.Ctx;
    if (C.Monitor)
      C.Monitor->flushRecorder();
    if (C.HasError)
      return MethodErrorSentinel;
    uint32_t NG = C.Globals.size();
    for (uint32_t G = 0; G < NG; ++G)
      Tar[G] = C.Globals.Values[G].bits();
    return R.bits();
  }

  static uint64_t call(Interpreter &I, uint32_t Pc, uint32_t ArgC,
                       uint64_t *Tar, uint32_t Sp) {
    I.Pc = Pc;
    mirrorTarToInterp(I, Tar, Sp);
    Value Callee = I.Stack[Sp - ArgC - 1];
    if (!Callee.isObject() || !Callee.toObject()->isFunction()) {
      I.rtError("calling a non-function");
      return MethodErrorSentinel;
    }
    Object *FnObj = Callee.toObject();
    Value R;
    if (FnObj->native()) {
      R = I.callNative(FnObj, Value::undefined(), &I.Stack[Sp - ArgC], ArgC);
    } else {
      size_t SavedFrames = I.Frames.size();
      if (!I.pushFrameForCall(FnObj, ArgC))
        return MethodErrorSentinel;
      R = I.dispatchUntil(SavedFrames);
      I.Pc = Pc;
    }
    return finishNestedCall(I, Tar, R);
  }

  static uint64_t callProp(Interpreter &I, uint32_t Pc, uint32_t AtomIdx,
                           uint32_t ArgC, uint64_t *Tar, uint32_t Sp) {
    I.Pc = Pc;
    mirrorTarToInterp(I, Tar, Sp);
    String *Name = atom(I, AtomIdx);
    Value Recv = I.Stack[Sp - ArgC - 1];
    Value R;
    bool Done = false;
    if (Recv.isObject() && !Recv.toObject()->isArray()) {
      Value M = Recv.toObject()->getProperty(Name);
      if (M.isObject() && M.toObject()->isFunction()) {
        Object *FnObj = M.toObject();
        if (FnObj->native()) {
          R = I.callNative(FnObj, Recv, &I.Stack[Sp - ArgC], ArgC);
        } else {
          I.Stack[Sp - ArgC - 1] = M;
          size_t SavedFrames = I.Frames.size();
          if (!I.pushFrameForCall(FnObj, ArgC))
            return MethodErrorSentinel;
          R = I.dispatchUntil(SavedFrames);
          I.Pc = Pc;
        }
        Done = true;
      }
    }
    if (!Done)
      R = I.callPropValue(Recv, Name, &I.Stack[Sp - ArgC], ArgC);
    return finishNestedCall(I, Tar, R);
  }
};

extern "C" {

uint64_t tj_MethodBinop(Interpreter *I, uint32_t Pc, int32_t O, uint64_t A,
                        uint64_t B) {
  return MethodOps::binop(*I, Pc, (Op)O, A, B);
}

uint64_t tj_MethodUnop(Interpreter *I, uint32_t Pc, int32_t O, uint64_t V) {
  return MethodOps::unop(*I, Pc, (Op)O, V);
}

int32_t tj_MethodTruthy(uint64_t V) { return Value::fromBits(V).truthy(); }

uint64_t tj_MethodGetProp(Interpreter *I, uint32_t Pc, int32_t AtomIdx,
                          uint64_t Base) {
  return MethodOps::getProp(*I, Pc, (uint32_t)AtomIdx, Base);
}

uint64_t tj_MethodSetProp(Interpreter *I, uint32_t Pc, int32_t AtomIdx,
                          uint64_t Base, uint64_t V) {
  return MethodOps::setProp(*I, Pc, (uint32_t)AtomIdx, Base, V);
}

uint64_t tj_MethodInitProp(Interpreter *I, uint32_t Pc, int32_t AtomIdx,
                           uint64_t Base, uint64_t V) {
  return MethodOps::initProp(*I, Pc, (uint32_t)AtomIdx, Base, V);
}

uint64_t tj_MethodGetElem(Interpreter *I, uint32_t Pc, uint64_t Base,
                          uint64_t Idx) {
  return MethodOps::getElem(*I, Pc, Base, Idx);
}

uint64_t tj_MethodSetElem(Interpreter *I, uint32_t Pc, uint64_t Base,
                          uint64_t Idx, uint64_t V) {
  return MethodOps::setElem(*I, Pc, Base, Idx, V);
}

uint64_t tj_MethodNewArray(Interpreter *I, uint32_t Pc, int32_t N,
                           uint64_t *Elems) {
  return MethodOps::newArray(*I, Pc, (uint32_t)N, Elems);
}

uint64_t tj_MethodNewObject(Interpreter *I, uint32_t Pc) {
  return MethodOps::newObject(*I, Pc);
}

uint64_t tj_MethodCall(Interpreter *I, uint32_t Pc, int32_t ArgC,
                       uint64_t *Tar, int32_t Sp) {
  return MethodOps::call(*I, Pc, (uint32_t)ArgC, Tar, (uint32_t)Sp);
}

uint64_t tj_MethodCallProp(Interpreter *I, uint32_t Pc, int32_t AtomIdx,
                           int32_t ArgC, uint64_t *Tar, int32_t Sp) {
  return MethodOps::callProp(*I, Pc, (uint32_t)AtomIdx, (uint32_t)ArgC, Tar,
                             (uint32_t)Sp);
}

} // extern "C"

// --- CallInfo construction ----------------------------------------------------------

namespace {

template <typename T> constexpr LTy ltyOf() {
  if constexpr (std::is_void_v<T>)
    return LTy::Void;
  else if constexpr (std::is_same_v<T, double>)
    return LTy::D;
  else if constexpr (std::is_same_v<T, int32_t> || std::is_same_v<T, uint32_t>)
    return LTy::I32;
  else
    return LTy::Q;
}

template <typename T> T fromWord(uint64_t W) {
  if constexpr (std::is_same_v<T, double>) {
    double D;
    std::memcpy(&D, &W, 8);
    return D;
  } else if constexpr (std::is_pointer_v<T>) {
    return (T)(uintptr_t)W;
  } else {
    return (T)W;
  }
}

template <typename T> uint64_t toWord(T V) {
  if constexpr (std::is_same_v<T, double>) {
    uint64_t W;
    std::memcpy(&W, &V, 8);
    return W;
  } else if constexpr (std::is_pointer_v<T>) {
    return (uint64_t)(uintptr_t)V;
  } else if constexpr (sizeof(T) == 8) {
    return (uint64_t)V;
  } else {
    return (uint64_t)(uint32_t)V; // int32 results zero-extended
  }
}

template <typename R, typename... As>
uint64_t sigShim(void *Addr, const uint64_t *W) {
  auto *Fn = (R (*)(As...))Addr;
  return [&]<size_t... Is>(std::index_sequence<Is...>) -> uint64_t {
    if constexpr (std::is_void_v<R>) {
      Fn(fromWord<As>(W[Is])...);
      return 0;
    } else {
      return toWord<R>(Fn(fromWord<As>(W[Is])...));
    }
  }(std::index_sequence_for<As...>{});
}

template <typename R, typename... As>
CallInfo makeCI(R (*Fn)(As...), const char *Name, bool Pure) {
  CallInfo CI;
  CI.Addr = (void *)Fn;
  CI.Name = Name;
  CI.Ret = ltyOf<R>();
  CI.NArgs = (uint8_t)sizeof...(As);
  LTy Tys[] = {ltyOf<As>()..., LTy::Void};
  for (uint32_t K = 0; K < sizeof...(As); ++K)
    CI.Args[K] = Tys[K];
  CI.Pure = Pure;
  CI.Shim = sigShim<R, As...>;
  return CI;
}

} // namespace

const HelperCalls &helperCalls() {
  static HelperCalls H = [] {
    HelperCalls C;
    C.ToInt32D = makeCI(tj_ToInt32D, "js_ToInt32", /*Pure=*/true);
    C.ModI = makeCI(tj_ModI, "js_imod", /*Pure=*/true);
    C.ModD = makeCI(tj_ModD, "js_dmod", /*Pure=*/true);
    C.BoxDouble = makeCI(tj_BoxDouble, "js_BoxDouble", /*Pure=*/false);
    C.ArraySetV = makeCI(tj_ArraySetV, "js_Array_set", /*Pure=*/false);
    C.ArraySetD = makeCI(tj_ArraySetD, "js_Array_setd", /*Pure=*/false);
    C.ConcatSS = makeCI(tj_ConcatSS, "js_ConcatStrings", /*Pure=*/false);
    C.EqSS = makeCI(tj_EqSS, "js_EqualStrings", /*Pure=*/true);
    C.CharAt = makeCI(tj_CharAt, "js_String_charAt", /*Pure=*/false);
    C.FromCharCode1 =
        makeCI(tj_FromCharCode1, "js_String_fromCharCode", /*Pure=*/false);
    C.NewArray = makeCI(tj_NewArray, "js_NewArray", /*Pure=*/false);
    C.NewObject = makeCI(tj_NewObject, "js_NewObject", /*Pure=*/false);
    C.InitProp = makeCI(tj_InitProp, "js_InitProp", /*Pure=*/false);
    // Not pure: the result depends on the object's current contents.
    C.GetPropGeneric =
        makeCI(tj_GetPropGeneric, "js_GetPropGeneric", /*Pure=*/false);
    C.ArrayPushV = makeCI(tj_ArrayPushV, "js_Array_push", /*Pure=*/false);
    C.TruthyD = makeCI(tj_TruthyD, "js_TruthyD", /*Pure=*/true);
    C.MethodBinop = makeCI(tj_MethodBinop, "js_MethodBinop", /*Pure=*/false);
    C.MethodUnop = makeCI(tj_MethodUnop, "js_MethodUnop", /*Pure=*/false);
    C.MethodTruthy = makeCI(tj_MethodTruthy, "js_MethodTruthy", /*Pure=*/true);
    C.MethodGetProp =
        makeCI(tj_MethodGetProp, "js_MethodGetProp", /*Pure=*/false);
    C.MethodSetProp =
        makeCI(tj_MethodSetProp, "js_MethodSetProp", /*Pure=*/false);
    C.MethodInitProp =
        makeCI(tj_MethodInitProp, "js_MethodInitProp", /*Pure=*/false);
    C.MethodGetElem =
        makeCI(tj_MethodGetElem, "js_MethodGetElem", /*Pure=*/false);
    C.MethodSetElem =
        makeCI(tj_MethodSetElem, "js_MethodSetElem", /*Pure=*/false);
    C.MethodNewArray =
        makeCI(tj_MethodNewArray, "js_MethodNewArray", /*Pure=*/false);
    C.MethodNewObject =
        makeCI(tj_MethodNewObject, "js_MethodNewObject", /*Pure=*/false);
    C.MethodCall = makeCI(tj_MethodCall, "js_MethodCall", /*Pure=*/false);
    C.MethodCallProp =
        makeCI(tj_MethodCallProp, "js_MethodCallProp", /*Pure=*/false);
    C.MathD_D = makeCI((double (*)(double))nullptr, "math1", /*Pure=*/true);
    C.MathD_DD =
        makeCI((double (*)(double, double))nullptr, "math2", /*Pure=*/true);
    C.MathD_CTX =
        makeCI((double (*)(VMContext *))nullptr, "mathctx", /*Pure=*/false);
    return C;
  }();
  return H;
}

CallInfo makeMathCallInfo(const CallInfo &Proto, void *Addr,
                          const char *Name) {
  CallInfo CI = Proto;
  CI.Addr = Addr;
  CI.Name = Name;
  return CI;
}

} // namespace tracejit

//===- helpers.cpp - Runtime helpers callable from traces ----------------------===//

#include "trace/helpers.h"

#include <cmath>
#include <cstring>

#include "interp/interpreter.h"
#include "interp/vmcontext.h"
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

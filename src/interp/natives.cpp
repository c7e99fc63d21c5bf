//===- natives.cpp - Built-in globals, string/array methods, typed FFI -----===//

#include "interp/natives.h"

#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "interp/interpreter.h"
#include "interp/vmcontext.h"

namespace tracejit {

// --- Raw (unboxed) math entry points for the typed FFI -----------------------
// Plain functions with C-compatible signatures: the trace compiler calls
// these directly on unboxed doubles.

extern "C" {
double tj_math_abs(double X) { return std::fabs(X); }
double tj_math_floor(double X) { return std::floor(X); }
double tj_math_ceil(double X) { return std::ceil(X); }
double tj_math_sqrt(double X) { return std::sqrt(X); }
double tj_math_sin(double X) { return std::sin(X); }
double tj_math_cos(double X) { return std::cos(X); }
double tj_math_tan(double X) { return std::tan(X); }
double tj_math_exp(double X) { return std::exp(X); }
double tj_math_log(double X) { return std::log(X); }
// Round half up without the floor(X + 0.5) rounding error (it gives 1 for
// 0.49999999999999994), keeping the sign of a zero result (-0 for X in
// [-0.5, -0]).
double tj_math_round(double X) {
  double R = std::floor(X);
  if (X - R >= 0.5)
    R += 1;
  return std::copysign(R, X);
}
double tj_math_pow(double X, double Y) { return std::pow(X, Y); }
double tj_math_atan2(double Y, double X) { return std::atan2(Y, X); }
double tj_math_min(double X, double Y) {
  if (std::isnan(X) || std::isnan(Y))
    return std::nan("");
  return X < Y ? X : Y;
}
double tj_math_max(double X, double Y) {
  if (std::isnan(X) || std::isnan(Y))
    return std::nan("");
  return X > Y ? X : Y;
}
double tj_math_random(VMContext *Ctx) { return nextRandom(Ctx); }
}

double nextRandom(VMContext *Ctx) {
  uint64_t X = Ctx->RandomState;
  X ^= X >> 12;
  X ^= X << 25;
  X ^= X >> 27;
  Ctx->RandomState = X;
  return (double)((X * 0x2545F4914F6CDD1DULL) >> 11) /
         (double)(1ULL << 53);
}

// --- Boxed natives ---------------------------------------------------------------

static double argNum(const Value *Args, uint32_t N, uint32_t I) {
  return I < N ? Interpreter::toNumber(Args[I]) : std::nan("");
}

static Value nativePrint(Interpreter &I, Value, const Value *Args,
                         uint32_t N) {
  std::string Line;
  for (uint32_t K = 0; K < N; ++K) {
    if (K)
      Line += " ";
    Line += valueToString(Args[K]);
  }
  Line += "\n";
  VMContext &C = I.context();
  if (C.PrintHook)
    C.PrintHook(Line);
  else
    fputs(Line.c_str(), stdout);
  return Value::undefined();
}

static Value nativeArrayCtor(Interpreter &I, Value, const Value *Args,
                             uint32_t N) {
  VMContext &C = I.context();
  if (N == 1 && Args[0].isNumber()) {
    double D = Args[0].numberValue();
    if (D >= 0 && D == std::floor(D) && D < 1e8)
      return Value::makeObject(
          Object::createArray(C.TheHeap, C.Shapes, (uint32_t)D));
  }
  Object *A = Object::createArray(C.TheHeap, C.Shapes, N);
  for (uint32_t K = 0; K < N; ++K)
    A->setElement(C.TheHeap, K, Args[K]);
  return Value::makeObject(A);
}

static Value nativeFromCharCode(Interpreter &I, Value, const Value *Args,
                                uint32_t N) {
  if (N == 1)
    return Value::makeString(I.context().Atoms.unitString(
        (unsigned char)Interpreter::valueToInt32(Args[0])));
  std::string S;
  for (uint32_t K = 0; K < N; ++K)
    S.push_back((char)(Interpreter::valueToInt32(Args[K]) & 0xff));
  return Value::makeString(String::create(I.context().TheHeap, S));
}

static Value nativeGcNow(Interpreter &I, Value, const Value *, uint32_t) {
  VMContext &C = I.context();
  {
    ActivityScope T(C.Stats, Activity::Gc, C.Opts.CollectStats);
    C.TheHeap.collect();
  }
  ++C.Stats.GCs;
  return Value::undefined();
}

#define BOXED_MATH_1(NAME, RAW)                                                \
  static Value NAME(Interpreter &I, Value, const Value *Args, uint32_t N) {   \
    return I.context().TheHeap.boxNumber(RAW(argNum(Args, N, 0)));            \
  }
#define BOXED_MATH_2(NAME, RAW)                                                \
  static Value NAME(Interpreter &I, Value, const Value *Args, uint32_t N) {   \
    return I.context().TheHeap.boxNumber(                                      \
        RAW(argNum(Args, N, 0), argNum(Args, N, 1)));                          \
  }

BOXED_MATH_1(nativeAbs, tj_math_abs)
BOXED_MATH_1(nativeFloor, tj_math_floor)
BOXED_MATH_1(nativeCeil, tj_math_ceil)
BOXED_MATH_1(nativeSqrt, tj_math_sqrt)
BOXED_MATH_1(nativeSin, tj_math_sin)
BOXED_MATH_1(nativeCos, tj_math_cos)
BOXED_MATH_1(nativeTan, tj_math_tan)
BOXED_MATH_1(nativeExp, tj_math_exp)
BOXED_MATH_1(nativeLog, tj_math_log)
BOXED_MATH_1(nativeRound, tj_math_round)
BOXED_MATH_2(nativePow, tj_math_pow)
BOXED_MATH_2(nativeAtan2, tj_math_atan2)
BOXED_MATH_2(nativeMin, tj_math_min)
BOXED_MATH_2(nativeMax, tj_math_max)

static Value nativeRandom(Interpreter &I, Value, const Value *, uint32_t) {
  return I.context().TheHeap.boxDouble(nextRandom(&I.context()));
}

// --- Typed-FFI registry -------------------------------------------------------

namespace {
struct RegistryEntry {
  NativeFn Boxed;
  TraceableNative Info;
};
} // namespace

static const RegistryEntry Registry[] = {
    {nativeAbs, {"Math.abs", (void *)tj_math_abs, TraceableSig::D_D}},
    {nativeFloor, {"Math.floor", (void *)tj_math_floor, TraceableSig::D_D}},
    {nativeCeil, {"Math.ceil", (void *)tj_math_ceil, TraceableSig::D_D}},
    {nativeSqrt, {"Math.sqrt", (void *)tj_math_sqrt, TraceableSig::D_D}},
    {nativeSin, {"Math.sin", (void *)tj_math_sin, TraceableSig::D_D}},
    {nativeCos, {"Math.cos", (void *)tj_math_cos, TraceableSig::D_D}},
    {nativeTan, {"Math.tan", (void *)tj_math_tan, TraceableSig::D_D}},
    {nativeExp, {"Math.exp", (void *)tj_math_exp, TraceableSig::D_D}},
    {nativeLog, {"Math.log", (void *)tj_math_log, TraceableSig::D_D}},
    {nativeRound, {"Math.round", (void *)tj_math_round, TraceableSig::D_D}},
    {nativePow, {"Math.pow", (void *)tj_math_pow, TraceableSig::D_DD}},
    {nativeAtan2, {"Math.atan2", (void *)tj_math_atan2, TraceableSig::D_DD}},
    {nativeMin, {"Math.min", (void *)tj_math_min, TraceableSig::D_DD}},
    {nativeMax, {"Math.max", (void *)tj_math_max, TraceableSig::D_DD}},
    {nativeRandom, {"Math.random", (void *)tj_math_random,
                    TraceableSig::D_CTX}},
};

const TraceableNative *lookupTraceableNative(NativeFn Fn) {
  for (const RegistryEntry &E : Registry)
    if (E.Boxed == Fn)
      return &E.Info;
  return nullptr;
}

const TraceableNative *traceableNativeAt(size_t I) {
  return I < sizeof(Registry) / sizeof(Registry[0]) ? &Registry[I].Info
                                                     : nullptr;
}

// --- String / array method dispatch (CallProp fallback) -------------------------

Value Interpreter::callPropValue(Value Recv, String *Name, const Value *Args,
                                 uint32_t N) {
  VMContext &C = Ctx;
  if (Recv.isString()) {
    String *S = Recv.toString();
    std::string_view M = Name->view();
    if (M == "charCodeAt") {
      int64_t I = (int64_t)argNum(Args, N, 0);
      if (I < 0 || I >= (int64_t)S->length())
        return C.TheHeap.boxDouble(std::nan(""));
      return Value::makeInt((uint8_t)S->charAt((uint32_t)I));
    }
    if (M == "charAt") {
      int64_t I = (int64_t)argNum(Args, N, 0);
      if (I < 0 || I >= (int64_t)S->length())
        return Value::makeString(C.Atoms.emptyString());
      return Value::makeString(C.Atoms.unitString(S->charAt((uint32_t)I)));
    }
    if (M == "indexOf") {
      if (N < 1 || !Args[0].isString())
        return Value::makeInt(-1);
      size_t From = N >= 2 ? (size_t)argNum(Args, N, 1) : 0;
      size_t Found = S->view().find(Args[0].toString()->view(), From);
      return Value::makeInt(Found == std::string_view::npos ? -1
                                                            : (int32_t)Found);
    }
    if (M == "substring") {
      int64_t A = (int64_t)argNum(Args, N, 0);
      int64_t B = N >= 2 ? (int64_t)argNum(Args, N, 1) : S->length();
      if (A < 0)
        A = 0;
      if (B > (int64_t)S->length())
        B = S->length();
      if (A > B)
        std::swap(A, B);
      return Value::makeString(
          String::create(C.TheHeap, S->view().substr(A, B - A)));
    }
    rtError("unknown string method");
    return Value::undefined();
  }

  if (Recv.isObject() && Recv.toObject()->isArray()) {
    Object *A = Recv.toObject();
    std::string_view M = Name->view();
    if (M == "push") {
      for (uint32_t K = 0; K < N; ++K)
        A->setElement(C.TheHeap, A->arrayLength(), Args[K]);
      return Value::makeInt((int32_t)A->arrayLength());
    }
    if (M == "join") {
      std::string Sep = N >= 1 ? valueToString(Args[0]) : ",";
      std::string Out;
      for (uint32_t K = 0; K < A->arrayLength(); ++K) {
        if (K)
          Out += Sep;
        Value E = A->getElement(K);
        if (!E.isUndefined() && !E.isNull())
          Out += valueToString(E);
      }
      return Value::makeString(String::create(C.TheHeap, Out));
    }
    rtError("unknown array method");
    return Value::undefined();
  }

  rtError("method call on unsupported receiver");
  return Value::undefined();
}

// --- Global installation -----------------------------------------------------------

static void defineNativeOn(VMContext &C, Object *Holder, const char *Name,
                           NativeFn Fn) {
  String *A = C.Atoms.intern(Name);
  Object *F = Object::createNativeFunction(C.TheHeap, C.Shapes, Fn, A);
  Holder->setProperty(C.Shapes, A, Value::makeObject(F));
}

static void defineGlobalNative(VMContext &C, const char *Name, NativeFn Fn) {
  String *A = C.Atoms.intern(Name);
  Object *F = Object::createNativeFunction(C.TheHeap, C.Shapes, Fn, A);
  C.Globals.Values[C.Globals.slotFor(A)] = Value::makeObject(F);
}

void installStandardGlobals(Interpreter &I) {
  VMContext &C = I.context();

  defineGlobalNative(C, "print", nativePrint);
  defineGlobalNative(C, "Array", nativeArrayCtor);
  defineGlobalNative(C, "gc", nativeGcNow);

  Object *MathObj = Object::create(C.TheHeap, C.Shapes);
  defineNativeOn(C, MathObj, "abs", nativeAbs);
  defineNativeOn(C, MathObj, "floor", nativeFloor);
  defineNativeOn(C, MathObj, "ceil", nativeCeil);
  defineNativeOn(C, MathObj, "sqrt", nativeSqrt);
  defineNativeOn(C, MathObj, "sin", nativeSin);
  defineNativeOn(C, MathObj, "cos", nativeCos);
  defineNativeOn(C, MathObj, "tan", nativeTan);
  defineNativeOn(C, MathObj, "exp", nativeExp);
  defineNativeOn(C, MathObj, "log", nativeLog);
  defineNativeOn(C, MathObj, "round", nativeRound);
  defineNativeOn(C, MathObj, "pow", nativePow);
  defineNativeOn(C, MathObj, "atan2", nativeAtan2);
  defineNativeOn(C, MathObj, "min", nativeMin);
  defineNativeOn(C, MathObj, "max", nativeMax);
  defineNativeOn(C, MathObj, "random", nativeRandom);
  MathObj->setProperty(C.Shapes, C.Atoms.intern("PI"),
                       C.TheHeap.boxDouble(M_PI));
  MathObj->setProperty(C.Shapes, C.Atoms.intern("E"),
                       C.TheHeap.boxDouble(M_E));
  C.Globals.Values[C.Globals.slotFor(C.Atoms.intern("Math"))] =
      Value::makeObject(MathObj);

  Object *StringObj = Object::create(C.TheHeap, C.Shapes);
  defineNativeOn(C, StringObj, "fromCharCode", nativeFromCharCode);
  C.Globals.Values[C.Globals.slotFor(C.Atoms.intern("String"))] =
      Value::makeObject(StringObj);
}

} // namespace tracejit

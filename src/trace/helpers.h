//===- helpers.h - Runtime helpers callable from traces ------------------------===//
//
// C entry points the trace compiler emits calls to: boxing, array and
// string operations, allocation, and slow-path arithmetic. This is the
// trace-side half of the typed FFI (§6.5): unboxed arguments, no
// interpreter API in the hot path. Helpers that allocate never run the GC
// directly -- they raise the preempt flag and the guard at the next loop
// edge hands control back to the interpreter, which collects at a safe
// point (§6.4).
//
// Every helper has a CallInfo carrying its native address for the x86-64
// backend and an auto-generated shim for the portable LIR executor.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_TRACE_HELPERS_H
#define TRACEJIT_TRACE_HELPERS_H

#include <vector>

#include "lir/lir.h"

namespace tracejit {

struct VMContext;
class Object;
class String;

extern "C" {
int32_t tj_ToInt32D(double D);
int32_t tj_ModI(int32_t A, int32_t B);
double tj_ModD(double A, double B);
uint64_t tj_BoxDouble(VMContext *Ctx, double D);
int32_t tj_ArraySetV(VMContext *Ctx, Object *A, int32_t Idx, uint64_t Bits);
int32_t tj_ArraySetD(VMContext *Ctx, Object *A, int32_t Idx, double D);
uint64_t tj_ConcatSS(VMContext *Ctx, String *A, String *B);
/// String + number in either order (\p NumFirst), the number formatted as
/// numberToString does: what Interpreter::concatValues yields for an int or
/// double operand (ints format identically through the double).
uint64_t tj_ConcatSN(VMContext *Ctx, String *S, double N, int32_t NumFirst);
int32_t tj_EqSS(String *A, String *B);
uint64_t tj_CharAt(VMContext *Ctx, String *S, int32_t I);
uint64_t tj_FromCharCode1(VMContext *Ctx, int32_t C);
uint64_t tj_NewArray(VMContext *Ctx, int32_t Len);
uint64_t tj_NewObject(VMContext *Ctx);
void tj_InitProp(VMContext *Ctx, Object *O, String *Name, uint64_t Bits);
/// Object::readProperty as a boxed word: what Interpreter::getPropValue
/// yields for an object receiver. Reads only; never allocates or errors
/// (megamorphic GetProp sites, trace/recorder.cpp).
uint64_t tj_GetPropGeneric(Object *O, String *Name);
int32_t tj_ArrayPushV(VMContext *Ctx, Object *A, uint64_t Bits);
int32_t tj_TruthyD(double D);
}

/// CallInfo table for the helpers above plus the typed math natives.
struct HelperCalls {
  CallInfo ToInt32D, ModI, ModD, BoxDouble, ArraySetV, ArraySetD, ConcatSS,
      ConcatSN, EqSS, CharAt, FromCharCode1, NewArray, NewObject, InitProp,
      GetPropGeneric, ArrayPushV, TruthyD;
  // Typed math natives (built from the natives.cpp registry signatures).
  CallInfo MathD_D;   ///< prototype for double(double); Addr filled per use
  CallInfo MathD_DD;  ///< prototype for double(double,double)
  CallInfo MathD_CTX; ///< prototype for double(VMContext*)
};

const HelperCalls &helperCalls();

/// Every address a trace can call: each helper above and each traceable
/// native's typed entry (interp/natives.h). The native backend keeps them
/// in a table at its code pool's floor and calls through it.
std::vector<const void *> traceCallTargets();

/// Build a one-off CallInfo for a typed native with signature \p Proto but
/// a different address; the result must be arena- or statically-owned by
/// the caller. Returns Proto copied with Addr/Name/Shim replaced. The shim
/// dispatches through the address generically for the known signatures.
CallInfo makeMathCallInfo(const CallInfo &Proto, void *Addr, const char *Name);

} // namespace tracejit

#endif // TRACEJIT_TRACE_HELPERS_H

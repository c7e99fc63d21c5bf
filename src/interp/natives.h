//===- natives.h - Built-in globals and the typed-native FFI ---------------===//
//
// The classic FFI: natives take boxed values through the interpreter API
// (paper §6.5). On top of that, the paper describes "a new FFI that allows
// C functions to be annotated with their argument types so that the tracer
// can call them directly, without unnecessary argument conversions" -- the
// TraceableNative registry below is that annotation table: the recorder
// looks natives up here and, when a typed entry exists, emits a direct
// call on unboxed doubles instead of aborting the trace.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_INTERP_NATIVES_H
#define TRACEJIT_INTERP_NATIVES_H

#include <cstddef>
#include <cstdint>

#include "vm/object.h"

namespace tracejit {

class Interpreter;
struct VMContext;

/// Install print, Math, String, Array, and the test hooks into the global
/// table of \p I's context.
void installStandardGlobals(Interpreter &I);

/// Typed signature kinds for traceable natives (all double-valued; JS
/// numbers are doubles).
enum class TraceableSig : uint8_t {
  D_D,   ///< double f(double)
  D_DD,  ///< double f(double, double)
  D_CTX, ///< double f(VMContext*)   (Math.random)
};

struct TraceableNative {
  const char *Name;
  void *RawFn; ///< The unboxed entry point the trace calls directly.
  TraceableSig Sig;
};

/// Typed-FFI annotation lookup: the traceable entry for a boxed native, or
/// nullptr (in which case the recorder aborts the trace, §3.1 "Aborts").
const TraceableNative *lookupTraceableNative(NativeFn Fn);

/// The registry's \p I-th entry, or nullptr past the end.
const TraceableNative *traceableNativeAt(size_t I);

/// Deterministic xorshift64* random in [0,1); exposed for tests.
double nextRandom(VMContext *Ctx);

} // namespace tracejit

#endif // TRACEJIT_INTERP_NATIVES_H

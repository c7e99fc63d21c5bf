//===- typemap.h - Trace type maps ------------------------------------------===//
//
// "A typed trace also has an entry type map giving the required types for
// variables used on the trace... The entry type map is much like the
// signature of a function." (§3.1)
//
// Our type maps cover a fixed slot domain that mirrors the interpreter
// state 1:1:
//
//   slot 0 .. NumGlobals-1            the global table
//   slot NumGlobals .. NumGlobals+Sp  the interpreter value stack (all
//                                     active frames' locals and operand
//                                     stacks, exactly as laid out by the
//                                     interpreter)
//
// but type only the slots the trace uses. Every other slot is Boxed: the
// interpreter keeps its value while the trace runs. Entry matching ignores
// a Boxed slot and entry does not copy it; exits do not write it back. A
// root tree's entry map types the slots its loop's code names, plus those
// its recording read from the TAR or held typed at its loop edge, so a
// type change in a slot no trace of the tree touches (a caller frame's
// operand, an unrelated global) never splits the tree. A local dead at the
// loop header (analysis/analysis.h, loopLiveLocals) is Boxed too, even
// though the loop writes it. A branch or a
// nested tree that does use a Boxed slot reads it from the interpreter
// under a type guard, and boxes it back there before control reaches a
// fragment that expects it Boxed.
//
// The trace activation record (TAR) uses the same indexing with 8-byte
// slots, so identical type maps imply identical activation-record layouts
// ("identical type maps yield identical activation record layouts, so the
// trace activation record can be reused immediately by the branch trace",
// §6.2) and an outer tree can call an inner tree by passing its own TAR.
// A Boxed slot's TAR word is meaningless.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_TRACE_TYPEMAP_H
#define TRACEJIT_TRACE_TYPEMAP_H

#include <cstdint>
#include <string>
#include <vector>

#include "vm/value.h"

namespace tracejit {

/// The unboxed on-trace type of one slot.
enum class TraceType : uint8_t {
  Int,       ///< int32 in the low half of the slot
  Double,    ///< IEEE double
  Object,    ///< Object*
  String,    ///< String*
  Boolean,   ///< int32 0/1
  Null,      ///< no payload
  Undefined, ///< no payload
  Boxed,     ///< untyped: the value lives in the interpreter, not the TAR
};

const char *traceTypeName(TraceType T);

/// Observe the trace type of a boxed value.
inline TraceType traceTypeOf(const Value &V) {
  if (V.isInt())
    return TraceType::Int;
  if (V.isDoubleCell())
    return TraceType::Double;
  if (V.isObject())
    return TraceType::Object;
  if (V.isString())
    return TraceType::String;
  if (V.isNull())
    return TraceType::Null;
  if (V.isUndefined())
    return TraceType::Undefined;
  return TraceType::Boolean;
}

struct TypeMap {
  uint32_t NumGlobals = 0;
  /// Types for slots [0, NumGlobals + StackSlots); Boxed for slots the
  /// trace does not specialize on.
  std::vector<TraceType> Types;

  uint32_t size() const { return (uint32_t)Types.size(); }
  uint32_t stackSlots() const { return size() - NumGlobals; }
  bool typed(uint32_t Slot) const { return Types[Slot] != TraceType::Boxed; }
  /// Slots with a type (not Boxed): what an entry checks and imports.
  uint32_t typedSlots() const {
    uint32_t N = 0;
    for (TraceType T : Types)
      N += T != TraceType::Boxed;
    return N;
  }

  bool operator==(const TypeMap &O) const {
    return NumGlobals == O.NumGlobals && Types == O.Types;
  }
  bool operator!=(const TypeMap &O) const { return !(*this == O); }

  std::string describe() const;
};

/// Byte offset of slot \p I within the TAR.
inline int32_t tarOffsetOfSlot(uint32_t I) { return (int32_t)(I * 8); }

} // namespace tracejit

#endif // TRACEJIT_TRACE_TYPEMAP_H

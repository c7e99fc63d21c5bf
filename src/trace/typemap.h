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
// The trace activation record (TAR) uses the same indexing with 8-byte
// slots, so identical type maps imply identical activation-record layouts
// ("identical type maps yield identical activation record layouts, so the
// trace activation record can be reused immediately by the branch trace",
// §6.2) and an outer tree can call an inner tree by passing its own TAR.
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
  /// Types for slots [0, NumGlobals + StackSlots).
  std::vector<TraceType> Types;

  uint32_t size() const { return (uint32_t)Types.size(); }
  uint32_t stackSlots() const { return size() - NumGlobals; }

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

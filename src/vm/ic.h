//===- ic.h - Per-site property inline caches -------------------------------===//
//
// Polymorphic inline caches for the interpreter's property accesses. Every
// GetProp/SetProp bytecode carries a u16 index into its script's IC table;
// the interpreter consults the cache before falling back to the dictionary
// (shape hash) lookup, and the trace recorder reads the same cache to emit
// shape guards without re-deriving facts the interpreter already proved.
//
// An IC walks the classic mono -> poly -> mega ladder:
//
//   Uninit: never executed. The first miss fills one entry (Mono).
//   Mono:   one (shape, kind) pair seen; the hit path is two compares and
//           a slot load.
//   Poly:   up to MaxEntries pairs, probed linearly.
//   Mega:   more receivers than entries. The site stops learning (misses
//           no longer refill) but keeps serving its frozen entries --
//           they stay valid forever, see below -- and the oracle remembers
//           the megamorphism so the recorder records the access as a
//           generic-lookup call (tj_GetPropGeneric / tj_InitProp) with
//           only a type guard on the result, not an always-failing shape
//           guard.
//
// Entries key on the Shape pointer. Shapes are immutable and engine-
// lifetime (vm/shape.h), so adding a property moves the object to a
// *different* shape and stale entries self-invalidate by simply failing to
// match; no per-transition invalidation hook is needed. Explicit whole-
// table invalidation (VMContext::invalidateAllICs) exists for the code-
// cache flush path, which resets all speculation state at once.
//
// Entries also key on the ObjectKind: plain objects and arrays share the
// empty root shape, but `arr.length` is not a named slot -- without the
// kind guard a length site trained on an array could wrongly hit a plain
// object of the same shape (and vice versa).
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_VM_IC_H
#define TRACEJIT_VM_IC_H

#include <cstdint>

namespace tracejit {

class Shape;

enum class ICState : uint8_t {
  Uninit, ///< Site never executed with a cacheable receiver.
  Mono,   ///< Exactly one entry.
  Poly,   ///< 2..MaxEntries entries.
  Mega,   ///< Overflowed; entries frozen, misses stop refilling.
};

inline const char *icStateName(ICState S) {
  switch (S) {
  case ICState::Uninit:
    return "uninit";
  case ICState::Mono:
    return "mono";
  case ICState::Poly:
    return "poly";
  case ICState::Mega:
    return "mega";
  }
  return "?";
}

/// What a matching entry means for this site. The property name is static
/// per bytecode, so it is not stored: every entry of one IC is about the
/// same name.
enum class ICEntryKind : uint8_t {
  Slot,         ///< Named slot present: read/write NamedSlots[Slot].
  Absent,       ///< GetProp of a name this shape lacks: undefined.
  ArrayLength,  ///< GetProp "length" on an array: read ArrayLen.
  StringLength, ///< GetProp "length" on a string receiver.
  Transition,   ///< SetProp adding the name: ShapePtr -> Target, slot Slot.
};

struct ICEntry {
  Shape *ShapePtr = nullptr; ///< Receiver shape guard (objects).
  Shape *Target = nullptr;   ///< Transition: destination shape.
  uint32_t Slot = 0;         ///< Named slot index (Slot/Transition).
  ICEntryKind Kind = ICEntryKind::Slot;
  uint8_t KindGuard = 0; ///< Receiver ObjectKind, as its raw value.
};

struct PropertyIC {
  static constexpr uint8_t MaxEntries = 4;

  ICState State = ICState::Uninit;
  uint8_t N = 0;
  ICEntry Entries[MaxEntries];

  void reset() {
    State = ICState::Uninit;
    N = 0;
  }
};

} // namespace tracejit

#endif // TRACEJIT_VM_IC_H

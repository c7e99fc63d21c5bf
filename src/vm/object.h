//===- object.h - Shape-based objects, dense arrays, functions ------------===//
//
// Objects map interned property names to value slots through a shared Shape
// (paper §6). Dense arrays keep elements in a contiguous boxed vector with
// an explicit length, matching the "dense array" fast path the paper's
// getprop/setelem bytecodes special-case. Function objects wrap either a
// compiled script or a native (FFI) entry point.
//
// Slot and element storage are raw arrays (not std::vector) because the
// trace compiler emits direct loads at fixed byte offsets from the object
// pointer, guarded on the shape -- exactly the "two or three loads" the
// paper describes for a specialized property read (§3.1).
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_VM_OBJECT_H
#define TRACEJIT_VM_OBJECT_H

#include <cstddef>
#include <cstdint>

#include "vm/gc.h"
#include "vm/shape.h"
#include "vm/string.h"

namespace tracejit {

struct FunctionScript;
class Interpreter;

/// Signature of an untraceable native: operates on boxed values through the
/// interpreter API (the paper's classic FFI).
using NativeFn = Value (*)(Interpreter &I, Value ThisV, const Value *Args,
                           uint32_t ArgC);

/// What an Object is.
enum class ObjectKind : uint8_t {
  Plain,    ///< Shape-based property map.
  Array,    ///< Dense array: elements + length, plus shape for names.
  Function, ///< Callable; script or native.
};

class Object : public GCCell {
public:
  static Object *create(Heap &H, ShapeTree &Shapes);
  static Object *createArray(Heap &H, ShapeTree &Shapes, uint32_t Length);
  static Object *createFunction(Heap &H, ShapeTree &Shapes,
                                FunctionScript *Script);
  static Object *createNativeFunction(Heap &H, ShapeTree &Shapes, NativeFn Fn,
                                      String *Name);
  ~Object();

  ObjectKind kind() const { return OKind; }
  bool isArray() const { return OKind == ObjectKind::Array; }
  bool isFunction() const { return OKind == ObjectKind::Function; }

  Shape *shape() const { return TheShape; }
  uint32_t shapeId() const { return TheShape->id(); }

  // --- Named properties ----------------------------------------------------

  /// Read own property \p Name; returns undefined if absent (we do not model
  /// prototype chains on plain data objects -- see DESIGN.md).
  Value getProperty(String *Name) const {
    int Slot = TheShape->lookup(Name);
    return Slot < 0 ? Value::undefined() : NamedSlots[Slot];
  }

  bool hasProperty(String *Name) const { return TheShape->lookup(Name) >= 0; }

  /// What `o.Name` reads: an array's `length` (which shadows any named
  /// slot of that name), else getProperty(Name). Never allocates.
  Value readProperty(String *Name) const {
    if (isArray() && Name->view() == "length")
      return Value::makeInt((int32_t)ArrayLen);
    return getProperty(Name);
  }

  /// Create or update property \p Name. Creating transitions the shape.
  void setProperty(ShapeTree &Shapes, String *Name, Value V);

  /// Slot index for \p Name or -1; used by the tracer to compile direct
  /// slot loads guarded on the shape.
  int slotOf(String *Name) const { return TheShape->lookup(Name); }
  Value slotValue(uint32_t Slot) const { return NamedSlots[Slot]; }
  const Value *namedSlotsData() const { return NamedSlots; }

  /// Overwrite an existing slot. IC fast path for a SetProp whose cached
  /// shape matched: the slot is known in-bounds because the shape owns it.
  void setSlotValue(uint32_t Slot, Value V) { NamedSlots[Slot] = V; }

  /// Apply a memoized shape transition: grow storage to \p To's slot count,
  /// install \p To, write the new property's value into \p Slot. Valid only
  /// when \p To == ShapeTree::transition(shape(), Name) and
  /// \p Slot == shape()->slotCount() -- which the SetProp IC guarantees by
  /// caching (From, To, Slot) triples observed from the generic path.
  void applyTransition(Shape *To, uint32_t Slot, Value V);

  // --- Dense array elements --------------------------------------------------

  uint32_t arrayLength() const { return ArrayLen; }
  /// Read element \p I; undefined out of bounds ("holes" read as undefined).
  Value getElement(uint32_t I) const {
    if (I < ElemCapacity)
      return ElemData[I];
    return Value::undefined();
  }
  /// Write element \p I, growing the dense storage and length as needed.
  void setElement(Heap &H, uint32_t I, Value V);

  const Value *elementsData() const { return ElemData; }
  uint32_t elementsCapacity() const { return ElemCapacity; }

  // --- Functions --------------------------------------------------------------

  FunctionScript *script() const { return Script; }
  NativeFn native() const { return Native; }
  String *functionName() const { return FnName; }

  /// GC tracing: mark everything this object references.
  void trace(Marker &M) const;

  // --- JIT-visible layout -----------------------------------------------------
  // The trace compiler loads these fields directly from native code.
  static int32_t kindOffset();
  static int32_t shapeOffset();
  static int32_t namedSlotsOffset();
  static int32_t elemDataOffset();
  static int32_t elemCapacityOffset();
  static int32_t arrayLenOffset();

private:
  Object(ObjectKind K, Shape *S) : GCCell(CellKind::Object), OKind(K),
                                   TheShape(S) {}
  static Object *alloc(Heap &H, ObjectKind K, Shape *S);
  void growNamedSlots(uint32_t Count);

  ObjectKind OKind;
  Shape *TheShape;
  Value *NamedSlots = nullptr;
  uint32_t NamedCapacity = 0;
  Value *ElemData = nullptr;
  uint32_t ElemCapacity = 0;
  uint32_t ArrayLen = 0;
  FunctionScript *Script = nullptr;
  NativeFn Native = nullptr;
  String *FnName = nullptr;
};

} // namespace tracejit

#endif // TRACEJIT_VM_OBJECT_H

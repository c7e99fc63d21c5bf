//===- object.cpp - Shape-based objects and dense arrays ------------------===//

#include "vm/object.h"

#include <cstdlib>
#include <cstring>

namespace tracejit {

Object *Object::alloc(Heap &H, ObjectKind K, Shape *S) {
  return new (H.allocCell(sizeof(Object))) Object(K, S);
}

Object::~Object() {
  std::free(NamedSlots);
  std::free(ElemData);
}

Object *Object::create(Heap &H, ShapeTree &Shapes) {
  return Object::alloc(H, ObjectKind::Plain, Shapes.emptyShape());
}

Object *Object::createArray(Heap &H, ShapeTree &Shapes, uint32_t Length) {
  Object *O = Object::alloc(H, ObjectKind::Array, Shapes.emptyShape());
  if (Length) {
    O->ElemData = static_cast<Value *>(std::malloc(sizeof(Value) * Length));
    for (uint32_t I = 0; I < Length; ++I)
      O->ElemData[I] = Value::undefined();
    O->ElemCapacity = Length;
  }
  O->ArrayLen = Length;
  return O;
}

Object *Object::createFunction(Heap &H, ShapeTree &Shapes,
                               FunctionScript *Script) {
  Object *O = Object::alloc(H, ObjectKind::Function, Shapes.emptyShape());
  O->Script = Script;
  return O;
}

Object *Object::createNativeFunction(Heap &H, ShapeTree &Shapes, NativeFn Fn,
                                     String *Name) {
  Object *O = Object::alloc(H, ObjectKind::Function, Shapes.emptyShape());
  O->Native = Fn;
  O->FnName = Name;
  return O;
}

void Object::growNamedSlots(uint32_t Count) {
  if (Count <= NamedCapacity)
    return;
  uint32_t NewCap = NamedCapacity ? NamedCapacity * 2 : 4;
  if (NewCap < Count)
    NewCap = Count;
  auto *NewSlots = static_cast<Value *>(std::malloc(sizeof(Value) * NewCap));
  if (NamedSlots)
    std::memcpy(NewSlots, NamedSlots, sizeof(Value) * NamedCapacity);
  for (uint32_t I = NamedCapacity; I < NewCap; ++I)
    NewSlots[I] = Value::undefined();
  std::free(NamedSlots);
  NamedSlots = NewSlots;
  NamedCapacity = NewCap;
}

void Object::setProperty(ShapeTree &Shapes, String *Name, Value V) {
  int Slot = TheShape->lookup(Name);
  if (Slot < 0) {
    Slot = (int)TheShape->slotCount();
    TheShape = Shapes.transition(TheShape, Name);
    growNamedSlots(TheShape->slotCount());
  }
  NamedSlots[Slot] = V;
}

void Object::applyTransition(Shape *To, uint32_t Slot, Value V) {
  growNamedSlots(To->slotCount());
  TheShape = To;
  NamedSlots[Slot] = V;
}

void Object::setElement(Heap &H, uint32_t I, Value V) {
  (void)H;
  if (I >= ElemCapacity) {
    uint32_t NewCap = ElemCapacity ? ElemCapacity * 2 : 8;
    if (NewCap < I + 1)
      NewCap = I + 1;
    auto *NewData = static_cast<Value *>(std::malloc(sizeof(Value) * NewCap));
    if (ElemData)
      std::memcpy(NewData, ElemData, sizeof(Value) * ElemCapacity);
    for (uint32_t J = ElemCapacity; J < NewCap; ++J)
      NewData[J] = Value::undefined();
    std::free(ElemData);
    ElemData = NewData;
    ElemCapacity = NewCap;
  }
  ElemData[I] = V;
  if (I >= ArrayLen)
    ArrayLen = I + 1;
}

void Object::trace(Marker &M) const {
  for (uint32_t I = 0; I < NamedCapacity; ++I)
    M.markValue(NamedSlots[I]);
  for (uint32_t I = 0; I < ElemCapacity; ++I)
    M.markValue(ElemData[I]);
  if (FnName)
    M.markCell(FnName);
}

// offsetof on a non-standard-layout type is conditionally supported; GCC and
// Clang both support it for this layout. Silence the pedantic warning.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
int32_t Object::kindOffset() { return (int32_t)offsetof(Object, OKind); }
int32_t Object::shapeOffset() { return (int32_t)offsetof(Object, TheShape); }
int32_t Object::namedSlotsOffset() {
  return (int32_t)offsetof(Object, NamedSlots);
}
int32_t Object::elemDataOffset() { return (int32_t)offsetof(Object, ElemData); }
int32_t Object::elemCapacityOffset() {
  return (int32_t)offsetof(Object, ElemCapacity);
}
int32_t Object::arrayLenOffset() { return (int32_t)offsetof(Object, ArrayLen); }
#pragma GCC diagnostic pop

} // namespace tracejit

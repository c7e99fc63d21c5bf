//===- value.h - Tagged jsval-style values (paper Figure 9) ---------------===//
//
// SpiderMonkey-era tagged value words, reproduced from Figure 9 of the
// paper:
//
//   Tag   Type      Description
//   xx1   number    31-bit integer representation
//   000   object    pointer to Object handle
//   010   number    pointer to double handle
//   100   string    pointer to String handle
//   110   special   enumeration for boolean, null, undefined
//
// "Testing tags, unboxing (extracting the untagged value) and boxing
// (creating tagged values) are significant costs. Avoiding these costs is a
// key benefit of tracing." -- we deliberately keep this representation in
// the interpreter so that the tracer has exactly those costs to eliminate.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_VM_VALUE_H
#define TRACEJIT_VM_VALUE_H

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>

namespace tracejit {

class Object;
class String;
struct DoubleCell;

/// Tag assignments (low 3 bits of the value word). Pointers to GC cells are
/// 8-byte aligned so the low 3 bits are free.
enum ValueTag : uint64_t {
  TagObject = 0b000,
  TagDouble = 0b010,
  TagString = 0b100,
  TagSpecial = 0b110,
  TagIntBit = 0b001, ///< Any word with the low bit set is a 31-bit int.
};

/// Payloads for TagSpecial.
enum SpecialPayload : uint64_t {
  SpecialFalse = 0,
  SpecialTrue = 1,
  SpecialNull = 2,
  SpecialUndefined = 3,
};

/// A boxed dynamic value: one machine word with a low-bit tag.
class Value {
public:
  Value() : Bits(makeSpecialBits(SpecialUndefined)) {}

  static Value fromBits(uint64_t B) {
    Value V;
    V.Bits = B;
    return V;
  }
  uint64_t bits() const { return Bits; }

  // --- Constructors --------------------------------------------------------

  /// The tagged integer representation. The paper's 32-bit jsvals hold a
  /// 31-bit payload; on our 64-bit words the natural analog is a full int32
  /// payload in the upper half with the low tag bit set. The mechanism
  /// (low-bit tag test, shift to unbox) is identical.
  static Value makeInt(int32_t I) {
    return fromBits(((uint64_t)(uint32_t)I << 32) | TagIntBit);
  }
  static bool fitsInt31(int64_t I) { return I >= Int31Min && I <= Int31Max; }
  static constexpr int64_t Int31Min = INT32_MIN;
  static constexpr int64_t Int31Max = INT32_MAX;

  static Value makeObject(Object *O) {
    assert(((uintptr_t)O & 7) == 0 && "misaligned object");
    return fromBits((uint64_t)(uintptr_t)O | TagObject);
  }
  static Value makeDoubleCell(DoubleCell *D) {
    assert(((uintptr_t)D & 7) == 0 && "misaligned double cell");
    return fromBits((uint64_t)(uintptr_t)D | TagDouble);
  }
  static Value makeString(String *S) {
    assert(((uintptr_t)S & 7) == 0 && "misaligned string");
    return fromBits((uint64_t)(uintptr_t)S | TagString);
  }
  static Value makeBoolean(bool B) {
    return fromBits(makeSpecialBits(B ? SpecialTrue : SpecialFalse));
  }
  static Value null() { return fromBits(makeSpecialBits(SpecialNull)); }
  static Value undefined() {
    return fromBits(makeSpecialBits(SpecialUndefined));
  }

  // --- Tag tests ------------------------------------------------------------

  bool isInt() const { return (Bits & TagIntBit) != 0; }
  bool isObject() const { return (Bits & 7) == TagObject && Bits != 0; }
  bool isDoubleCell() const { return (Bits & 7) == TagDouble; }
  bool isString() const { return (Bits & 7) == TagString && (Bits >> 3) != 0; }
  bool isSpecial() const { return (Bits & 7) == TagSpecial; }
  bool isBoolean() const {
    return isSpecial() && specialPayload() <= SpecialTrue;
  }
  bool isNull() const { return Bits == makeSpecialBits(SpecialNull); }
  bool isUndefined() const { return Bits == makeSpecialBits(SpecialUndefined); }
  bool isNumber() const { return isInt() || isDoubleCell(); }

  // --- Unboxing --------------------------------------------------------------

  int32_t toInt() const {
    assert(isInt());
    return (int32_t)(Bits >> 32);
  }
  Object *toObject() const {
    assert(isObject());
    return reinterpret_cast<Object *>(Bits & ~(uint64_t)7);
  }
  DoubleCell *toDoubleCell() const {
    assert(isDoubleCell());
    return reinterpret_cast<DoubleCell *>(Bits & ~(uint64_t)7);
  }
  String *toString() const {
    assert(isString());
    return reinterpret_cast<String *>(Bits & ~(uint64_t)7);
  }
  bool toBoolean() const {
    assert(isBoolean());
    return specialPayload() == SpecialTrue;
  }
  uint64_t specialPayload() const {
    assert(isSpecial());
    return Bits >> 3;
  }

  /// Numeric value of an int or double box.
  double numberValue() const;

  /// JS ToBoolean.
  bool truthy() const;

  bool operator==(const Value &O) const { return Bits == O.Bits; }
  bool operator!=(const Value &O) const { return Bits != O.Bits; }

private:
  static constexpr uint64_t makeSpecialBits(uint64_t Payload) {
    return (Payload << 3) | TagSpecial;
  }

  uint64_t Bits;
};

static_assert(sizeof(Value) == 8, "Value must be one machine word");

/// Format a number the way JavaScript's ToString does for the cases we
/// support (integral doubles print without a fraction; shortest round-trip
/// representation otherwise).
std::string numberToString(double D);

/// Room for any numberToString result.
constexpr size_t NumberBufSize = 32;
/// Write numberToString(D) into \p Buf (NumberBufSize bytes); return its
/// length.
size_t formatNumber(double D, char *Buf);

/// Render any value for `print` and string concatenation.
std::string valueToString(const Value &V);

/// valueToString(V) without building a std::string where it can: a string's
/// own characters, a number formatted into \p Buf (NumberBufSize bytes), a
/// literal for the specials. Only objects are rendered, into \p Slow.
std::string_view valueToStringView(const Value &V, char *Buf,
                                   std::string &Slow);

} // namespace tracejit

#endif // TRACEJIT_VM_VALUE_H

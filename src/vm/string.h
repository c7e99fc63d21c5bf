//===- string.h - Immutable GC strings and the atom table -----------------===//
//
// Strings are immutable, GC-managed byte strings. Property names are
// interned into an atom table so that name identity is pointer identity;
// shapes and the trace recorder rely on this for cheap guards.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_VM_STRING_H
#define TRACEJIT_VM_STRING_H

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "vm/gc.h"

namespace tracejit {

/// An immutable string cell. Character data is allocated inline after the
/// header.
class String : public GCCell {
public:
  /// Allocate a new string in \p H copying \p Data.
  static String *create(Heap &H, std::string_view Data) {
    return concat(H, Data, {});
  }
  /// Allocate a new string in \p H holding \p A followed by \p B: one
  /// allocation, and each part copied once, straight into the cell.
  static String *concat(Heap &H, std::string_view A, std::string_view B);

  uint32_t length() const { return Len; }
  const char *data() const {
    return reinterpret_cast<const char *>(this + 1);
  }
  std::string_view view() const { return {data(), Len}; }

  /// True for strings that are interned atoms (never collected while the
  /// atom table lives).
  bool isAtom() const { return Atom; }

  char charAt(uint32_t I) const { return data()[I]; }

  // JIT-visible layout.
  static int32_t lengthOffset();
  static int32_t dataOffset() { return (int32_t)sizeof(String); }

private:
  friend class AtomTable;
  explicit String(uint32_t L) : GCCell(CellKind::String), Len(L) {}

  uint32_t Len;
  bool Atom = false;
};

/// Interns property-name strings. Atoms are permanently rooted.
class AtomTable {
public:
  explicit AtomTable(Heap &H);

  /// Get or create the unique atom for \p Name.
  String *intern(std::string_view Name);

  /// The interned one-character string for byte \p C: what charAt, s[i]
  /// and one-argument String.fromCharCode return, so they never allocate.
  /// Made on first use.
  String *unitString(unsigned char C) {
    String *&S = Units[C];
    if (!S)
      S = intern(std::string_view(reinterpret_cast<const char *>(&C), 1));
    return S;
  }
  /// The interned "" (charAt out of range).
  String *emptyString() {
    if (!Empty)
      Empty = intern("");
    return Empty;
  }

private:
  Heap &TheHeap;
  std::unordered_map<std::string, String *> Map;
  std::array<String *, 256> Units{};
  String *Empty = nullptr;
};

} // namespace tracejit

#endif // TRACEJIT_VM_STRING_H

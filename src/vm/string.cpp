//===- string.cpp - Immutable GC strings and atoms ------------------------===//

#include "vm/string.h"

#include <cstring>

namespace tracejit {

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
int32_t String::lengthOffset() { return (int32_t)offsetof(String, Len); }
#pragma GCC diagnostic pop

String *String::concat(Heap &H, std::string_view A, std::string_view B) {
  size_t Len = A.size() + B.size();
  auto *S = new (H.allocCell(sizeof(String) + Len + 1)) String((uint32_t)Len);
  char *Chars = reinterpret_cast<char *>(S + 1);
  if (!A.empty())
    std::memcpy(Chars, A.data(), A.size());
  if (!B.empty())
    std::memcpy(Chars + A.size(), B.data(), B.size());
  Chars[Len] = 0;
  return S;
}

AtomTable::AtomTable(Heap &H) : TheHeap(H) {
  H.addRootProvider([this](Marker &M) {
    for (auto &[_, S] : Map)
      M.markCell(S);
  });
}

String *AtomTable::intern(std::string_view Name) {
  auto It = Map.find(std::string(Name));
  if (It != Map.end())
    return It->second;
  String *S = String::create(TheHeap, Name);
  S->Atom = true;
  Map.emplace(std::string(Name), S);
  return S;
}

} // namespace tracejit

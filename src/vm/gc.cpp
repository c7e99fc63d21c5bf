//===- gc.cpp - Exact stop-the-world mark-and-sweep -----------------------===//

#include "vm/gc.h"

#include <atomic>
#include <cmath>
#include <cstdlib>

#include "vm/object.h"
#include "vm/string.h"

namespace tracejit {

namespace {
std::atomic<size_t> BlocksInProcess{0};
} // namespace

Heap::Heap() {
  for (size_t I = 0; I < NumClasses; ++I)
    Classes[I].CellSize = (uint32_t)((I + 1) * CellGranule);
}

Heap::~Heap() {
  for (SizeClass &C : Classes) {
    for (char *Mem : C.Blocks) {
      char *End = carvedEnd(C, Mem);
      for (char *P = Mem; P < End; P += C.CellSize) {
        unpoison(P, C.CellSize);
        finalize(reinterpret_cast<GCCell *>(P));
      }
      releaseBlock(Mem);
    }
  }
  for (GCCell *C : LargeCells) {
    finalize(C);
    std::free(C);
  }
}

size_t Heap::blockCount() const {
  size_t N = 0;
  for (const SizeClass &C : Classes)
    N += C.Blocks.size();
  return N;
}

size_t Heap::blocksInProcess() { return BlocksInProcess.load(); }

char *Heap::blockEnd(const SizeClass &C, char *Mem) {
  return Mem + (BlockBytes / C.CellSize) * C.CellSize;
}

char *Heap::carvedEnd(const SizeClass &C, char *Mem) {
  // Only the current block is partly carved; every other one is full.
  char *Full = blockEnd(C, Mem);
  return C.BumpEnd == Full ? C.Bump : Full;
}

void Heap::releaseBlock(char *Mem) {
  unpoison(Mem, BlockBytes);
  std::free(Mem);
  BlocksInProcess.fetch_sub(1, std::memory_order_relaxed);
}

void *Heap::allocInNewBlock(SizeClass &C) {
  auto *Mem = static_cast<char *>(std::malloc(BlockBytes));
  if (!Mem)
    throw std::bad_alloc();
  BlocksInProcess.fetch_add(1, std::memory_order_relaxed);
  poison(Mem, BlockBytes);
  C.Blocks.push_back(Mem);
  C.Bump = Mem + C.CellSize;
  C.BumpEnd = blockEnd(C, Mem);
  unpoison(Mem, C.CellSize);
  return Mem;
}

void *Heap::allocLarge(size_t Bytes) {
  void *Mem = std::malloc(Bytes);
  if (!Mem)
    throw std::bad_alloc();
  LargeCells.push_back(static_cast<GCCell *>(Mem));
  return Mem;
}

void Heap::finalize(GCCell *C) {
  // Strings and double handles hold nothing outside their cell.
  if (C->Kind == CellKind::Object)
    static_cast<Object *>(C)->~Object();
}

size_t Heap::liveBytes(const GCCell *C) {
  switch (C->Kind) {
  case CellKind::Object:
    return sizeof(Object);
  case CellKind::String:
    return sizeof(String) + static_cast<const String *>(C)->length();
  case CellKind::Double:
    return sizeof(DoubleCell);
  case CellKind::Free:
    break;
  }
  return 0;
}

Value Heap::boxNumber(double D) {
  // Interpreter policy: keep integers in the 31-bit tagged representation
  // whenever possible (paper §3.1, "representation specialization: numbers").
  if (D >= Value::Int31Min && D <= Value::Int31Max) {
    int32_t I = (int32_t)D;
    if ((double)I == D && !(D == 0 && std::signbit(D)))
      return Value::makeInt(I);
  }
  return boxDouble(D);
}

void Marker::markValue(const Value &V) {
  if (V.isObject())
    markCell(V.toObject());
  else if (V.isString())
    markCell(V.toString());
  else if (V.isDoubleCell())
    markCell(V.toDoubleCell());
}

void Marker::markCell(GCCell *C) {
  if (!C || C->Marked)
    return;
  C->Marked = true;
  WorkList.push_back(C);
}

void Heap::collect() {
  ++NumCollections;
  Marker M;
  for (auto &Provider : RootProviders)
    Provider(M);
  while (!M.WorkList.empty()) {
    GCCell *C = M.WorkList.back();
    M.WorkList.pop_back();
    if (C->Kind == CellKind::Object)
      static_cast<Object *>(C)->trace(M);
  }
  sweep();
}

size_t Heap::sweepClass(SizeClass &C) {
  size_t LiveBytes = 0;
  bool KeptSpare = false;
  size_t Kept = 0;
  C.FreeList = nullptr;
  for (char *Mem : C.Blocks) {
    bool Current = C.BumpEnd == blockEnd(C, Mem);
    char *End = carvedEnd(C, Mem);
    // Walk the block backwards and push its free cells onto the class's
    // list, so that allocation walks the block forwards.
    FreeCell *Before = C.FreeList;
    size_t Live = 0;
    for (char *P = End; P != Mem;) {
      P -= C.CellSize;
      unpoison(P, C.CellSize);
      auto *Cell = reinterpret_cast<GCCell *>(P);
      if (Cell->Marked) { // never set on a free cell
        Cell->Marked = false;
        LiveBytes += liveBytes(Cell);
        ++Live;
        continue;
      }
      finalize(Cell);
      C.FreeList = new (P) FreeCell(C.FreeList);
      poison(P, C.CellSize);
    }
    if (Live == 0 && (Current || KeptSpare)) {
      // A wholly empty block gives its cells back: the current block by
      // restarting its carving from the top, any other one beyond the
      // class's one spare by being released.
      C.FreeList = Before;
      if (!Current) {
        releaseBlock(Mem);
        continue;
      }
      C.Bump = Mem;
      poison(Mem, BlockBytes);
    }
    KeptSpare |= Live == 0;
    C.Blocks[Kept++] = Mem;
  }
  C.Blocks.resize(Kept);
  return LiveBytes;
}

void Heap::sweep() {
  size_t LiveBytes = 0;
  for (SizeClass &C : Classes)
    LiveBytes += sweepClass(C);
  size_t Live = 0;
  for (GCCell *C : LargeCells) {
    if (C->Marked) {
      C->Marked = false;
      LiveBytes += liveBytes(C);
      LargeCells[Live++] = C;
      continue;
    }
    finalize(C);
    std::free(C);
  }
  LargeCells.resize(Live);
  BytesAllocated = LiveBytes;
  // Grow the trigger so steady-state heaps do not thrash.
  size_t MinTrigger = 4 * 1024 * 1024;
  GCTrigger = LiveBytes * 2 > MinTrigger ? LiveBytes * 2 : MinTrigger;
}

} // namespace tracejit

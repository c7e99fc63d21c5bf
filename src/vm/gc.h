//===- gc.h - Exact stop-the-world mark-and-sweep heap --------------------===//
//
// "The garbage collector is an exact, non-generational, stop-the-world
// mark-and-sweep collector." (paper §6). Cells are objects, strings, and
// boxed double handles. Collection is scheduled through the VM's preempt
// flag and runs only at interpreter safe points (loop edges and allocation
// sites in the interpreter); traces never collect directly -- allocating
// helpers called from native code merely request a collection, which the
// preemption guard at the next loop edge then services (paper §6.4).
//
// Cells live in 64 KiB blocks, one size class per block, in 16-byte steps up
// to 256 bytes; a larger string keeps its own malloc on a large-cell list.
// Allocation pops the class's free list, else bumps in the class's current
// block, else takes a new block. Sweep walks the blocks, threads dead cells
// onto their class's free list, and releases blocks left wholly empty
// (keeping one spare per class). The collector's algorithm is unchanged:
// only where cells come from and go to is.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_VM_GC_H
#define TRACEJIT_VM_GC_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <vector>

#include "vm/value.h"

#if defined(__SANITIZE_ADDRESS__)
#define TRACEJIT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TRACEJIT_ASAN 1
#endif
#endif
#ifdef TRACEJIT_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace tracejit {

/// Kinds of heap cells.
enum class CellKind : uint8_t {
  Object,
  String,
  Double,
  Free, ///< A swept cell, on its class's free list.
};

/// Common header of every GC-managed cell.
struct GCCell {
  CellKind Kind;
  bool Marked = false;

  explicit GCCell(CellKind K) : Kind(K) {}
};

/// A heap-boxed double ("double handle", paper Fig. 9 tag 010).
struct DoubleCell : GCCell {
  double Val;
  explicit DoubleCell(double D) : GCCell(CellKind::Double), Val(D) {}

  /// JIT-visible offset of the payload (compiled unbox loads).
  static int32_t valueOffset() { return 8; }
};
static_assert(sizeof(DoubleCell) == 16, "double handle layout");

inline double Value::numberValue() const {
  if (isInt())
    return (double)toInt();
  return toDoubleCell()->Val;
}

/// The heap. Owns all cells; exposes allocation, rooting hooks, and
/// collection. Non-moving, so raw pointers embedded in compiled traces stay
/// valid as long as the trace cache roots them.
class Heap {
public:
  Heap();
  ~Heap();
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  /// Cells live in blocks of this many bytes...
  static constexpr size_t BlockBytes = 64 * 1024;
  /// ...one size class per block, in steps of this many bytes...
  static constexpr size_t CellGranule = 16;
  /// ...up to this cell size. A larger cell (only strings get that long)
  /// keeps its own malloc on the large-cell list.
  static constexpr size_t MaxSmallCell = 256;
  static constexpr size_t NumClasses = MaxSmallCell / CellGranule;

  /// The one allocation entry point for every cell kind: raw, 8-byte-aligned
  /// storage for a cell of \p Bytes, which are charged to bytesAllocated().
  /// The caller constructs the cell in place. Never collects.
  void *allocCell(size_t Bytes) {
    BytesAllocated += Bytes;
    if (Bytes > MaxSmallCell)
      return allocLarge(Bytes);
    SizeClass &C = Classes[(Bytes - 1) / CellGranule];
    if (FreeCell *F = C.FreeList) {
      unpoison(F, C.CellSize);
      C.FreeList = F->Next;
      return F;
    }
    if (C.Bump != C.BumpEnd) {
      char *P = C.Bump;
      C.Bump += C.CellSize;
      unpoison(P, C.CellSize);
      return P;
    }
    return allocInNewBlock(C);
  }

  DoubleCell *allocDouble(double D) {
    return new (allocCell(sizeof(DoubleCell))) DoubleCell(D);
  }
  Value boxDouble(double D) { return Value::makeDoubleCell(allocDouble(D)); }

  /// Box a numeric result: 31-bit-representable integers get the int tag,
  /// everything else a double handle. This is the interpreter's "use integer
  /// representations as much as it can" rule (paper §3.1).
  Value boxNumber(double D);

  /// Root providers are callbacks that mark live cells; the interpreter,
  /// global table, atom table, and trace cache each install one.
  void addRootProvider(std::function<void(class Marker &)> Fn) {
    RootProviders.push_back(std::move(Fn));
  }

  /// True when allocation pressure wants a collection; the VM mirrors this
  /// into the preempt flag.
  bool wantsGC() const { return BytesAllocated > GCTrigger; }

  /// Run a full mark-and-sweep collection. Caller must be at a safe point.
  void collect();

  size_t bytesAllocated() const { return BytesAllocated; }

  /// EngineOptions::MaxHeapBytes (0 = none). Cells are held to it at safe
  /// points (VMContext::overHeapQuota); out-of-line storage that is not a
  /// cell, an array's element buffer, refuses to grow past it.
  size_t quota() const { return Quota; }
  void setQuota(size_t Bytes) { Quota = Bytes; }
  uint64_t collections() const { return NumCollections; }

  /// Test hook: force the next wantsGC() to be true.
  void forceGCNext() { GCTrigger = 0; }

  /// Blocks this heap holds, over all size classes.
  size_t blockCount() const;
  /// Cells on the large-cell list.
  size_t largeCellCount() const { return LargeCells.size(); }
  /// Blocks held by every live Heap in the process (tests check that a
  /// destroyed heap gave all of its blocks back).
  static size_t blocksInProcess();

private:
  /// What a free cell holds: its header (kind Free) and the next free cell.
  struct FreeCell : GCCell {
    FreeCell *Next;
    explicit FreeCell(FreeCell *N) : GCCell(CellKind::Free), Next(N) {}
  };

  struct SizeClass {
    uint32_t CellSize = 0;
    FreeCell *FreeList = nullptr;
    /// The uncarved rest of the current block: [Bump, BumpEnd). Carving is
    /// lazy, so a block's untouched tail costs no resident page.
    char *Bump = nullptr;
    char *BumpEnd = nullptr;
    std::vector<char *> Blocks;
  };

  /// End of the last whole cell of block \p Mem of class \p C...
  static char *blockEnd(const SizeClass &C, char *Mem);
  /// ...and of its carved part.
  static char *carvedEnd(const SizeClass &C, char *Mem);
  static void releaseBlock(char *Mem);
  void *allocInNewBlock(SizeClass &C);
  void *allocLarge(size_t Bytes);
  void sweep();
  size_t sweepClass(SizeClass &C);
  /// Destroy a dead cell's contents (an Object's out-of-line storage).
  static void finalize(GCCell *C);
  /// The bytes a live cell counts for in bytesAllocated() after a sweep.
  static size_t liveBytes(const GCCell *C);

  /// AddressSanitizer poisoning of free cells and uncarved block tails (no-ops
  /// in other builds): a use of a swept cell is reported as it would be
  /// after a free().
  static void poison([[maybe_unused]] void *P, [[maybe_unused]] size_t N) {
#ifdef TRACEJIT_ASAN
    ASAN_POISON_MEMORY_REGION(P, N);
#endif
  }
  static void unpoison([[maybe_unused]] void *P, [[maybe_unused]] size_t N) {
#ifdef TRACEJIT_ASAN
    ASAN_UNPOISON_MEMORY_REGION(P, N);
#endif
  }

  std::array<SizeClass, NumClasses> Classes;
  std::vector<GCCell *> LargeCells;
  size_t BytesAllocated = 0;
  size_t Quota = 0;
  size_t GCTrigger = 4 * 1024 * 1024;
  uint64_t NumCollections = 0;
  std::vector<std::function<void(class Marker &)>> RootProviders;
};

/// Marking interface handed to root providers and cell tracers.
class Marker {
public:
  void markValue(const Value &V);
  void markCell(GCCell *C);

private:
  friend class Heap;
  std::vector<GCCell *> WorkList;
};

} // namespace tracejit

#endif // TRACEJIT_VM_GC_H

//===- execmem.h - Executable code memory ------------------------------------===//
//
// One contiguous reservation for all generated code ("the trace cache" code
// side). A single pool keeps every fragment within rel32 range of every
// other, so trace stitching can patch a side-exit stub into a direct
// 5-byte jump to the branch fragment (§6.2).
//
// The pool is a bounded, rewindable bump allocator:
//
//  * reserve()/commit()/rewind(): a compile reserves its worst-case
//    estimate, then either commits the bytes actually emitted or rewinds
//    the whole reservation, so failed or over-estimated compiles never
//    leak executable memory.
//  * setFloor()/reset(): the backend marks the end of its permanent
//    runtime stubs as the floor; a whole-cache flush resets the bump
//    pointer to the floor, reclaiming every fragment at once.
//
// W^X without protection flips: the same physical pages (one memfd) are
// mapped twice -- a permanently-RW write view the compiler emits and
// patches through, and a permanently-RX exec view traces run from. No
// mprotect ever runs, so emitting or patching code never races a running
// trace, whichever thread compiles. execAddr() translates a write-view
// pointer to its exec-view twin. All pointers stored in Fragment /
// ExitDescriptor / NativeBackend are write-view; translation happens only
// where C++ enters code (the trampoline). Generated code addresses other
// pool code and data only by rel32 or RIP-relative displacements, which
// are the same in both views.
//
// Bump-allocator state (reserve/commit/rewind/reset/used) is guarded by a
// mutex so the compiler thread can allocate while the owning thread reads
// occupancy. The reserve->commit protocol still assumes a single compiling
// thread at a time (the engine thread or one background worker per
// backend; a whole-cache flush quiesces the worker before reset()).
//
// Every OS-facing failure path (map, reservation) can be forced
// through the EngineOptions::FaultInjector hook for deterministic tests.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_JIT_EXECMEM_H
#define TRACEJIT_JIT_EXECMEM_H

#include <cstddef>
#include <cstdint>
#include <mutex>

#include "api/options.h"

namespace tracejit {

class ExecMemPool {
public:
  /// Map \p Bytes (rounded up to a page) twice, as the write and exec
  /// views. Check valid() before use: when the OS cannot provide the dual
  /// mapping the pool is left invalid and the engine falls back to the LIR
  /// executor, loudly. \p Faults, when non-null, points at the engine's
  /// fault injector (borrowed; must outlive the pool).
  explicit ExecMemPool(size_t Bytes = 32 * 1024 * 1024,
                       const FaultHook *Faults = nullptr);
  ~ExecMemPool();
  ExecMemPool(const ExecMemPool &) = delete;
  ExecMemPool &operator=(const ExecMemPool &) = delete;

  bool valid() const { return Base != nullptr; }

  /// Reserve \p Bytes (16-byte aligned); nullptr when exhausted or when a
  /// fault is injected at ExecAllocFail. At most one reservation is
  /// outstanding at a time; it must be resolved by commit() or rewind().
  uint8_t *reserve(size_t Bytes);

  /// Keep only \p Actual bytes of the outstanding reservation (the bytes
  /// the assembler really emitted); the rest returns to the pool.
  void commit(size_t Actual);

  /// Return the entire outstanding reservation to the pool (failed
  /// compile).
  void rewind();

  /// Convenience for tests and one-shot stubs: reserve + commit(Bytes).
  uint8_t *allocate(size_t Bytes) {
    uint8_t *P = reserve(Bytes);
    if (P)
      commit(Bytes);
    return P;
  }

  /// Mark everything allocated so far (the backend's permanent runtime
  /// stubs) as the floor reset() rewinds to.
  void setFloor() { Floor = Used; }

  /// Whole-cache flush: rewind the bump pointer to the floor. Returns the
  /// number of bytes reclaimed. With a background compiler, the owner must
  /// quiesce it first (no reservation may be outstanding).
  size_t reset();

  /// Translate a write-view pointer into the exec view. Null passes
  /// through.
  uint8_t *execAddr(uint8_t *W) const {
    return W ? ExecView + (W - Base) : nullptr;
  }

  size_t used() const;
  size_t capacity() const { return Cap; }
  size_t floorBytes() const { return Floor; }

private:
  bool inject(FaultSite S) const {
    return Faults && *Faults && (*Faults)(S);
  }

  uint8_t *Base = nullptr;     ///< Write view (RW).
  uint8_t *ExecView = nullptr; ///< Exec view (RX), same pages as Base.
  size_t Cap = 0;
  size_t Used = 0;
  size_t Floor = 0;
  size_t ResvStart = 0;
  bool HasReservation = false;
  const FaultHook *Faults = nullptr;
  /// Guards Used/ResvStart/HasReservation: the background compiler
  /// allocates while the engine thread reads used().
  mutable std::mutex Mu;
};

} // namespace tracejit

#endif // TRACEJIT_JIT_EXECMEM_H

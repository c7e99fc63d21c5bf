//===- execmem.cpp - Executable code memory -----------------------------------===//

#include "jit/execmem.h"

#include <cassert>
#include <sys/mman.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/syscall.h>
#ifndef MFD_CLOEXEC
#define MFD_CLOEXEC 0x0001U
#endif
#endif

namespace tracejit {

#if defined(__linux__)
static int codeMemFd() {
  // Raw syscall keeps us independent of the libc wrapper's availability.
  return (int)syscall(SYS_memfd_create, "tracejit-code", MFD_CLOEXEC);
}
#endif

ExecMemPool::ExecMemPool(size_t Bytes, const FaultHook *FI) : Faults(FI) {
  size_t Page = (size_t)sysconf(_SC_PAGESIZE);
  Bytes = (Bytes + Page - 1) & ~(Page - 1);
  if (inject(FaultSite::ExecMapFail))
    return; // simulated mmap failure: pool stays invalid

#if defined(__linux__)
  // Same physical pages, two views: RW for the compiler, RX for execution.
  // Protections never change, so emitting code can never race a running
  // trace through an mprotect of the whole pool.
  int Fd = codeMemFd();
  if (Fd < 0)
    return;
  if (ftruncate(Fd, (off_t)Bytes) != 0) {
    close(Fd);
    return;
  }
  void *W = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE, MAP_SHARED, Fd, 0);
  void *X = mmap(nullptr, Bytes, PROT_READ | PROT_EXEC, MAP_SHARED, Fd, 0);
  close(Fd); // the mappings keep the memfd's pages alive
  if (W == MAP_FAILED || X == MAP_FAILED) {
    if (W != MAP_FAILED)
      munmap(W, Bytes);
    if (X != MAP_FAILED)
      munmap(X, Bytes);
    return;
  }
  Base = static_cast<uint8_t *>(W);
  ExecView = static_cast<uint8_t *>(X);
  Cap = Bytes;
#endif
  // Non-Linux: no dual mapping; the pool stays invalid and the engine
  // falls back to the LIR executor (BackendFallback event).
}

ExecMemPool::~ExecMemPool() {
  if (Base)
    munmap(Base, Cap);
  if (ExecView)
    munmap(ExecView, Cap);
}

uint8_t *ExecMemPool::reserve(size_t Bytes) {
  std::lock_guard<std::mutex> L(Mu);
  assert(!HasReservation && "unresolved reservation");
  if (!Base || inject(FaultSite::ExecAllocFail))
    return nullptr;
  size_t Aligned = (Used + 15) & ~(size_t)15;
  if (Aligned + Bytes > Cap)
    return nullptr;
  ResvStart = Aligned;
  HasReservation = true;
  Used = Aligned + Bytes;
  return Base + Aligned;
}

void ExecMemPool::commit(size_t Actual) {
  std::lock_guard<std::mutex> L(Mu);
  assert(HasReservation && "commit without reserve");
  assert(ResvStart + Actual <= Used && "commit exceeds reservation");
  Used = ResvStart + Actual;
  HasReservation = false;
}

void ExecMemPool::rewind() {
  std::lock_guard<std::mutex> L(Mu);
  assert(HasReservation && "rewind without reserve");
  Used = ResvStart;
  HasReservation = false;
}

size_t ExecMemPool::reset() {
  std::lock_guard<std::mutex> L(Mu);
  assert(!HasReservation && "flush with a compile in flight");
  size_t Reclaimed = Used - Floor;
  Used = Floor;
  return Reclaimed;
}

size_t ExecMemPool::used() const {
  std::lock_guard<std::mutex> L(Mu);
  return Used;
}

} // namespace tracejit

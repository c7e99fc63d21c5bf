//===- compiler_x64.h - LIR -> x86-64 (the nanojit analog) --------------------===//
//
// Compiles LIR fragments to native code:
//
//  * One shared entry trampoline saves callee-saved registers, pins the TAR
//    pointer in RBX, reserves a shared spill area, and tail-jumps into the
//    fragment; one shared exit epilogue unwinds and returns the
//    ExitDescriptor* (paper §6.1: traces "may be called as functions using
//    standard native calling conventions").
//
//  * Register allocation is a greedy single pass with the paper's spill
//    heuristic (§5.2): when no register is free, evict the register-carried
//    value whose next reference is furthest away, which "frees up a
//    register for as long as possible given a single spill".
//
//  * Each guard compiles to a test + jcc to a per-exit 7-byte stub
//    (mov eax, index; jmp rel8 tail). The fragment's one tail loads the
//    ExitDescriptor* from Fragment::ExitTable and jumps to the shared
//    epilogue; stubs too far from the tail use jmp rel32 instead. Trace
//    stitching overwrites the stub's 5-byte mov with a direct jump to the
//    branch fragment (§6.2); because all code lives in one pool, rel32
//    always reaches.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_JIT_COMPILER_X64_H
#define TRACEJIT_JIT_COMPILER_X64_H

#include <cstdint>
#include <string>

#include "jit/execmem.h"
#include "jit/fragment.h"

namespace tracejit {

struct VMContext;

/// Outcome of NativeBackend::compile. Everything except Ok leaves the
/// fragment uncompiled and the code cache exactly as it was (the
/// reservation is rewound); the monitor maps each failure to an
/// AbortReason and decides whether to flush the cache.
enum class CompileResult : uint8_t {
  Ok,
  BackendUnavailable, ///< No executable memory (valid() is false).
  PoolExhausted,      ///< The code cache could not satisfy the reservation.
  AssemblerOverflow,  ///< Emitted code overflowed the size estimate.
  Unsupported,        ///< LIR the backend cannot compile (opcode/spills).
  Fault,              ///< Injected CompileFail.
};

class NativeBackend {
public:
  /// \p CacheBytes bounds all generated code; \p Faults (borrowed,
  /// nullable) is the engine's deterministic fault injector.
  explicit NativeBackend(size_t CacheBytes = 32 * 1024 * 1024,
                         const FaultHook *Faults = nullptr);

  /// False when executable memory is unavailable (hardened kernels or an
  /// injected ExecMapFail); the engine then falls back to the
  /// LIR-executor backend.
  bool valid() const { return Ready; }

  /// Compile \p F->Body into native code; fills F->NativeEntry and each
  /// exit's PatchAddr. On anything but Ok the fragment is left uncompiled
  /// and the pool reservation is returned.
  CompileResult compile(Fragment *F, VMContext *Ctx);

  /// Run a compiled fragment on \p Tar; returns the taken exit.
  /// NativeEntry is a write-view address; this is one of the two places it
  /// is translated to the exec view (the other is the nested-tree-call
  /// imm64 embed).
  ExitDescriptor *enter(void *Tar, Fragment *F) {
    return Trampoline(Tar, Pool.execAddr(F->NativeEntry));
  }

  /// Whole-cache flush: discard every fragment's code, keeping only the
  /// permanent runtime stubs. Returns the bytes reclaimed. All
  /// Fragment::NativeEntry pointers into the pool are invalid afterwards;
  /// the monitor retires the fragments in the same motion.
  size_t flushCode() { return Pool.reset(); }

  /// Stitch: retarget \p E's exit stub to jump directly into \p Target
  /// (which must be compiled). Also records E->Target.
  void patchExitTo(ExitDescriptor *E, Fragment *Target);

  ExecMemPool &pool() { return Pool; }
  const ExecMemPool &pool() const { return Pool; }

  /// Address generated code uses to reenter the trampoline for nested tree
  /// calls.
  void *trampolineAddr() const { return (void *)Trampoline; }

  /// Shared exit epilogue all exit stubs jump to.
  uint8_t *sharedEpilogue() const { return SharedEpilogue; }

private:
  using EnterFn = ExitDescriptor *(*)(void *Tar, const uint8_t *Code);

  void emitRuntimeStubs();

  bool inject(FaultSite S) const {
    return Faults && *Faults && (*Faults)(S);
  }

  ExecMemPool Pool;
  const FaultHook *Faults = nullptr;
  EnterFn Trampoline = nullptr;
  uint8_t *SharedEpilogue = nullptr;
  bool Ready = false;

  friend class FragmentCompiler;
};

/// Size of the shared spill area. 4104 (not 4096) keeps RSP 16-byte
/// aligned at in-fragment call sites given the trampoline's six pushes.
constexpr int32_t SpillAreaBytes = 4104;
constexpr int32_t MaxSpillSlots = SpillAreaBytes / 8 - 1;

} // namespace tracejit

#endif // TRACEJIT_JIT_COMPILER_X64_H

//===- compiler_x64.h - LIR -> x86-64 (the nanojit analog) --------------------===//
//
// Compiles LIR fragments to native code. A backend is bound to one
// VMContext, and everything that makes a trace's bytes small hangs off
// that:
//
//  * One shared entry trampoline saves callee-saved registers, pins the TAR
//    pointer plus TarBias in RBX (so TAR bytes 0-255 take a disp8) and the
//    context in R15, reserves a shared spill area, and tail-jumps into the
//    fragment; one shared exit epilogue unwinds and returns the
//    ExitDescriptor* (paper §6.1: traces "may be called as functions using
//    standard native calling conventions"). A LIR address inside the
//    VMContext (the §6.4 preempt flag, the nested-exit stash, the context
//    itself as a helper argument) compiles R15-relative.
//
//  * The pool floor holds, after the trampoline and epilogue, a table of
//    every address a trace can call (trace/helpers.h traceCallTargets), so
//    a helper call is `call [rip+disp32]`; a nested tree call is
//    `call rel32` to the trampoline. Anything else keeps `movabs rax;
//    call rax`.
//
//  * Register allocation is a greedy single pass over 12 GPRs (RBX, R15,
//    RSP and the RAX scratch are reserved) with the paper's spill
//    heuristic (§5.2): when no register is free, evict the
//    register-carried value whose next reference is furthest away, which
//    "frees up a register for as long as possible given a single spill".
//
//  * Each guard compiles to a test + jcc to a per-exit 4-byte stub
//    (mov al, index; jmp rel8 tail). The fragment's one tail zero-extends
//    the index, loads the ExitDescriptor* from Fragment::ExitTable and
//    jumps to the shared epilogue; stubs too far from the tail use jmp
//    rel32, and a fragment with more than 256 exits uses `mov eax, index`.
//    Every jcc/jmp to an exit is listed in ExitDescriptor::JumpSites, and
//    trace stitching rewrites each one's rel32 to enter the branch
//    fragment directly (§6.2: patch "the guard's jump"); because all code
//    lives in one pool, rel32 always reaches.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_JIT_COMPILER_X64_H
#define TRACEJIT_JIT_COMPILER_X64_H

#include <cstdint>
#include <string>
#include <vector>

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
  /// \p Ctx (borrowed, non-null) is the context every trace compiled
  /// here runs against; \p CacheBytes bounds all generated code; \p Faults
  /// (borrowed, nullable) is the engine's deterministic fault injector.
  explicit NativeBackend(VMContext *Ctx, size_t CacheBytes = 32 * 1024 * 1024,
                         const FaultHook *Faults = nullptr);

  /// False when executable memory is unavailable (hardened kernels or an
  /// injected ExecMapFail); the engine then falls back to the
  /// LIR-executor backend.
  bool valid() const { return Ready; }

  /// Compile \p F->Body into native code; fills F->NativeEntry and each
  /// exit's JumpSites. On anything but Ok the fragment is left uncompiled
  /// and the pool reservation is returned.
  CompileResult compile(Fragment *F);

  /// Run a compiled fragment on \p Tar; returns the taken exit.
  /// NativeEntry is a write-view address; this is the one place it is
  /// translated to the exec view (generated code reaches other code
  /// through view-agnostic rel32 and RIP-relative displacements).
  ExitDescriptor *enter(void *Tar, Fragment *F) {
    return Trampoline(Tar, Pool.execAddr(F->NativeEntry));
  }

  /// Whole-cache flush: discard every fragment's code, keeping only the
  /// permanent runtime stubs. Returns the bytes reclaimed. All
  /// Fragment::NativeEntry pointers into the pool are invalid afterwards;
  /// the monitor retires the fragments in the same motion.
  size_t flushCode() { return Pool.reset(); }

  /// Stitch: retarget every jump site of \p E to jump directly into
  /// \p Target (which must be compiled). Also records E->Target.
  void patchExitTo(ExitDescriptor *E, Fragment *Target);

  ExecMemPool &pool() { return Pool; }
  const ExecMemPool &pool() const { return Pool; }

  VMContext *context() const { return Ctx; }

  /// The pool slot holding \p Fn for `call [rip+disp32]`, or null when
  /// \p Fn is not in the call table.
  const uint8_t *callSlot(const void *Fn) const;

  /// The trampoline's write-view address: nested tree calls `call rel32`
  /// to it.
  const uint8_t *trampolineCode() const { return TrampolineCode; }

  /// Shared exit epilogue all exit tails jump to.
  uint8_t *sharedEpilogue() const { return SharedEpilogue; }

private:
  using EnterFn = ExitDescriptor *(*)(void *Tar, const uint8_t *Code);

  void emitRuntimeStubs();

  bool inject(FaultSite S) const {
    return Faults && *Faults && (*Faults)(S);
  }

  VMContext *Ctx;
  ExecMemPool Pool;
  const FaultHook *Faults = nullptr;
  EnterFn Trampoline = nullptr;      ///< Exec view: called from C++.
  uint8_t *TrampolineCode = nullptr; ///< Write view: target of tree calls.
  uint8_t *SharedEpilogue = nullptr;
  /// The call table: CallTable holds CallTargets (sorted) in 8-byte
  /// slots. Immutable after construction, so the compiler thread reads it
  /// freely.
  std::vector<const void *> CallTargets;
  const uint8_t *CallTable = nullptr;
  bool Ready = false;
};

/// RBX holds the TAR pointer plus this, so TAR bytes [0, 256) are all a
/// disp8 away: byte D of the TAR is [rbx + D - TarBias].
constexpr int32_t TarBias = 128;

/// Size of the shared spill area. 4104 (not 4096) keeps RSP 16-byte
/// aligned at in-fragment call sites given the trampoline's six pushes.
constexpr int32_t SpillAreaBytes = 4104;
constexpr int32_t MaxSpillSlots = SpillAreaBytes / 8 - 1;

} // namespace tracejit

#endif // TRACEJIT_JIT_COMPILER_X64_H

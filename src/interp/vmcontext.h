//===- vmcontext.h - Shared VM state ---------------------------------------===//
//
// The state shared by the interpreter, the trace engine, and the public
// Engine facade: heap, atoms, shapes, compiled scripts, the global table,
// options, statistics, and the preempt flag the paper guards at every loop
// edge (§6.4).
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_INTERP_VMCONTEXT_H
#define TRACEJIT_INTERP_VMCONTEXT_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/analysis.h"
#include "api/options.h"
#include "api/result.h"
#include "frontend/bytecode.h"
#include "support/stats.h"
#include "vm/gc.h"
#include "vm/object.h"
#include "vm/shape.h"
#include "vm/string.h"

namespace tracejit {

class TraceMonitor;
struct ExitDescriptor;

/// The global variable table. The bytecode compiler resolves global names
/// to slot indices at compile time, so the interpreter indexes an array and
/// compiled traces import globals by slot ("the trace imports local and
/// global variables by unboxing them and copying them to its activation
/// record", §3.1).
struct GlobalTable {
  std::vector<String *> Names;
  std::vector<Value> Values;
  std::unordered_map<String *, uint32_t> Index;

  uint32_t slotFor(String *Name) {
    auto It = Index.find(Name);
    if (It != Index.end())
      return It->second;
    uint32_t Slot = (uint32_t)Values.size();
    Names.push_back(Name);
    Values.push_back(Value::undefined());
    Index.emplace(Name, Slot);
    return Slot;
  }
  uint32_t size() const { return (uint32_t)Values.size(); }
};

/// Interrupt-request bits for VMContext::PreemptFlag. Any nonzero value
/// makes every compiled loop edge side-exit (the §6.4 guard tests the whole
/// word against zero, so new bits need no codegen change) and makes the
/// interpreter service the request at its next loop edge.
enum : uint32_t {
  InterruptGC = 1u << 0,        ///< The heap asked for a collection (benign).
  InterruptHost = 1u << 1,      ///< Engine::requestInterrupt: terminate the
                                ///< script as ErrorKind::Interrupted.
  InterruptDeadline = 1u << 2,  ///< A deadline expired: terminate as
                                ///< ErrorKind::Timeout.
  InterruptHeapQuota = 1u << 3, ///< Collection cannot get under
                                ///< MaxHeapBytes: terminate as OutOfMemory.
  /// The bits that terminate the script (vs. the benign GC request).
  InterruptTermination = InterruptHost | InterruptDeadline | InterruptHeapQuota,
};

struct VMContext {
  explicit VMContext(const EngineOptions &O)
      : Opts(O), Atoms(TheHeap),
        FrameReturnPcs((size_t)O.MaxFrames + O.MaxInlineDepth + 1, 0),
        RandomState(0x2545F4914F6CDD1DULL) {
    TheHeap.addRootProvider([this](Marker &M) {
      for (Value &V : Globals.Values)
        M.markValue(V);
      for (auto &S : Scripts)
        for (Value &V : S->Consts)
          M.markValue(V);
      M.markValue(LastResult);
    });
  }

  EngineOptions Opts;
  Heap TheHeap;
  AtomTable Atoms;
  ShapeTree Shapes;
  GlobalTable Globals;
  std::vector<std::unique_ptr<FunctionScript>> Scripts;
  VMStats Stats;

  /// Static analysis results, one per analyzed script (populated by the
  /// Engine after each parse when Opts.StaticAnalysis is on). Keyed by the
  /// script's address; entries live exactly as long as the script does.
  std::unordered_map<const FunctionScript *, std::unique_ptr<ScriptAnalysis>>
      Analyses;

  /// Facts for \p S, or null when analysis is off / didn't converge.
  const ScriptAnalysis *analysisOf(const FunctionScript *S) const {
    auto It = Analyses.find(S);
    if (It == Analyses.end() || !It->second->Converged)
      return nullptr;
    return It->second.get();
  }

  /// The trace monitor (trace/monitor.h); null when the JIT is off. Owned
  /// by the Engine.
  TraceMonitor *Monitor = nullptr;

  /// True exactly while the monitor has an active trace recorder. The
  /// dispatch loop reads this one flag per bytecode to decide whether to
  /// call the recording hook, so plain interpretation makes no monitor
  /// call between loop edges (§6.3 swaps the dispatch table instead; same
  /// semantics). Only the monitor writes it, in the two places that install
  /// and drop its recorder.
  bool Recording = false;

  /// The installed JIT event listener (null = observability off). Every
  /// emission site is gated on this single pointer so a disabled engine
  /// pays one predictable branch per site. Owned by the Engine (usually a
  /// JitEventMux fanning out to user and built-in listeners).
  JitEventListener *EventListener = nullptr;
  /// Timebase for JitEvent::TimeUs (engine creation).
  std::chrono::steady_clock::time_point EventEpoch =
      std::chrono::steady_clock::now();

  /// Stamp and deliver \p E. Callers check EventListener first so the
  /// disabled path constructs nothing.
  void emitEvent(JitEvent E) {
    E.TimeUs = (uint64_t)std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - EventEpoch)
                   .count();
    EventListener->onEvent(E);
  }

  /// Value of the last top-level expression statement (Op::PopResult);
  /// surfaced through EvalResult::LastValue. GC-rooted until overwritten.
  Value LastResult = Value::undefined();

  /// The interrupt-request bitmask (Interrupt* bits above), historically
  /// the GC preempt flag. Every compiled loop edge guards on it being zero
  /// (§6.4), so a raise from any thread drives hot traces back to the
  /// monitor within one iteration. Must have a stable address that
  /// generated code can embed; std::atomic<uint32_t> is layout-compatible
  /// with the plain 4-byte load traces compile in, and makes cross-thread
  /// raises (the Engine deadline timer, the ScriptServer watchdog)
  /// well-defined. This word is the one sanctioned cross-thread touch of
  /// engine state.
  std::atomic<uint32_t> PreemptFlag{0};

  /// OR interrupt-request bits into the flag. Safe from any thread; the
  /// owning thread services the request at its next safe point.
  void requestInterrupt(uint32_t Bits) {
    PreemptFlag.fetch_or(Bits, std::memory_order_release);
  }

  /// Set while a compiled trace is running. Traces call only whitelisted
  /// natives, so the interpreter never runs while it is set; the monitor
  /// asserts that at every fragment entry, and a host code-cache flush
  /// requested while it is set is deferred to the next loop edge.
  bool OnTrace = false;

  /// When a nested tree call returns through an unexpected exit, generated
  /// code stashes the inner tree's actual exit descriptor here before
  /// side-exiting the outer trace (§4.1).
  ExitDescriptor *LastNestedExit = nullptr;

  /// The trace-time call-stack area (the paper's "frame entry and exit LIR
  /// saves just enough information to allow the interpreter call stack to
  /// be restored later", §3.1). Exit descriptors record the static shape
  /// of the frame chain (scripts, bases), but return pcs depend on the
  /// call site a trace was entered from, so they travel dynamically: the
  /// monitor writes the live frames' return pcs here on trace entry, and
  /// traces store the (static) return pc of each call they inline at the
  /// frame's depth. Restores read return pcs from here. Sized in the ctor:
  /// MaxFrames interpreter frames plus MaxInlineDepth trace-inlined frames.
  std::vector<uint32_t> FrameReturnPcs;

  /// Runtime error state (we compile with -fno-exceptions style error
  /// handling: natives/interpreter set this and unwind by return values).
  bool HasError = false;
  std::string ErrorMessage;
  ErrorKind ErrorCode = ErrorKind::Runtime; ///< Kind of the pending error.
  uint32_t ErrorLine = 0;                   ///< 1-based; 0 when unknown.
  uint32_t ErrorCol = 0;

  // --- Deadline governor state (owning thread only) ---------------------------

  /// Armed by Engine::eval when EvalDeadlineMs is set. The interpreter
  /// polls the monotonic clock every DeadlinePollInterval loop edges (hot
  /// traces don't poll -- the Engine's timer thread or the server watchdog
  /// raises InterruptDeadline, and the §6.4 guard drives the trace out).
  bool DeadlineArmed = false;
  std::chrono::steady_clock::time_point DeadlineAt{};
  uint32_t DeadlinePollCountdown = 0;
  static constexpr uint32_t DeadlinePollInterval = 64;

  /// Cheap loop-edge deadline check: one decrement most edges, one clock
  /// read every DeadlinePollInterval-th.
  void pollDeadline() {
    if (!DeadlineArmed)
      return;
    if (DeadlinePollCountdown > 0) {
      --DeadlinePollCountdown;
      return;
    }
    DeadlinePollCountdown = DeadlinePollInterval;
    if (std::chrono::steady_clock::now() >= DeadlineAt)
      requestInterrupt(InterruptDeadline);
  }

  /// Where `print` output goes; tests capture it, examples print to stdout.
  std::function<void(const std::string &)> PrintHook;

  /// Deterministic Math.random state (xorshift64*).
  uint64_t RandomState;

  /// Raise a structured error; the first error wins (later raises during
  /// the unwind are dropped). Plain-message form = ErrorKind::Runtime.
  void raiseError(ErrorKind Kind, const std::string &Msg, uint32_t Line = 0,
                  uint32_t Col = 0) {
    if (!HasError) {
      HasError = true;
      ErrorCode = Kind;
      ErrorMessage = Msg;
      ErrorLine = Line;
      ErrorCol = Col;
    }
  }
  void raiseError(const std::string &Msg) {
    raiseError(ErrorKind::Runtime, Msg);
  }

  /// Reset every property inline cache in every script (vm/ic.h). Part of
  /// the whole-cache-flush contract: a flush drops all speculation state at
  /// once, and ICs are speculation state just like compiled fragments.
  void invalidateAllICs() {
    uint64_t Cleared = 0;
    for (auto &S : Scripts)
      for (PropertyIC &IC : S->ICs)
        if (IC.State != ICState::Uninit) {
          IC.reset();
          ++Cleared;
        }
    Stats.IcInvalidations += Cleared;
    if (EventListener) {
      JitEvent E;
      E.Kind = JitEventKind::IcInvalidateAll;
      E.Arg0 = Cleared;
      emitEvent(E);
    }
  }

  /// True when a heap quota is configured and allocation exceeds it.
  bool overHeapQuota() const {
    return Opts.MaxHeapBytes && TheHeap.bytesAllocated() > Opts.MaxHeapBytes;
  }

  /// Allocation-site hook: request a GC at the next safe point when the
  /// heap wants one or the quota is exceeded (collection gets first crack
  /// at freeing garbage; serviceInterrupts re-checks the quota after it
  /// runs). The HeapAllocFail fault site simulates a collection that cannot
  /// get under quota by raising the terminal bit directly.
  void maybeScheduleGC() {
    if (Opts.FaultInjector && Opts.FaultInjector(FaultSite::HeapAllocFail)) {
      requestInterrupt(InterruptHeapQuota);
      return;
    }
    if (TheHeap.wantsGC() || overHeapQuota())
      requestInterrupt(InterruptGC);
  }

  /// Service pending interrupt requests at a safe point (interpreter loop
  /// edge, trace preempt exit, or nested-call abort path). Runs the GC for
  /// benign requests; for termination requests (deadline / host / heap
  /// quota) aborts any active recording (forgiven, not blacklisted) and
  /// raises the matching structured error, leaving the engine fully
  /// reusable. Defined in vmcontext.cpp (needs TraceMonitor).
  void serviceInterrupts();
};

} // namespace tracejit

#endif // TRACEJIT_INTERP_VMCONTEXT_H

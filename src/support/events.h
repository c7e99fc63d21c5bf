//===- events.h - Structured JIT observability ------------------------------===//
//
// A typed event stream over the Figure 2 state machine. Every interesting
// transition the trace engine makes -- a loop turning hot, a recording
// starting/aborting, a tree or branch being compiled, a side exit firing,
// a loop being blacklisted -- is reported as a JitEvent to an installed
// JitEventListener. Emission is gated on a single listener-pointer branch,
// so an engine with no listener pays one predictable branch per event site
// and builds no event objects.
//
// The abort-reason taxonomy lives here too: every recorder/monitor abort
// site names an AbortReason enumerator, VMStats counts aborts per reason,
// and RecordAbort events carry the reason. Free-text abort strings are
// gone; human-readable text comes from abortReasonName().
//
// Two listeners ship built in:
//  * LogJitEventListener -- one human-readable line per event (FILE*).
//  * ChromeTraceCollector -- buffers events and writes them as Chrome
//    trace-event JSON (load in chrome://tracing or Perfetto) so a whole
//    eval can be inspected on a timeline.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_SUPPORT_EVENTS_H
#define TRACEJIT_SUPPORT_EVENTS_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace tracejit {

// clang-format off
/// Why a recording was aborted, grouped by which layer detected the
/// problem. Each row is X(Enumerator, name); the enum and
/// abortReasonName() are both generated from it.
#define TRACEJIT_ABORT_REASONS(X)                                              \
  X(None,                  "none")                                             \
  /* --- Recorder: type-speculation failures --- */                            \
  /* Read of a slot the trace never imported. */                               \
  X(UntrackedSlot,         "untracked-slot")                                   \
  /* Arithmetic (incl. negation) on non-numbers. */                            \
  X(NonNumericArith,       "non-numeric-arith")                                \
  /* `+` of a string and a non-number, non-string. */                          \
  X(MixedConcat,           "mixed-concat")                                     \
  /* Comparison operand types unsupported. */                                  \
  X(UntraceableCompare,    "untraceable-compare")                              \
  /* Bitwise op on non-numbers. */                                             \
  X(NonNumericBitop,       "non-numeric-bitop")                                \
  /* Element index is not a number. */                                         \
  X(NonNumericIndex,       "non-numeric-index")                                \
  /* --- Recorder: object-model failures --- */                                \
  /* Property read/store on a non-object. */                                   \
  X(PropOnPrimitive,       "prop-on-primitive")                                \
  /* Property store would grow the shape. */                                   \
  X(PropAddsSlot,          "prop-adds-slot")                                   \
  /* Unsupported property of a string. */                                      \
  X(UnknownStringProp,     "unknown-string-prop")                              \
  /* Element read/store on a non-array object. */                              \
  X(ElemOnNonArray,        "elem-on-non-array")                                \
  X(InitPropOnNonObject,   "initprop-on-non-object")                           \
  /* --- Recorder: call failures --- */                                        \
  /* Callee already on the virtual frame chain. */                             \
  X(RecursiveCall,         "recursive-call")                                   \
  /* Callee is not callable. */                                                \
  X(CallOfNonFunction,     "call-of-non-function")                             \
  /* Native/method with no traceable fast path. */                             \
  X(UntraceableNative,     "untraceable-native")                               \
  /* Method call on an unsupported receiver. */                                \
  X(UnsupportedReceiver,   "unsupported-receiver")                             \
  /* Return would pop below the trace entry frame. */                          \
  X(ReturnBelowEntryFrame, "return-below-entry-frame")                         \
  /* --- Recorder: structural limits --- */                                    \
  /* MaxTraceLength (trace/recorder.cpp) exceeded. */                          \
  X(TraceTooLong,          "trace-too-long")                                   \
  /* Opcode with no recording routine / corrupt code. */                       \
  X(UnsupportedBytecode,   "unsupported-bytecode")                             \
  /* A root left its loop at the loop's test: the trunk would only exit. */    \
  /* Never a failure, and bounded (TierPolicy::discardsExitOnly). */           \
  X(ExitOnlyCrossing,      "exit-only-crossing")                               \
  /* --- Monitor-level aborts --- */                                           \
  /* Hit an inner loop header with nesting off. */                             \
  X(NestingDisabled,       "nesting-disabled")                                 \
  /* Inner tree not yet compiled (§4.2, forgiven). */                          \
  X(InnerTreeNotReady,     "inner-tree-not-ready")                             \
  /* Inner tree side-exited mid-call (forgiven). */                            \
  X(InnerTreeSideExit,     "inner-tree-side-exit")                             \
  /* Preempt flag fired during a nested tree call. */                          \
  X(PreemptedInInnerCall,  "preempted-in-inner-call")                          \
  /* Interpreter dispatch returned while recording. */                         \
  X(DispatchUnwound,       "dispatch-unwound")                                 \
  /* --- Backend compile failures (code-cache lifecycle governance) --- */     \
  /* The code cache could not satisfy the reservation. */                      \
  X(CompilePoolExhausted,  "compile-pool-exhausted")                           \
  /* Emitted code overflowed the assembler estimate. */                        \
  X(CompileOverflow,       "compile-overflow")                                 \
  /* LIR the backend cannot compile (opcode/spills). */                        \
  X(CompileUnsupported,    "compile-unsupported")                              \
  /* Injected CompileFail. */                                                  \
  X(CompileFault,          "compile-fault")                                    \
  /* Off-thread compile queue at capacity (backpressure); the recording */     \
  /* is dropped with the usual backoff. */                                     \
  X(CompileQueueFull,      "compile-queue-full")                               \
  /* --- LIR verifier (lir/verify.h) --- */                                    \
  /* The verifier rejected the trace; the failed rule is counted in */         \
  /* VMStats::VerifyFailuresByRule. */                                         \
  X(VerifyFailed,          "verify-failed")                                    \
  /* --- Resource governance --- */                                            \
  /* The script was terminated (deadline / host interrupt / heap quota) */     \
  /* while recording; the recording is discarded without blacklisting. */     \
  X(Interrupted,           "interrupted")
// clang-format on

enum class AbortReason : uint8_t {
#define TRACEJIT_ENUMERATOR(Name, Str) Name,
  TRACEJIT_ABORT_REASONS(TRACEJIT_ENUMERATOR)
  NumReasons
};

const char *abortReasonName(AbortReason R);

// clang-format off
/// Invariant catalogue of the LIR verifier (src/lir/verify.h). Each rule is
/// one mechanically checkable clause of the paper's correctness story:
/// straight-line SSA LIR (§3.1), typed guards with exit maps (§2, §4), and
/// filter pipelines that preserve both (§5.1). Each row is
/// X(Enumerator, name); the enum and verifyRuleName() are generated from it.
#define TRACEJIT_VERIFY_RULES(X)                                               \
  X(None,              "none")                                                 \
  /* A required operand slot is null. */                                       \
  X(MissingOperand,    "missing-operand")                                      \
  /* Operand defined later than its use (SSA order). */                        \
  X(UseBeforeDef,      "use-before-def")                                       \
  /* Operand is not in the trace body (e.g. DCE victim). */                    \
  X(DanglingOperand,   "dangling-operand")                                     \
  /* Operand type does not match the op signature. */                          \
  X(OperandType,       "operand-type")                                         \
  /* Instruction result type disagrees with the opcode. */                     \
  X(ResultType,        "result-type")                                          \
  /* Call arity/argument types disagree with CallInfo. */                      \
  X(CallSignature,     "call-signature")                                       \
  /* Guard/overflow/exit op lacks an ExitDescriptor. */                        \
  X(GuardWithoutExit,  "guard-without-exit")                                   \
  /* 64-bit shift count is not an ImmI. */                                     \
  X(ShiftCountNotImm,  "shift-count-not-imm")                                  \
  /* TAR access disp negative, unaligned, or outside the fragment's slot */    \
  /* domain. */                                                                \
  X(TarAddressing,     "tar-addressing")                                       \
  /* Exit type map length != NumGlobals + Sp. */                               \
  X(ExitTypeMapLength, "exit-type-map-length")                                 \
  /* Exit Sp/frame chain inconsistent (bases, pcs). */                         \
  X(ExitFrameBounds,   "exit-frame-bounds")                                    \
  /* Exit-constant slot unsorted, outside the stack above the tree's */        \
  /* entry Sp, or not a typed word. */                                         \
  X(ExitConstSlots,    "exit-const-slots")                                     \
  /* TreeCall/JmpFrag target linkage broken. */                                \
  X(TransferTarget,    "transfer-target")                                      \
  /* Call-site and inner-entry type maps disagree. */                          \
  X(TreeCallTypeMaps,  "tree-call-type-maps")                                  \
  /* Trace does not end in exactly one terminator. */                          \
  X(Terminator,        "terminator")                                           \
  /* PrologueEnd out of range, or a prologue on a fragment that does not */    \
  /* end in Loop. */                                                           \
  X(PrologueShape,     "prologue-shape")                                       \
  /* Prologue contains a side effect (store, impure call, TreeCall, Exit, */   \
  /* JmpFrag) -- entry deopt would not be transparent. */                      \
  X(PrologueEffect,    "prologue-effect")                                      \
  /* A hoisted guard's exit is not the fragment's entry-state Deopt exit. */   \
  X(PrologueExit,      "prologue-exit")                                        \
  /* A TAR read (load, exit write-back, fragment transfer) of a slot */        \
  /* holding no typed value there: Boxed at entry and not stored since. */     \
  X(UntypedTarSlot,    "untyped-tar-slot")                                     \
  /* A load/store names no single location class, or one its base */          \
  /* contradicts (lir.h, Acc). */                                              \
  X(AccessClass,       "access-class")
// clang-format on

enum class VerifyRule : uint8_t {
  TRACEJIT_VERIFY_RULES(TRACEJIT_ENUMERATOR)
  NumRules
};

const char *verifyRuleName(VerifyRule R);

// clang-format off
/// What happened. Each row is X(Enumerator, name); the enum and
/// jitEventKindName() are both generated from it.
#define TRACEJIT_JIT_EVENT_KINDS(X)                                            \
  /* A loop header crossed the hot threshold. */                               \
  X(LoopHot,           "LoopHot")                                              \
  /* The recorder attached at a loop header / side exit. */                    \
  X(RecordStart,       "RecordStart")                                          \
  /* Recording aborted; Reason says why. */                                    \
  X(RecordAbort,       "RecordAbort")                                          \
  /* A root trace finished compiling. */                                       \
  X(TreeCompiled,      "TreeCompiled")                                         \
  /* A branch trace finished compiling. */                                     \
  X(BranchCompiled,    "BranchCompiled")                                       \
  /* A compiled trace exited through a guard. */                               \
  X(SideExit,          "SideExit")                                             \
  /* A loop header was blacklisted (§3.3). */                                  \
  X(Blacklisted,       "Blacklisted")                                          \
  /* An outer recording called into an inner tree (§4.1). */                   \
  X(TreeCall,          "TreeCall")                                             \
  /* A side exit was patched to jump to a trace (§6.2). */                     \
  X(StitchedTransfer,  "StitchedTransfer")                                     \
  /* The heap was collected at a safe point. */                                \
  X(GC,                "GC")                                                   \
  /* Whole code cache flushed; Arg0 = new generation, Arg1 = native */         \
  /* bytes reclaimed. */                                                       \
  X(CacheFlush,        "CacheFlush")                                           \
  /* One fragment retired by a flush; Arg0 = its native bytes, Arg1 = its */   \
  /* generation. */                                                            \
  X(FragmentRetired,   "FragmentRetired")                                      \
  /* Kill switch: too many flushes in one eval; the engine is */               \
  /* interpreter-only from here. Arg0 = flush count that tripped it. */        \
  X(JitDisabled,       "JitDisabled")                                          \
  /* Native backend unavailable at startup (mmap denied or injected); the */   \
  /* LIR executor serves instead. */                                           \
  X(BackendFallback,   "BackendFallback")                                      \
  /* A property IC changed state (vm/ic.h ladder). Arg0 = new ICState raw */   \
  /* value, Arg1 = entry count. */                                             \
  X(IcTransition,      "IcTransition")                                         \
  /* Every property IC was reset (cache flush). Arg0 = ICs that were */        \
  /* non-empty. */                                                             \
  X(IcInvalidateAll,   "IcInvalidateAll")                                      \
  /* A recording was handed to the background compiler (OffThreadCompile). */  \
  /* Arg0 = jobs now pending. */                                               \
  X(CompileJobQueued,  "CompileJobQueued")                                     \
  /* A finished/queued compile job was discarded instead of published */       \
  /* (stale generation, flush, shutdown). Arg0 = job generation, Arg1 = */     \
  /* current generation. */                                                    \
  X(CompileJobDropped, "CompileJobDropped")                                    \
  /* A governor terminated the running script at a safe point. Arg0 = the */   \
  /* interrupt bits that were pending, Arg1 = the resulting ErrorKind raw */   \
  /* value. */                                                                 \
  X(ScriptInterrupted, "ScriptInterrupted")                                    \
  /* A serving worker destroyed and rebuilt its Engine (after OOM or too */    \
  /* many consecutive failures). Arg0 = worker index, Arg1 = consecutive */    \
  /* failures. */                                                              \
  X(EngineRecycled,    "EngineRecycled")                                       \
  /* The static analyzer processed a parsed script (analysis/analysis.h). */   \
  /* Arg0 = published fact count. */                                           \
  X(AnalysisRan,       "AnalysisRan")
// clang-format on

enum class JitEventKind : uint8_t {
  TRACEJIT_JIT_EVENT_KINDS(TRACEJIT_ENUMERATOR)
#undef TRACEJIT_ENUMERATOR
  NumKinds
};

const char *jitEventKindName(JitEventKind K);

/// One event. Fixed-size POD so emission never allocates; fields that do
/// not apply to a kind are left at their defaults.
struct JitEvent {
  JitEventKind Kind = JitEventKind::LoopHot;
  AbortReason Reason = AbortReason::None; ///< RecordAbort.
  uint8_t ExitKindRaw = 0;  ///< SideExit: the ExitKind, as its raw value.
  uint64_t TimeUs = 0;      ///< Microseconds since engine creation.
  uint32_t FragmentId = ~0u;///< Fragment involved, if any.
  uint32_t ScriptId = ~0u;  ///< Script of the loop header, if any.
  uint32_t Pc = 0;          ///< Loop header / resume pc, if any.
  uint32_t ExitId = ~0u;    ///< SideExit: guard (exit descriptor) id.
  /// Kind-specific payload:
  ///  TreeCompiled/BranchCompiled: Arg0 = final LIR size, Arg1 = native
  ///  code bytes (0 for the executor backend). SideExit: Arg0 = cumulative
  ///  hits of this guard. StitchedTransfer: Arg0 = target fragment id,
  ///  Arg1 = 1 for an unstable-peer link. LoopHot: Arg0 = hit count.
  ///  GC: Arg0 = collections so far. TreeCall: Arg0 = outer fragment id.
  uint64_t Arg0 = 0;
  uint64_t Arg1 = 0;
};

/// The listener interface. Implementations must not re-enter the engine
/// (no eval, no stats mutation) from onEvent; they run synchronously on
/// the VM's hot path.
class JitEventListener {
public:
  virtual ~JitEventListener() = default;
  virtual void onEvent(const JitEvent &E) = 0;
};

/// Fan-out to any number of listeners. The engine installs this as the
/// context's single listener slot when more than zero sinks are attached,
/// keeping the disabled path a null-pointer check.
class JitEventMux final : public JitEventListener {
public:
  void add(JitEventListener *L);
  bool remove(JitEventListener *L);
  bool empty() const { return Sinks.empty(); }
  void onEvent(const JitEvent &E) override;

private:
  std::vector<JitEventListener *> Sinks;
};

/// Human-readable log: one line per event, e.g.
///   [jit +001234us] record-abort frag=3 script=0 pc=42 reason=trace-too-long
class LogJitEventListener final : public JitEventListener {
public:
  explicit LogJitEventListener(FILE *Out = stderr) : Out(Out) {}
  void onEvent(const JitEvent &E) override;

  /// Render one event as the log line body (no trailing newline); exposed
  /// for tests and custom sinks.
  static std::string format(const JitEvent &E);

private:
  FILE *Out;
};

/// Buffers the event stream and renders it in the Chrome trace-event JSON
/// format (the `{"traceEvents": [...]}` object form). Recording sessions
/// become B/E duration slices named after the fragment; everything else is
/// an instant event. Load the file in chrome://tracing or ui.perfetto.dev.
class ChromeTraceCollector final : public JitEventListener {
public:
  void onEvent(const JitEvent &E) override { Events.push_back(E); }

  const std::vector<JitEvent> &events() const { return Events; }
  void clear() { Events.clear(); }

  /// Render the buffered stream as JSON.
  std::string renderJson() const;
  /// Write renderJson() to \p Path. Returns false on I/O failure.
  bool writeJson(const std::string &Path) const;

private:
  std::vector<JitEvent> Events;
};

// --- Per-fragment telemetry ---------------------------------------------------
//
// Snapshots of the trace cache's per-fragment counters, exposed through
// Engine::fragmentProfiles(). Plain value types: safe to hold after the
// engine mutates or discards the underlying fragments.

/// One guard of a fragment and how often it fired.
struct GuardProfile {
  uint32_t ExitId = 0;
  uint8_t ExitKindRaw = 0;        ///< ExitKind as its raw value.
  const char *ExitKindName = "?"; ///< Static string; never dangles.
  uint32_t Pc = 0;                ///< Interpreter resume pc.
  uint64_t Hits = 0;              ///< Times this guard side-exited.
  bool Stitched = false;          ///< A branch trace is attached here.
};

/// Telemetry for one compiled (or attempted) fragment.
struct FragmentProfile {
  uint32_t Id = 0;
  uint32_t Generation = 0;      ///< Code-cache generation it was born in.
  bool IsRoot = true;           ///< Root tree trunk vs. branch trace.
  uint32_t ScriptId = ~0u;      ///< Anchor script.
  uint32_t AnchorPc = 0;        ///< Loop header pc (root) / exit pc (branch).
  uint64_t Enters = 0;          ///< Monitor-mediated entries (trampoline).
  uint64_t Iterations = 0;      ///< Loop passes (CollectStats builds only).
  uint32_t BytecodesCovered = 0;///< Bytecodes one pass covers (Fig. 11).
  uint32_t LirRecorded = 0;     ///< LIR instructions as recorded.
  uint32_t LirAfterFilters = 0; ///< After the backward filter pipeline.
  uint32_t NativeBytes = 0;     ///< 0 for the executor backend.
  /// Typed (non-Boxed) slots of the entry type map: how many slots the
  /// fragment specializes on (0 for an aborted recording). Two roots at one
  /// anchor that agree on every slot both type would be one tree.
  uint32_t EntrySlots = 0;
  std::vector<GuardProfile> Guards; ///< Per-guard side-exit histogram.
};

} // namespace tracejit

#endif // TRACEJIT_SUPPORT_EVENTS_H

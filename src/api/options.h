//===- options.h - Engine configuration ------------------------------------===//
//
// Every tunable the paper names is exposed here with the paper's default:
// hot-loop threshold 2 (§3.2 "Starting a tree"), blacklist backoff 32 and
// attempt limit 2 (§3.3), plus switches used by the ablation benchmarks.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_API_OPTIONS_H
#define TRACEJIT_API_OPTIONS_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace tracejit {

class CompileService;

/// Which backend compiles/executes LIR fragments.
enum class Backend : uint8_t {
  Native,   ///< x86-64 machine code (the nanojit analog).
  Executor, ///< Portable LIR interpreter; reference semantics.
};

/// The engine's one compiled tier. perfbench's host fingerprint reads
/// tierModeName(EngineOptions::Tier), so both stay.
enum class TierMode : uint8_t { Trace };

const char *tierModeName(TierMode M);

/// Failure sites the deterministic fault injector can trigger. Each site
/// corresponds to one real-world failure mode of the code-cache lifecycle
/// or the heap-quota governor.
enum class FaultSite : uint8_t {
  ExecMapFail,   ///< mmap of the executable pool fails (hardened kernels).
  ExecAllocFail, ///< A code-cache reservation cannot be satisfied.
  ProtectFail,   ///< mprotect W^X flip fails.
  CompileFail,   ///< The backend fails to compile a fragment.
  HeapAllocFail, ///< An allocation site acts as if collection could not get
                 ///< the heap under quota: the HeapQuota interrupt is raised
                 ///< and the script terminates as OutOfMemory.
  VerifyFail,    ///< The whole-trace LIR verifier rejects a finished
                 ///< recording (AbortReason::VerifyFailed).
};

const char *faultSiteName(FaultSite S);

/// Deterministic fault-injection hook: return true to force the named
/// failure path. Stateful callbacks (fail the Nth allocation, fail once)
/// are the caller's business; the engine only asks. Empty = no injection.
using FaultHook = std::function<bool(FaultSite)>;

/// Default for EngineOptions::VerifyLir: always-on wherever assertions are
/// live (this project strips NDEBUG from optimized builds, so that includes
/// the default RelWithDebInfo tier) or a sanitizer is active; opt-in in
/// true Release (-DNDEBUG) builds, where speculation bugs are instead
/// caught by guards at runtime.
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__)
#define TRACEJIT_VERIFY_LIR_DEFAULT true
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define TRACEJIT_VERIFY_LIR_DEFAULT true
#else
#define TRACEJIT_VERIFY_LIR_DEFAULT false
#endif
#else
#define TRACEJIT_VERIFY_LIR_DEFAULT false
#endif

/// Default for EngineOptions::EnableIC. CMake exposes it as the cache
/// variable TRACEJIT_IC_DEFAULT so the CI fallback leg can build a tree
/// whose engines run IC-less unless a test opts back in.
#if !defined(TRACEJIT_IC_DEFAULT)
#define TRACEJIT_IC_DEFAULT 1
#endif

/// One named stage of the LIR optimization pipeline: the paper's §5.1
/// forward/backward filters plus the loop-optimizer passes (lir/opt.h).
/// The enum is a registry, not an order -- execution order is fixed by the
/// pipeline (forward filters stream during recording; trace passes run in
/// optimizeTrace(): DeadStore, Dce, GuardElim, IndVar, Hoist, Dce).
enum class OptPass : uint8_t {
  ExprSimp,  ///< Forward: constant folding + algebraic identities.
  Cse,       ///< Forward: common subexpression elimination.
  DeadStore, ///< Backward: dead data-stack / call-stack store elim.
  Dce,       ///< Backward: dead code elimination.
  GuardElim, ///< Trace: dominating-guard elimination (GVN with memory
             ///< generations; drops re-checks of already-guarded facts).
  IndVar,    ///< Trace: induction-variable recognition; folds per-iteration
             ///< overflow checks under dominating range guards.
  Hoist,     ///< Trace: loop-invariant code + guard hoisting into a
             ///< once-per-entry prologue region (LuaJIT-style).
  NumPasses
};

const char *optPassName(OptPass P);
/// Parse a pass name ("cse", "guardelim", ...); false when unknown.
bool parseOptPass(std::string_view Name, OptPass &Out);

/// The set of enabled passes. Construct from an -O level and adjust with
/// add/remove (the `--jit-opt=[+|-]pass,...` surface); the pipeline itself
/// decides ordering. Level 0 is exactly the paper's §5.1 filter set (the
/// pre-optimizer default, bit-for-bit); 1 adds guard elimination; 2 adds
/// the loop passes.
class OptPipeline {
public:
  constexpr OptPipeline() = default; ///< Empty: no passes at all.

  static constexpr OptPipeline level(uint32_t OLevel) {
    uint32_t B = bit(OptPass::ExprSimp) | bit(OptPass::Cse) |
                 bit(OptPass::DeadStore) | bit(OptPass::Dce);
    if (OLevel >= 1)
      B |= bit(OptPass::GuardElim);
    if (OLevel >= 2)
      B |= bit(OptPass::IndVar) | bit(OptPass::Hoist);
    return OptPipeline(B);
  }
  static constexpr OptPipeline all() {
    return OptPipeline((1u << (uint32_t)OptPass::NumPasses) - 1);
  }

  constexpr bool has(OptPass P) const { return (Bits & bit(P)) != 0; }
  constexpr OptPipeline &add(OptPass P) {
    Bits |= bit(P);
    return *this;
  }
  constexpr OptPipeline &remove(OptPass P) {
    Bits &= ~bit(P);
    return *this;
  }
  constexpr bool empty() const { return Bits == 0; }
  constexpr bool operator==(const OptPipeline &O) const {
    return Bits == O.Bits;
  }
  constexpr bool operator!=(const OptPipeline &O) const {
    return Bits != O.Bits;
  }

  /// Comma-separated enabled pass names ("exprsimp,cse,..."), or "none".
  std::string describe() const;

private:
  explicit constexpr OptPipeline(uint32_t B) : Bits(B) {}
  static constexpr uint32_t bit(OptPass P) { return 1u << (uint32_t)P; }
  uint32_t Bits = 0;
};

struct EngineOptions {
  /// Master switch; off = pure interpreter (the Figure 10 baseline).
  bool EnableJit = true;

  Backend JitBackend = Backend::Native;

  /// Iterations before a loop header becomes hot ("2 in the current
  /// implementation", §3.2).
  uint32_t HotLoopThreshold = 2;

  /// Side-exit executions before a branch trace is recorded (§3.2
  /// "Extending a tree").
  uint32_t HotExitThreshold = 2;

  /// Passes skipped after a failed recording ("32 in our implementation").
  uint32_t BlacklistBackoff = 32;

  /// Failures before a loop header is blacklisted for good ("2 in our
  /// implementation").
  uint32_t MaxRecordingFailures = 2;

  /// §4: nested trace trees. Off = abort any trace that reaches an inner
  /// loop header (the "give up on outer loops" strawman).
  bool EnableNesting = true;

  /// §6.2: patch hot side exits to jump directly to branch traces.
  /// Off = every transfer goes through the monitor.
  bool EnableStitching = true;

  /// §3.3: blacklisting (trace/tier.h). A loop whose root recording fails
  /// MaxRecordingFailures times goes back to the interpreter for good.
  /// Off keeps re-recording after each backoff -- the pathological
  /// re-record loop bench/ablation_blacklist measures.
  bool EnableBlacklisting = true;

  /// Tracing is the engine's only compiled tier. perfbench's host
  /// fingerprint reads this, so it stays as a constant.
  static constexpr TierMode Tier = TierMode::Trace;

  /// §6.4: guard the preempt/GC flag at every loop edge.
  bool EnablePreemptGuard = true;

  /// Enabled LIR optimization passes. Defaults to the full -O2 pipeline;
  /// OptPipeline::level(0) restores the pre-optimizer §5.1 filter set
  /// bit-for-bit. Adjust via "-O0/-O1/-O2" or "--jit-opt=[+|-]pass,...".
  OptPipeline Passes = OptPipeline::level(2);

  /// Hoisted-guard failures at tree entry (ExitKind::Deopt through the
  /// fragment's entry exit) tolerated before the monitor permanently stops
  /// entering that fragment; the loop then re-records against the current
  /// shapes. Guards against enter/deopt thrash when an invariant the
  /// prologue checks (e.g. an object's shape) has changed for good.
  uint32_t EntryDeoptLimit = 8;

  /// §3.2: consult/maintain the oracle for int->double demotion.
  bool EnableOracle = true;

  /// Abort recording beyond this many LIR instructions.
  uint32_t MaxTraceLength = 16384;

  /// Abort recording beyond this scripted-call inline depth.
  uint32_t MaxInlineDepth = 8;

  /// Collect Figure 11 counters (adds a counter increment per fragment
  /// entry and per interpreted bytecode).
  bool CollectStats = false;

  /// Diagnostics: dump recorded LIR / filtered LIR / native code sizes.
  bool DumpLIR = false;
  bool DumpAssembly = false;

  /// LIR verifier (lir/verify.h): a streaming VerifyWriter at the head of
  /// the forward filter pipeline plus a whole-trace pass after the backward
  /// filters, enforcing the straight-line-SSA/type/guard/exit-map
  /// invariants the paper's correctness story rests on. A verifier hit
  /// aborts the recording (AbortReason::VerifyFailed) and blacklists
  /// instead of compiling garbage. On by default in assertion-enabled and
  /// sanitizer builds; opt-in under -DNDEBUG.
  bool VerifyLir = TRACEJIT_VERIFY_LIR_DEFAULT;

  /// Observability: install the built-in stderr log listener (one line per
  /// JIT event; see support/events.h).
  bool LogJitEvents = false;

  /// Observability: buffer the JIT event stream so
  /// Engine::exportTraceEvents() can write Chrome trace-event JSON.
  bool CaptureTraceEvents = false;

  // --- Code-cache lifecycle governance --------------------------------------

  /// Size of the executable code cache (native backend). One contiguous
  /// mapping keeps every fragment within rel32 range for stitching (§6.2);
  /// when a reservation cannot be satisfied the monitor flushes the whole
  /// cache and re-enters monitoring cold.
  size_t CodeCacheBytes = 32 * 1024 * 1024;

  /// Whole-cache flushes tolerated within one eval before the kill switch
  /// permanently disables the JIT for this engine, falling back to the pure
  /// interpreter (the Figure 10 baseline). Guards against flush thrash when
  /// the working set of hot traces can never fit in CodeCacheBytes.
  uint32_t MaxCacheFlushes = 8;

  /// Deterministic fault injection for the code-cache lifecycle; see
  /// FaultSite. Tests use this to force every failure path (map, alloc,
  /// protect, compile) without real memory pressure.
  FaultHook FaultInjector;

  // --- Off-thread compilation (jit/compile_queue.h) ---------------------------

  /// Compile completed traces on a background thread instead of inline at
  /// the loop edge. The interpreter keeps running unjitted until the
  /// fragment is published back at a later loop edge; stale results
  /// (flush, shutdown) are dropped by cache generation. Off (the default)
  /// is bit-for-bit the paper's single-threaded pipeline. Native backend
  /// only; the executor backend ignores this.
  bool OffThreadCompile = false;

  /// Bound on unfinished compile jobs one engine may have in flight
  /// (queued + compiling). At the bound, finished recordings are dropped
  /// with the usual abort backoff (AbortReason::CompileQueueFull) rather
  /// than queued -- backpressure, not an unbounded buffer.
  uint32_t CompileQueueDepth = 8;

  /// Share an external compiler thread instead of spawning one per engine
  /// (the serving harness runs N contexts against one CompileService).
  /// Borrowed; must outlive the engine. Null + OffThreadCompile = the
  /// engine owns a private service.
  CompileService *SharedCompileService = nullptr;

  // --- Interpreter hot path ---------------------------------------------------

  /// Per-site property inline caches (vm/ic.h): GetProp/SetProp probe a
  /// mono/poly shape cache before the dictionary lookup, and the trace
  /// recorder reuses the cached shape+slot when emitting guards. Off
  /// reproduces the seed interpreter's lookup path bit-for-bit.
  bool EnableIC = TRACEJIT_IC_DEFAULT != 0;

  // --- Resource governance ----------------------------------------------------

  /// Wall-clock budget for one Engine::eval, in milliseconds; 0 = no
  /// deadline. Enforced cooperatively: the interpreter polls a monotonic
  /// clock every few loop edges and hot traces reach the same check through
  /// their §6.4 preempt guard, so an expired deadline terminates the script
  /// as ErrorKind::Timeout at the next safe point. The engine stays fully
  /// reusable afterwards (heap, trace cache, and ICs intact).
  uint64_t EvalDeadlineMs = 0;

  /// Heap quota, in bytes; 0 = unlimited. When live allocation stays above
  /// the quota even after a collection, the script terminates as
  /// ErrorKind::OutOfMemory instead of growing without bound.
  size_t MaxHeapBytes = 0;

  /// Interpreter call-frame limit; exceeding it raises a structured
  /// ErrorKind::StackOverflow ("too much recursion").
  uint32_t MaxFrames = 2048;

  // --- Static analysis (analysis/analysis.h) ----------------------------------

  /// Run the bytecode abstract interpreter on every parsed script and let
  /// its facts seed the oracle and elide recorder guards. Off restores the
  /// dynamic-only pipeline bit-for-bit ("--no-static-types").
  bool StaticAnalysis = true;

  /// Lint mode ("--analyze"): parse + static analysis only, no execution.
  /// Consumed by the repl; Engine::analyze() is the API surface.
  bool AnalyzeOnly = false;

  /// Testing: at every interpreted loop header, cross-check live slot
  /// types against the static header facts (StaticFactChecks /
  /// StaticFactContradictions counters). The differential fuzz suite runs
  /// with this on and asserts zero contradictions.
  bool ValidateStaticFacts = false;

  /// Apply one command-line style flag ("--ic", "--no-jit", ...) to this
  /// options struct. The single source of truth for engine flags: the repl
  /// and the bench harness both parse through it. Returns false when the
  /// flag is not recognized.
  bool applyFlag(std::string_view Flag);
};

} // namespace tracejit

#endif // TRACEJIT_API_OPTIONS_H

//===- engine.h - Public embedding API --------------------------------------===//
//
// The tracejit public API: create an Engine, eval MiniJS source, observe
// results through globals/print, and inspect the JIT through statistics,
// per-fragment telemetry, and a structured event stream. One Engine is one
// VM: heap, globals, trace cache.
//
// Example:
//   tracejit::EngineOptions Opts;
//   tracejit::Engine E(Opts);
//   E.setPrintHook([](const std::string &S) { std::cout << S; });
//   auto R = E.eval("var t = 0; for (var i = 0; i < 1e6; ++i) t += i; t;");
//   if (!R.ok()) std::cerr << R.Err.describe() << "\n";
//   else         std::cout << R.LastValue.asNumber() << "\n";
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_API_ENGINE_H
#define TRACEJIT_API_ENGINE_H

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/options.h"
#include "api/result.h"
#include "interp/interpreter.h"
#include "interp/vmcontext.h"
#include "support/events.h"
#include "trace/tier.h"

namespace tracejit {

class TraceMonitor;

class Engine {
public:
  explicit Engine(const EngineOptions &Opts = EngineOptions());
  ~Engine();
  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Compile and run a program. Lex/parse/runtime errors are reported in
  /// the result (with line/column where known); the engine stays usable
  /// afterwards. On success, EvalResult::LastValue is the value of the
  /// program's last top-level expression statement.
  EvalResult eval(std::string_view Source);

  /// Same, but errors carry \p FileName so EngineError::describe() renders
  /// "file:line:col" diagnostics (what the repl uses for script files).
  EvalResult eval(std::string_view Source, std::string_view FileName);

  /// Result of Engine::analyze: parse + static analysis, no execution.
  struct AnalysisReport {
    bool Ok = false;    ///< False = parse error (Err is filled in).
    EngineError Err;
    /// Lint findings across every script of the source, ordered by
    /// line/column. See analysis/analysis.h for the diagnostic taxonomy.
    std::vector<AnalysisDiagnostic> Diagnostics;
  };

  /// Lint mode (the repl's `--analyze`): compile \p Source and run the
  /// bytecode abstract interpreter over every script in it, returning the
  /// diagnostics instead of executing. Runs even when
  /// EngineOptions::StaticAnalysis is off (the flag gates the *pipeline*
  /// consumers, not the explicit request). The compiled scripts stay in
  /// the context, so a later eval of the same source reuses their facts.
  AnalysisReport analyze(std::string_view Source,
                         std::string_view FileName = {});

  /// Where `print` output goes (default: stdout).
  void setPrintHook(std::function<void(const std::string &)> Hook);

  /// Read a global by name (undefined if absent); handy in tests/examples.
  Value getGlobal(std::string_view Name);
  /// Define/overwrite a numeric global.
  void setGlobalNumber(std::string_view Name, double V);
  /// Register a host function as a global (classic boxed FFI, §6.5).
  void registerNative(std::string_view Name, NativeFn Fn);

  /// Snapshot of the VM statistics (trace-monitor counters synced first).
  /// Returned by value: the snapshot stays frozen as the engine runs on.
  VMStats stats() const;

  const EngineOptions &options() const { return Ctx.Opts; }

  // --- Observability ---------------------------------------------------------

  /// Attach/detach a listener for the structured JIT event stream. The
  /// listener is borrowed, not owned, and runs synchronously on the VM's
  /// hot path; with no listeners attached each event site costs one
  /// predictable branch.
  void addEventListener(JitEventListener *L);
  void removeEventListener(JitEventListener *L);

  /// Per-fragment telemetry snapshot for every fragment in the trace
  /// cache: enters, iterations, per-guard side-exit histogram, LIR sizes
  /// before/after filters, native code bytes. Empty when the JIT is off.
  std::vector<FragmentProfile> fragmentProfiles() const;

  /// Current compilation tier (trace/tier.h) of loop \p LoopId of the
  /// script with id \p ScriptId -- Interpreter once blacklisted (§3.3),
  /// else Trace (also for loops the monitor has never seen). With the JIT
  /// disabled everything reports Tier::Interpreter.
  Tier tierOf(uint32_t ScriptId, uint16_t LoopId) const;

  /// Write the event stream recorded so far as Chrome trace-event JSON
  /// (chrome://tracing, ui.perfetto.dev). Requires
  /// EngineOptions::CaptureTraceEvents; returns false when capture is off
  /// or the file cannot be written.
  bool exportTraceEvents(const std::string &Path) const;

  /// Raise the benign GC-request bit, as the heap does under pressure; the
  /// next loop edge -- interpreted or native -- services it (§6.4) and the
  /// script continues. Kept for tests/hosts that want to force a safe-point
  /// visit without terminating anything.
  void requestPreempt() { Ctx.requestInterrupt(InterruptGC); }

  /// Cooperatively terminate the running script: raises the HostInterrupt
  /// bit, which the next safe point (interpreter loop edge or trace preempt
  /// exit) turns into ErrorKind::Interrupted. Safe to call from any thread;
  /// the engine stays fully reusable afterwards. A no-op if nothing is
  /// running by the time the bit would be serviced (eval clears stale
  /// termination bits on entry).
  void requestInterrupt() { Ctx.requestInterrupt(InterruptHost); }

  // --- Code-cache lifecycle ---------------------------------------------------

  /// Request a whole-code-cache flush: retire every compiled trace, reset
  /// the executable pool, bump the cache generation, and re-enter
  /// monitoring cold. Deferred (not dropped) while a trace is on the
  /// native stack or a recording is active; it then runs at the next safe
  /// loop edge. No-op when the JIT is off or kill-switched.
  void flushCodeCache();

  /// Monotonic code-cache generation; bumped by every completed flush.
  uint32_t cacheGeneration() const;

  /// True once the kill switch (EngineOptions::MaxCacheFlushes exceeded in
  /// one eval) permanently disabled the JIT; the engine keeps evaluating
  /// correctly on the interpreter.
  bool jitDisabled() const;

  /// Executable-pool occupancy in bytes (0 with the executor backend or
  /// the JIT off); capacity reflects EngineOptions::CodeCacheBytes rounded
  /// to a page.
  size_t codeCacheUsed() const;
  size_t codeCacheCapacity() const;

  // --- Off-thread compilation (EngineOptions::OffThreadCompile) ---------------

  /// Compile jobs submitted to the background compiler but not yet
  /// published or dropped (always 0 with off-thread compile off).
  uint32_t pendingCompileJobs() const;

  /// Publish/drop any compile jobs the background compiler has finished.
  /// Loop edges do this automatically; hosts serving many short scripts
  /// call it between requests so results land promptly.
  void pumpCompileQueue();

  /// Block until the background compiler has drained every submitted job,
  /// then publish the results. Deterministic settling point for tests,
  /// benchmarks, and graceful shutdown.
  void waitForCompileQueue();

  /// Internal access for tests and benchmarks.
  VMContext &context() { return Ctx; }
  Interpreter &interpreter() { return *Interp; }

private:
  /// Point Ctx.EventListener at the mux, or null when no sinks remain, so
  /// the disabled path stays a single null check.
  void refreshListenerGate();

  /// Run the static analyzer over Ctx.Scripts[FirstScript..): cache the
  /// results, seed the oracle (demotions, megamorphic sites), and emit one
  /// AnalysisRan event per script.
  void analyzeNewScripts(size_t FirstScript);

  // Deadline timer thread (EvalDeadlineMs): spawned lazily on the first
  // deadline-armed eval, it raises InterruptDeadline at expiry so traces
  // that never reach the interpreter's clock poll still exit through their
  // §6.4 guard. Joined in ~Engine before Ctx dies (Ctx is the first member,
  // so it outlives the join regardless).
  void armDeadlineTimer(std::chrono::steady_clock::time_point At);
  void disarmDeadlineTimer();
  void deadlineTimerMain();

  VMContext Ctx;
  std::unique_ptr<Interpreter> Interp;
  std::unique_ptr<TraceMonitor> Monitor;
  JitEventMux Mux;
  std::unique_ptr<LogJitEventListener> LogListener;   ///< Opts.LogJitEvents.
  std::unique_ptr<ChromeTraceCollector> TraceCapture; ///< CaptureTraceEvents.

  std::thread TimerThread;
  std::mutex TimerMu;
  std::condition_variable TimerCv;
  std::chrono::steady_clock::time_point TimerDeadline{};
  bool TimerArmed = false; ///< Guarded by TimerMu.
  bool TimerStop = false;  ///< Guarded by TimerMu; set once in ~Engine.
};

} // namespace tracejit

#endif // TRACEJIT_API_ENGINE_H

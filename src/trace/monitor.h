//===- monitor.h - The trace monitor --------------------------------------===//
//
// The Figure 2 state machine. The monitor is invoked at every loop edge
// (LoopHeader bytecode) and decides whether to interpret, record, execute
// a compiled trace, extend a tree at a hot side exit, blacklist, or nest
// trees. It owns the trace cache (all fragments and their LIR arenas),
// the oracle, the loop hotness/blacklist state, and the compilation
// pipeline (forward-filtered recording -> backward filters -> backend).
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_TRACE_MONITOR_H
#define TRACEJIT_TRACE_MONITOR_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "interp/interpreter.h"
#include "jit/compile_queue.h"
#include "jit/compiler_x64.h"
#include "jit/fragment.h"
#include "support/arena.h"
#include "trace/oracle.h"
#include "trace/recorder.h"
#include "trace/tier.h"

namespace tracejit {

/// Per-loop-header monitor state: hotness counter, §3.3 blacklist state
/// (trace/tier.h), and the compiled trees for
/// this header (one per entry type map -- "there may be several trees for
/// a given loop header", §3.2).
struct LoopState {
  FunctionScript *Script = nullptr;
  LoopRecord *Loop = nullptr;
  uint32_t HitCount = 0;
  /// Which tier this loop runs in plus the recording failure/backoff
  /// counters (Tier::Interpreter = blacklisted).
  TierState Tier;
  std::vector<Fragment *> Peers; ///< Compiled root fragments (trees).
  /// Type-unstable loop tails waiting for a complementary peer (Fig. 6).
  std::vector<ExitDescriptor *> UnstableExits;
  /// The globals an exit from this loop's trees writes back: the union of
  /// Fragment::StoredGlobals over every root and branch installed here
  /// (sorted, unique), or every global once a fragment calls a nested tree
  /// (StoresAllGlobals). Grown at install, reset by a cache flush.
  std::vector<uint32_t> StoredGlobals;
  bool StoresAllGlobals = false;
  /// Compile jobs in flight for this header (OffThreadCompile): blocks
  /// duplicate root recordings and counts toward the peer cap until the
  /// job publishes or drops.
  uint32_t PendingCompiles = 0;
};

/// The trace monitor. One concrete class: the interpreter calls it at loop
/// edges (onLoopEdge) and, only while VMContext::Recording is set, before
/// every bytecode (recordOp); the Engine calls the lifecycle, statistics,
/// and code-cache entry points directly.
class TraceMonitor {
public:
  TraceMonitor(VMContext &Ctx, Interpreter &I);
  ~TraceMonitor();

  // --- Interpreter hooks -----------------------------------------------------

  /// Called when the interpreter executes a LoopHeader bytecode at \p Pc
  /// (interpreter state is synced). May count hotness, start or finish
  /// recording, or execute a compiled trace (mutating the interpreter's
  /// frames/stack). Returns the pc to continue interpreting at.
  uint32_t onLoopEdge(uint32_t Pc, uint16_t LoopId);

  /// Pre-execution recording hook for every bytecode while recording
  /// ("the interpreter's dispatch table is swapped to call a recording
  /// routine for every bytecode", §6.3). Interpreter state is synced; the
  /// hook must not mutate it.
  void recordOp(uint32_t Pc);

  /// A property IC left the monomorphic state: the site at (ScriptId, Pc)
  /// went polymorphic, or megamorphic when \p Megamorphic. Speculation
  /// feedback for the oracle, like double-demotion failures (§5): the
  /// recorder emits multi-shape guards at poly sites and records mega sites
  /// as a generic-lookup call (tj_GetPropGeneric / tj_InitProp) with only a
  /// type guard on the result.
  void notePropSite(uint32_t ScriptId, uint32_t Pc, bool Megamorphic) {
    uint64_t Key = Oracle::propSiteKey(ScriptId, Pc);
    if (Megamorphic)
      TheOracle.markMegamorphicSite(Key);
    else
      TheOracle.markPolymorphicSite(Key);
  }

  /// Static-analysis seeding (analysis/analysis.h): a slot is proven
  /// int-and-double at some loop header, so record the §3.2 demotion fact
  /// in the oracle before the first recording ever specializes it as int.
  /// \p Key is an Oracle slot key (globalKey/localKey).
  void noteStaticDemotion(uint64_t Key) { TheOracle.markDemote(Key); }

  /// Called when the dispatch loop is about to return from the outermost
  /// frame or an error unwinds; any active recording must be aborted.
  void flushRecorder();

  /// A governor (deadline, host interrupt, heap quota) is terminating the
  /// running script: abort any active recording without blacklisting the
  /// loop (AbortReason::Interrupted) -- the loop did nothing untraceable,
  /// the script just ran out of budget, so it re-records once the engine
  /// is reused.
  void abortForInterrupt() {
    if (Recorder)
      abortRecording(AbortReason::Interrupted, false);
  }

  // --- Engine-facing statistics and introspection ----------------------------

  /// Fold derived statistics (the Figure 11 native-bytecode estimate,
  /// summed over fragments) into VMStats before it is read.
  void syncStats();

  /// Append one FragmentProfile per fragment in the current cache
  /// generation, including aborted ones (enter counts, iterations,
  /// per-guard side-exit histograms, LIR/native sizes).
  void collectFragmentProfiles(std::vector<FragmentProfile> &Out) const;

  /// Compilation tier of loop \p LoopId of the script with id \p ScriptId.
  /// Loops the monitor has never seen report Tier::Trace.
  Tier tierOfLoop(uint32_t ScriptId, uint16_t LoopId) const;

  // --- Code-cache lifecycle --------------------------------------------------

  /// Called by the engine at the top of every eval; resets the per-eval
  /// flush budget that feeds the jit-disable kill switch.
  void onEvalStart() { FlushesThisEval = 0; }

  /// Request a whole-cache flush: retire every fragment, reset the code
  /// pool, bump the generation, and re-enter monitoring cold. Deferred
  /// (not dropped) while a trace is on the native stack or a recording is
  /// active; the flush then runs at the next safe loop edge.
  void requestCacheFlush();

  /// Monotonic generation counter; bumped by every completed flush.
  uint32_t cacheGeneration() const { return CacheGeneration; }

  /// True once the kill switch disabled the JIT for this engine.
  bool jitDisabled() const { return Disabled; }

  /// Executable-pool occupancy (0 for the executor backend).
  size_t codeCacheUsed() const;
  size_t codeCacheCapacity() const;

  // --- Off-thread compilation (jit/compile_queue.h) --------------------------

  /// Compile jobs submitted but not yet published or dropped (0 when
  /// OffThreadCompile is off).
  uint32_t pendingCompileJobs() const {
    return Queue ? Queue->pendingCount() : 0;
  }

  /// Publish/drop any finished compile jobs now (normally done at loop
  /// edges; tests and the serving harness call this at request boundaries).
  void pumpCompileQueue() { drainCompileJobs(); }

  /// Block until the background compiler has finished every submitted job,
  /// then publish/drop the results. Deterministic drains for tests,
  /// benchmarks, and engine teardown.
  void waitCompileQueueIdle();

  // --- Services for the recorder ----------------------------------------------
  Oracle &oracle() { return TheOracle; }
  VMStats &stats();
  /// CallInfo for a typed math native (cached per boxed entry point).
  const CallInfo *mathCallInfo(NativeFn Boxed);
  Fragment *newFragment(FragmentKind K);

  /// Oracle key for a TAR slot under the current frame chain, or 0 when
  /// the slot is an operand-stack temporary.
  uint64_t oracleKeyForSlot(uint32_t Slot,
                            const std::vector<FrameEntry> &Frames);

  // --- Introspection (tests, benchmarks, diagnostics) ----------------------------
  const std::vector<std::unique_ptr<Fragment>> &fragments() const {
    return Fragments;
  }
  LoopState *loopState(FunctionScript *S, uint16_t LoopId);

private:
  /// Every change of Recorder goes through these two, so
  /// VMContext::Recording always equals "a recorder exists".
  void setRecorder(std::unique_ptr<TraceRecorder> R) {
    Recorder = std::move(R);
    Ctx.Recording = Recorder != nullptr;
  }
  std::unique_ptr<TraceRecorder> takeRecorder() {
    Ctx.Recording = false;
    return std::move(Recorder);
  }

  /// The oracle entry typing must consult (§3.2 demotion), or null when it
  /// is disabled or holds no demotion -- then no slot needs a lookup.
  const Oracle *entryOracle() const;

  /// Build the current entry type map from live interpreter state.
  /// Recording start only; peer matching compares in place (matchAndImport).
  TypeMap buildEntryTypeMap(uint32_t Sp);

  /// True when the live interpreter frame chain has exactly the scripts
  /// and bases of \p Entry.
  bool framesMatchLive(const std::vector<FrameEntry> &Entry) const;

  /// Peer matching and TAR import in one pass over the slots: true when
  /// \p P can be entered from the live interpreter state (same frame chain,
  /// and buildEntryTypeMap(stackTop()) would equal P.EntryTypes), with each
  /// slot unboxed into \p Tar as it is compared. A peer that fails to match
  /// leaves the TAR partly written; the next candidate overwrites it.
  bool matchAndImport(const Fragment &P, uint64_t *Tar) const;

  /// Unbox the live globals and stack into \p Tar per \p Types. With
  /// \p Match, stop at the first slot whose entry type differs (false).
  bool importTar(const TypeMap &Types, uint64_t *Tar, bool Match) const;

  /// The TAR for the next fragment execution (TarBuffer), sized for every
  /// installed fragment.
  uint64_t *entryTar();

  /// Rebox the TAR at \p Tar into interpreter state per the descriptor:
  /// the whole stack, and the globals \p LS stores to (every global when
  /// \p LS is null).
  void restoreFromExit(ExitDescriptor *E, const uint64_t *Tar,
                       const LoopState *LS);

  /// Execute a compiled fragment whose entry state is already imported into
  /// \p Tar (entryTar); returns the exit taken (never null). Handles Nested
  /// unwrapping.
  ExitDescriptor *executeFragment(Fragment *Frag, uint64_t *Tar);

  /// Post-exit policy: stitch-recording, unstable linking, preemption.
  void handleExit(ExitDescriptor *E);

  /// Start recording (root or branch). Aborts any active recording first.
  void startRecording(TraceRecorder::Mode Mode, LoopState *LS,
                      FunctionScript *Script, uint32_t AnchorPc,
                      ExitDescriptor *AnchorExit);

  /// Recording ended at its anchor: run backward filters, compile (inline
  /// or by submitting a compile job), link.
  void finishRecording(const std::vector<Fragment *> &Peers);
  void abortRecording(AbortReason Why, bool CountsTowardBlacklist);

  // --- Off-thread compile pipeline (jit/compile_queue.h) --------------------
  // Submit happens in finishRecording; these run the publication side.

  /// Publish/drop every finished compile job. Safe-point only (no recorder
  /// active, no trace on the native stack); called from loop edges and the
  /// Engine-facing pump/wait entry points.
  void drainCompileJobs();

  /// Wire one finished job into the trace cache -- or drop it (stale
  /// generation, disabled engine) or turn a worker-side compile failure
  /// into the abort/backoff bookkeeping the inline pipeline would have
  /// done. Stale jobs must not dereference Frag/LS/AnchorExit: the
  /// fragment died with its generation's flush.
  void publishJob(CompileJob &J);

  /// Success bookkeeping shared by the inline pipeline and publishJob:
  /// stats/events, peer registration, unstable-exit linking, and the
  /// anchor-exit stitch for branch fragments.
  void installCompiledFragment(Fragment *F, LoopState *LS,
                               ExitDescriptor *Anchor);

  /// Stamp and deliver a JitEvent (call sites gate on Ctx.EventListener).
  void emitEvent(const JitEvent &E);

  /// Try to link type-unstable exits of peers in \p LS to \p NewPeer and
  /// vice versa ("we attempt to connect their loop edges", §3.2/Fig. 6).
  void linkUnstableExits(LoopState *LS, Fragment *NewPeer);

  /// Nested trees (§4.1): recorder hit an inner loop header.
  uint32_t handleInnerLoopHeader(uint32_t Pc, uint16_t LoopId);

  /// §3.3: retire \p LS to the interpreter for good -- Blacklisted event
  /// plus the Nop3 patch of its loop header.
  void blacklist(LoopState *LS);

  LoopState *loopStateOfRoot(Fragment *Root);

  // --- Code-cache lifecycle (see DESIGN.md "Code-cache lifecycle") ----------

  /// Execute a pending or immediate flush. Preconditions: no recorder
  /// active, no trace on the native stack. Retires every fragment and
  /// LoopState link, resets the executable pool to its floor, bumps the
  /// generation, and re-enters monitoring cold. Trips the kill switch when
  /// the per-eval flush budget is exhausted.
  void flushCacheNow();

  /// Map a backend CompileResult to its AbortReason (never Ok).
  static AbortReason compileAbortReason(CompileResult R);

  /// Permanently disable the JIT for this engine (interpreter fallback).
  void disableJit();

  VMContext &Ctx;
  Interpreter &Interp;
  std::unique_ptr<NativeBackend> Native; ///< Null => executor backend.
  /// Off-thread compilation (null pair when OffThreadCompile is off).
  /// Declaration order matters: Queue (the client) must be destroyed
  /// before OwnService joins its worker, and both before Native/Fragments
  /// die -- ~TraceMonitor resets them explicitly.
  std::unique_ptr<CompileService> OwnService; ///< Engine-private worker.
  std::unique_ptr<CompileClient> Queue; ///< Portal (own or shared service).
  std::vector<std::unique_ptr<Fragment>> Fragments;
  std::vector<std::unique_ptr<LoopState>> LoopStates;
  std::unique_ptr<TraceRecorder> Recorder;
  LoopState *RecorderLoopState = nullptr;
  /// Branch recordings: the side exit being extended (stitched on finish).
  ExitDescriptor *RecorderAnchorExit = nullptr;
  Oracle TheOracle;
  /// The §3.3 backoff/blacklist rule (pure; built once from EngineOptions).
  TierPolicy Policy;
  std::unordered_map<NativeFn, std::unique_ptr<CallInfo>> MathCIs;
  /// The TAR every fragment execution uses (one fragment is live at a time).
  std::vector<uint8_t> TarBuffer;
  /// Largest RequiredTarSlots of any fragment installed in this cache
  /// generation: every fragment a TAR can reach
  /// fits below it. Raised at install, reset by a flush.
  uint32_t MaxTarSlots = MinTarSlots;
  static constexpr uint32_t MinTarSlots = 64;
  uint32_t NextFragmentId = 0;
  uint32_t MaxPeersPerLoop = 8;

  // --- Code-cache lifecycle state -------------------------------------------
  uint32_t CacheGeneration = 0;  ///< Bumped by every completed flush.
  uint32_t FlushesThisEval = 0;  ///< Reset by onEvalStart(); kill-switch fuel.
  bool FlushPending = false;     ///< A flush was requested at an unsafe point.
  bool Disabled = false;         ///< Kill switch: interpreter-only from here.
};

} // namespace tracejit

#endif // TRACEJIT_TRACE_MONITOR_H

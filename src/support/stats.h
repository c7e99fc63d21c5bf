//===- stats.h - VM activity counters and timers --------------------------===//
//
// Counters and per-activity timers backing the paper's Figure 11 (fraction
// of bytecodes executed by interpreter vs. native traces) and Figure 12
// (fraction of runtime per VM activity, keyed to the Figure 2 state
// machine).
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_SUPPORT_STATS_H
#define TRACEJIT_SUPPORT_STATS_H

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "support/events.h"

namespace tracejit {

/// The activities of the Figure 2 state machine. `Native` is the dark box;
/// `Interpret` and `RecordInterpret` are the light gray boxes; the rest is
/// overhead (white boxes).
enum class Activity : uint8_t {
  Interpret,       ///< Standard bytecode interpretation.
  Monitor,         ///< Trace monitor decisions at loop edges.
  RecordInterpret, ///< Interpreting while the recorder shadows execution.
  Compile,         ///< LIR filtering + native code generation.
  Native,          ///< Executing compiled traces.
  ExitOverhead,    ///< Boxing values and rebuilding interpreter state on exit.
  NumActivities
};

const char *activityName(Activity A);

/// Aggregated counters/timers for one Engine. All counting is optional and
/// gated by Engine options so Figure 10 timing runs pay nothing for it.
struct VMStats {
  // --- Figure 11 counters -------------------------------------------------
  uint64_t BytecodesInterpreted = 0;
  uint64_t BytecodesRecorded = 0;
  /// Bytecodes covered by native execution: sum over fragments of
  /// (iterations executed * bytecodes recorded in the fragment body).
  uint64_t BytecodesNative = 0;

  // --- Trace lifecycle counters -------------------------------------------
  uint64_t TracesStarted = 0;
  uint64_t TracesCompleted = 0;
  uint64_t TracesAborted = 0;
  /// TracesAborted broken down by the taxonomy in events.h.
  std::array<uint64_t, (size_t)AbortReason::NumReasons> AbortsByReason{};
  uint64_t TreesCompiled = 0;
  uint64_t BranchesCompiled = 0;
  uint64_t SideExits = 0;
  uint64_t TreeCalls = 0;
  uint64_t LoopsBlacklisted = 0;
  uint64_t TraceEnters = 0;
  uint64_t StitchedTransfers = 0;
  uint64_t UnstableLinks = 0;
  uint64_t OracleDemotions = 0;
  uint64_t GCs = 0;

  // --- Property inline caches (vm/ic.h) -------------------------------------
  uint64_t IcHits = 0;             ///< Fast-path hits (CollectStats builds).
  uint64_t IcMisses = 0;           ///< Generic-path falls (CollectStats).
  uint64_t IcInvalidations = 0;    ///< ICs reset by invalidateAllICs().
  uint64_t IcMegamorphicSites = 0; ///< Sites that overflowed to Mega.
  uint64_t IcRecorderHits = 0;     ///< Recorder guards taken from IC state.
  uint64_t IcRecorderGeneric = 0;  ///< Megamorphic accesses recorded as calls.

  // --- Code-cache lifecycle counters ----------------------------------------
  uint64_t CacheFlushes = 0;        ///< Whole-cache flushes.
  uint64_t CacheBytesReclaimed = 0; ///< Native bytes returned by flushes.
  uint64_t FragmentsRetired = 0;    ///< Fragments discarded by flushes.
  uint64_t BackendFallbacks = 0;    ///< Native backend unavailable at start.
  uint64_t ProtectFaults = 0;       ///< W^X flips that failed (enter/compile).
  uint64_t JitDisables = 0;         ///< Kill switch trips (0 or 1).

  // --- Off-thread compile pipeline counters ---------------------------------
  // Mutated on the engine thread only: queueing happens at finishRecording,
  // publication/drop at the loop-edge drain. The compiler thread never
  // touches VMStats (see DESIGN.md "Threading model").
  uint64_t CompileJobsQueued = 0;    ///< Recordings handed to the worker.
  uint64_t CompileJobsPublished = 0; ///< Finished jobs wired into the cache.
  uint64_t CompileJobsDropped = 0;   ///< Stale/failed jobs discarded instead.

  // --- LIR verifier counters ------------------------------------------------
  uint64_t TracesVerified = 0;    ///< Whole-trace verifyTrace() passes run.
  uint64_t LirInsVerified = 0;    ///< Instructions checked (both entry points).
  uint64_t VerifyFailures = 0;    ///< Traces rejected by any rule.
  /// VerifyFailures broken down by the rule taxonomy in events.h.
  std::array<uint64_t, (size_t)VerifyRule::NumRules> VerifyFailuresByRule{};

  // --- LIR pipeline counters ----------------------------------------------
  uint64_t LirEmitted = 0;
  uint64_t LirAfterForwardFilters = 0;
  uint64_t LirAfterBackwardFilters = 0;

  // --- Loop optimizer counters (lir/opt.h) ----------------------------------
  uint64_t GuardsEliminated = 0;     ///< Dominated guards/ovf checks dropped.
  uint64_t OverflowChecksFolded = 0; ///< AddOvI/SubOvI -> AddI/SubI.
  uint64_t IdxStrengthReduced = 0;   ///< Indexing address chains simplified.
  uint64_t InsHoisted = 0;           ///< Instructions moved to prologues.
  uint64_t GuardsHoisted = 0;        ///< ... of which guards/ovf checks.
  uint64_t LoopsWithPrologue = 0;    ///< Fragments that gained a prologue.
  uint64_t EntryDeopts = 0;          ///< Hoisted-guard failures at entry.

  // --- Resource governance counters -----------------------------------------
  uint64_t Timeouts = 0;       ///< Scripts terminated by a deadline.
  uint64_t HostInterrupts = 0; ///< Scripts terminated by requestInterrupt.
  uint64_t HeapQuotaHits = 0;  ///< Scripts terminated as OutOfMemory.
  uint64_t StackOverflows = 0; ///< Frame/stack limit hits.

  // --- Static analysis counters (analysis/analysis.h) -------------------------
  uint64_t AnalysisRuns = 0;         ///< Scripts analyzed.
  uint64_t AnalysisFacts = 0;        ///< Published facts, summed over scripts.
  uint64_t AnalysisDiagnostics = 0;  ///< Lint findings, summed over scripts.
  uint64_t StaticGuardsElided = 0;   ///< Recorder guards proven redundant.
  uint64_t StaticDemotionsSeeded = 0; ///< Oracle demotion facts pre-seeded.
  uint64_t StaticMegaSeeded = 0;      ///< Property sites pre-marked megamorphic.
  uint64_t StaticFactChecks = 0; ///< ValidateStaticFacts slot comparisons.
  uint64_t StaticFactContradictions = 0; ///< ... that failed (must stay 0).

  // --- Figure 12 timers ----------------------------------------------------
  std::array<double, (size_t)Activity::NumActivities> ActivitySeconds{};

  /// The currently-charged activity (Fig. 2 state machine position).
  Activity Current = Activity::Interpret;
  std::chrono::steady_clock::time_point LastStamp{};
  bool TimingActive = false;

  /// Transition the state machine: charge elapsed time to the previous
  /// activity and start charging \p A.
  Activity switchTo(Activity A) {
    auto Now = std::chrono::steady_clock::now();
    if (TimingActive)
      ActivitySeconds[(size_t)Current] +=
          std::chrono::duration<double>(Now - LastStamp).count();
    Activity Prev = Current;
    Current = A;
    LastStamp = Now;
    TimingActive = true;
    return Prev;
  }
  void stopTiming() {
    if (TimingActive)
      switchTo(Current);
    TimingActive = false;
  }

  void reset() { *this = VMStats(); }

  /// Fold another snapshot's counters and timers into this one. The serving
  /// harness uses this to keep a worker's totals across engine recycles.
  void accumulate(const VMStats &O) {
    BytecodesInterpreted += O.BytecodesInterpreted;
    BytecodesRecorded += O.BytecodesRecorded;
    BytecodesNative += O.BytecodesNative;
    TracesStarted += O.TracesStarted;
    TracesCompleted += O.TracesCompleted;
    TracesAborted += O.TracesAborted;
    for (size_t I = 0; I < AbortsByReason.size(); ++I)
      AbortsByReason[I] += O.AbortsByReason[I];
    TreesCompiled += O.TreesCompiled;
    BranchesCompiled += O.BranchesCompiled;
    SideExits += O.SideExits;
    TreeCalls += O.TreeCalls;
    LoopsBlacklisted += O.LoopsBlacklisted;
    TraceEnters += O.TraceEnters;
    StitchedTransfers += O.StitchedTransfers;
    UnstableLinks += O.UnstableLinks;
    OracleDemotions += O.OracleDemotions;
    GCs += O.GCs;
    IcHits += O.IcHits;
    IcMisses += O.IcMisses;
    IcInvalidations += O.IcInvalidations;
    IcMegamorphicSites += O.IcMegamorphicSites;
    IcRecorderHits += O.IcRecorderHits;
    IcRecorderGeneric += O.IcRecorderGeneric;
    CacheFlushes += O.CacheFlushes;
    CacheBytesReclaimed += O.CacheBytesReclaimed;
    FragmentsRetired += O.FragmentsRetired;
    BackendFallbacks += O.BackendFallbacks;
    ProtectFaults += O.ProtectFaults;
    JitDisables += O.JitDisables;
    CompileJobsQueued += O.CompileJobsQueued;
    CompileJobsPublished += O.CompileJobsPublished;
    CompileJobsDropped += O.CompileJobsDropped;
    TracesVerified += O.TracesVerified;
    LirInsVerified += O.LirInsVerified;
    VerifyFailures += O.VerifyFailures;
    for (size_t I = 0; I < VerifyFailuresByRule.size(); ++I)
      VerifyFailuresByRule[I] += O.VerifyFailuresByRule[I];
    LirEmitted += O.LirEmitted;
    LirAfterForwardFilters += O.LirAfterForwardFilters;
    LirAfterBackwardFilters += O.LirAfterBackwardFilters;
    GuardsEliminated += O.GuardsEliminated;
    OverflowChecksFolded += O.OverflowChecksFolded;
    IdxStrengthReduced += O.IdxStrengthReduced;
    InsHoisted += O.InsHoisted;
    GuardsHoisted += O.GuardsHoisted;
    LoopsWithPrologue += O.LoopsWithPrologue;
    EntryDeopts += O.EntryDeopts;
    Timeouts += O.Timeouts;
    HostInterrupts += O.HostInterrupts;
    HeapQuotaHits += O.HeapQuotaHits;
    StackOverflows += O.StackOverflows;
    AnalysisRuns += O.AnalysisRuns;
    AnalysisFacts += O.AnalysisFacts;
    AnalysisDiagnostics += O.AnalysisDiagnostics;
    StaticGuardsElided += O.StaticGuardsElided;
    StaticDemotionsSeeded += O.StaticDemotionsSeeded;
    StaticMegaSeeded += O.StaticMegaSeeded;
    StaticFactChecks += O.StaticFactChecks;
    StaticFactContradictions += O.StaticFactContradictions;
    for (size_t I = 0; I < ActivitySeconds.size(); ++I)
      ActivitySeconds[I] += O.ActivitySeconds[I];
  }

  double totalSeconds() const {
    double T = 0;
    for (double S : ActivitySeconds)
      T += S;
    return T;
  }

  /// Render a multi-line human-readable report.
  std::string report() const;
};

/// Scoped activity switch: charges wall-clock time to one activity while in
/// scope and restores the previous activity on destruction. Nesting follows
/// the Fig. 2 state machine: exactly one activity is charged at a time.
class ActivityScope {
public:
  ActivityScope(VMStats &S, Activity A, bool Enabled) : Stats(S), On(Enabled) {
    if (On)
      Prev = Stats.switchTo(A);
  }
  ~ActivityScope() {
    if (On)
      Stats.switchTo(Prev);
  }
  ActivityScope(const ActivityScope &) = delete;
  ActivityScope &operator=(const ActivityScope &) = delete;

private:
  VMStats &Stats;
  bool On;
  Activity Prev = Activity::Interpret;
};

} // namespace tracejit

#endif // TRACEJIT_SUPPORT_STATS_H

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
  Gc,              ///< Heap::collect(), at a safe point or from gc().
  NumActivities
};

const char *activityName(Activity A);

/// Every plain counter of VMStats, in declaration order. The one list
/// declares the fields and sums them in accumulate(), so a counter added
/// here is carried across engine recycles with no further edit.
#define TRACEJIT_VMSTATS_COUNTERS(X)                                           \
  /* Figure 11: bytecodes by who ran them. BytecodesNative sums, over     */ \
  /* fragments, iterations executed * bytecodes recorded in the body.     */ \
  X(BytecodesInterpreted)                                                      \
  X(BytecodesRecorded)                                                         \
  X(BytecodesNative)                                                           \
  /* Trace lifecycle (aborts by reason: VMStats::AbortsByReason).         */ \
  X(TracesStarted)                                                             \
  X(TracesCompleted)                                                           \
  X(TracesAborted)                                                             \
  X(TreesCompiled)                                                             \
  X(BranchesCompiled)                                                          \
  X(SideExits)                                                                 \
  X(TreeCalls)                                                                 \
  X(LoopsBlacklisted)                                                          \
  X(TraceEnters)                                                               \
  X(StitchedTransfers)                                                         \
  X(UnstableLinks)                                                             \
  X(OracleDemotions)                                                           \
  X(GCs)                                                                       \
  /* Property inline caches (vm/ic.h). Hits and misses count only with    */ \
  /* CollectStats; RecorderHits are guards taken from IC state and        */ \
  /* RecorderGeneric megamorphic accesses recorded as calls.              */ \
  X(IcHits)                                                                    \
  X(IcMisses)                                                                  \
  X(IcInvalidations)                                                           \
  X(IcMegaSites)                                                               \
  X(IcRecorderHits)                                                            \
  X(IcRecorderGeneric)                                                         \
  /* Code-cache lifecycle: whole-cache flushes, native bytes and          */ \
  /* fragments they discarded, native backend unavailable at start, and   */ \
  /* kill-switch trips (0 or 1).                                          */ \
  X(CacheFlushes)                                                              \
  X(CacheBytesReclaimed)                                                       \
  X(FragmentsRetired)                                                          \
  X(BackendFallbacks)                                                          \
  X(JitDisables)                                                               \
  /* Off-thread compile pipeline. Mutated on the engine thread only:      */ \
  /* queueing at finishRecording, publication or drop at the loop-edge    */ \
  /* drain (DESIGN.md "Threading model").                                 */ \
  X(CompileJobsQueued)                                                         \
  X(CompileJobsPublished)                                                      \
  X(CompileJobsDropped)                                                        \
  /* LIR verifier: whole-trace passes, instructions checked by either     */ \
  /* entry point, traces rejected (by rule: VerifyFailuresByRule).        */ \
  X(TracesVerified)                                                            \
  X(LirInsVerified)                                                            \
  X(VerifyFailures)                                                            \
  /* LIR pipeline: a finished recording's length (the forward filters    */ \
  /* ran), then after dead-store elimination, then after the optimizer.   */ \
  X(LirEmitted)                                                                \
  X(LirAfterForwardFilters)                                                    \
  X(LirAfterBackwardFilters)                                                   \
  /* Guards and overflow checks the CSE filter (lir/filters.h) dropped as */ \
  /* dominated, then the loop optimizer's (lir/opt.h) work.               */ \
  X(GuardsEliminated)                                                          \
  X(OverflowChecksFolded)                                                      \
  X(IdxStrengthReduced)                                                        \
  X(InsHoisted)                                                                \
  X(GuardsHoisted)                                                             \
  X(LoopsWithPrologue)                                                         \
  X(EntryDeopts)                                                               \
  /* Resource governance: scripts terminated by each limit.               */ \
  X(Timeouts)                                                                  \
  X(HostInterrupts)                                                            \
  X(HeapQuotaHits)                                                             \
  X(StackOverflows)                                                            \
  /* Static analysis (analysis/analysis.h). StaticFactContradictions      */ \
  /* counts failed ValidateStaticFacts checks and must stay 0.            */ \
  X(AnalysisRuns)                                                              \
  X(AnalysisFacts)                                                             \
  X(StaticGuardsElided)                                                        \
  X(StaticDemotionsSeeded)                                                     \
  X(StaticFactChecks)                                                          \
  X(StaticFactContradictions)

/// Aggregated counters/timers for one Engine. All counting is optional and
/// gated by Engine options so Figure 10 timing runs pay nothing for it.
struct VMStats {
#define TRACEJIT_VMSTATS_FIELD(Name) uint64_t Name = 0;
  TRACEJIT_VMSTATS_COUNTERS(TRACEJIT_VMSTATS_FIELD)
#undef TRACEJIT_VMSTATS_FIELD

  /// TracesAborted broken down by the taxonomy in events.h.
  std::array<uint64_t, (size_t)AbortReason::NumReasons> AbortsByReason{};
  /// VerifyFailures broken down by the rule taxonomy in events.h.
  std::array<uint64_t, (size_t)VerifyRule::NumRules> VerifyFailuresByRule{};

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
#define TRACEJIT_VMSTATS_ADD(Name) Name += O.Name;
    TRACEJIT_VMSTATS_COUNTERS(TRACEJIT_VMSTATS_ADD)
#undef TRACEJIT_VMSTATS_ADD
    addEach(AbortsByReason, O.AbortsByReason);
    addEach(VerifyFailuresByRule, O.VerifyFailuresByRule);
    addEach(ActivitySeconds, O.ActivitySeconds);
  }

  double totalSeconds() const {
    double T = 0;
    for (double S : ActivitySeconds)
      T += S;
    return T;
  }

  /// Render a multi-line human-readable report.
  std::string report() const;

private:
  template <typename T, size_t N>
  static void addEach(std::array<T, N> &To, const std::array<T, N> &From) {
    for (size_t I = 0; I < N; ++I)
      To[I] += From[I];
  }
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

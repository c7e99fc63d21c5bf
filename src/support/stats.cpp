//===- stats.cpp - VM activity counters and timers ------------------------===//

#include "support/stats.h"

#include <cstdio>

namespace tracejit {

const char *activityName(Activity A) {
  switch (A) {
  case Activity::Interpret:
    return "interpret";
  case Activity::Monitor:
    return "monitor";
  case Activity::RecordInterpret:
    return "record";
  case Activity::Compile:
    return "compile";
  case Activity::Native:
    return "native";
  case Activity::ExitOverhead:
    return "exit-overhead";
  case Activity::NumActivities:
    break;
  }
  return "?";
}

std::string VMStats::report() const {
  char Buf[512];
  std::string Out;
  snprintf(Buf, sizeof(Buf),
           "bytecodes: interpreted=%llu recorded=%llu native=%llu\n",
           (unsigned long long)BytecodesInterpreted,
           (unsigned long long)BytecodesRecorded,
           (unsigned long long)BytecodesNative);
  Out += Buf;
  snprintf(Buf, sizeof(Buf),
           "traces: started=%llu completed=%llu aborted=%llu trees=%llu "
           "branches=%llu\n",
           (unsigned long long)TracesStarted,
           (unsigned long long)TracesCompleted,
           (unsigned long long)TracesAborted, (unsigned long long)TreesCompiled,
           (unsigned long long)BranchesCompiled);
  Out += Buf;
  snprintf(Buf, sizeof(Buf),
           "transfers: enters=%llu exits=%llu stitched=%llu treecalls=%llu "
           "unstable-links=%llu blacklisted=%llu\n",
           (unsigned long long)TraceEnters, (unsigned long long)SideExits,
           (unsigned long long)StitchedTransfers,
           (unsigned long long)TreeCalls, (unsigned long long)UnstableLinks,
           (unsigned long long)LoopsBlacklisted);
  Out += Buf;
  if (IcHits || IcMisses || IcInvalidations || IcMegamorphicSites ||
      IcRecorderHits || IcRecorderGeneric) {
    snprintf(Buf, sizeof(Buf),
             "inline caches: hits=%llu misses=%llu invalidated=%llu "
             "megamorphic-sites=%llu recorder-hits=%llu "
             "recorder-generic=%llu\n",
             (unsigned long long)IcHits, (unsigned long long)IcMisses,
             (unsigned long long)IcInvalidations,
             (unsigned long long)IcMegamorphicSites,
             (unsigned long long)IcRecorderHits,
             (unsigned long long)IcRecorderGeneric);
    Out += Buf;
  }
  if (CacheFlushes || FragmentsRetired || BackendFallbacks || ProtectFaults ||
      JitDisables) {
    snprintf(Buf, sizeof(Buf),
             "code cache: flushes=%llu retired=%llu reclaimed-bytes=%llu "
             "backend-fallbacks=%llu protect-faults=%llu jit-disabled=%llu\n",
             (unsigned long long)CacheFlushes,
             (unsigned long long)FragmentsRetired,
             (unsigned long long)CacheBytesReclaimed,
             (unsigned long long)BackendFallbacks,
             (unsigned long long)ProtectFaults,
             (unsigned long long)JitDisables);
    Out += Buf;
  }
  if (CompileJobsQueued || CompileJobsPublished || CompileJobsDropped) {
    snprintf(Buf, sizeof(Buf),
             "compile queue: queued=%llu published=%llu dropped=%llu\n",
             (unsigned long long)CompileJobsQueued,
             (unsigned long long)CompileJobsPublished,
             (unsigned long long)CompileJobsDropped);
    Out += Buf;
  }
  if (GuardsEliminated || OverflowChecksFolded || IdxStrengthReduced ||
      InsHoisted || LoopsWithPrologue || EntryDeopts) {
    snprintf(Buf, sizeof(Buf),
             "loop optimizer: guards-elim=%llu ovf-folded=%llu "
             "idx-reduced=%llu hoisted=%llu (guards=%llu) prologues=%llu "
             "entry-deopts=%llu\n",
             (unsigned long long)GuardsEliminated,
             (unsigned long long)OverflowChecksFolded,
             (unsigned long long)IdxStrengthReduced,
             (unsigned long long)InsHoisted,
             (unsigned long long)GuardsHoisted,
             (unsigned long long)LoopsWithPrologue,
             (unsigned long long)EntryDeopts);
    Out += Buf;
  }
  if (Timeouts || HostInterrupts || HeapQuotaHits || StackOverflows) {
    snprintf(Buf, sizeof(Buf),
             "resource governance: timeouts=%llu host-interrupts=%llu "
             "heap-quota-hits=%llu stack-overflows=%llu\n",
             (unsigned long long)Timeouts, (unsigned long long)HostInterrupts,
             (unsigned long long)HeapQuotaHits,
             (unsigned long long)StackOverflows);
    Out += Buf;
  }
  if (AnalysisRuns || StaticGuardsElided || StaticDemotionsSeeded ||
      StaticMegaSeeded || StaticFactChecks) {
    snprintf(Buf, sizeof(Buf),
             "static analysis: runs=%llu facts=%llu diagnostics=%llu "
             "guards-elided=%llu demotions-seeded=%llu mega-seeded=%llu "
             "fact-checks=%llu contradictions=%llu\n",
             (unsigned long long)AnalysisRuns,
             (unsigned long long)AnalysisFacts,
             (unsigned long long)AnalysisDiagnostics,
             (unsigned long long)StaticGuardsElided,
             (unsigned long long)StaticDemotionsSeeded,
             (unsigned long long)StaticMegaSeeded,
             (unsigned long long)StaticFactChecks,
             (unsigned long long)StaticFactContradictions);
    Out += Buf;
  }
  if (TracesVerified || LirInsVerified || VerifyFailures) {
    snprintf(Buf, sizeof(Buf),
             "lir verifier: traces=%llu instructions=%llu failures=%llu\n",
             (unsigned long long)TracesVerified,
             (unsigned long long)LirInsVerified,
             (unsigned long long)VerifyFailures);
    Out += Buf;
  }
  if (VerifyFailures > 0) {
    Out += "verify failures by rule:\n";
    for (size_t R = 0; R < (size_t)VerifyRule::NumRules; ++R) {
      if (VerifyFailuresByRule[R] == 0)
        continue;
      snprintf(Buf, sizeof(Buf), "  %-24s %llu\n",
               verifyRuleName((VerifyRule)R),
               (unsigned long long)VerifyFailuresByRule[R]);
      Out += Buf;
    }
  }
  if (TracesAborted > 0) {
    Out += "aborts by reason:\n";
    for (size_t R = 0; R < (size_t)AbortReason::NumReasons; ++R) {
      if (AbortsByReason[R] == 0)
        continue;
      snprintf(Buf, sizeof(Buf), "  %-24s %llu\n",
               abortReasonName((AbortReason)R),
               (unsigned long long)AbortsByReason[R]);
      Out += Buf;
    }
  }
  double Total = totalSeconds();
  for (size_t I = 0; I < (size_t)Activity::NumActivities; ++I) {
    double S = ActivitySeconds[I];
    snprintf(Buf, sizeof(Buf), "time %-14s %8.3f ms (%5.1f%%)\n",
             activityName((Activity)I), S * 1e3,
             Total > 0 ? 100.0 * S / Total : 0.0);
    Out += Buf;
  }
  return Out;
}

} // namespace tracejit

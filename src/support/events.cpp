//===- events.cpp - Structured JIT observability ----------------------------===//

#include "support/events.h"

#include <algorithm>
#include <cinttypes>

#include "api/options.h"
#include "jit/fragment.h"
#include "vm/ic.h"

namespace tracejit {

// --- Name tables ---------------------------------------------------------------
//
// Each enum's names live in one X-macro list. The static_asserts below pin
// both the count (a new enumerator without a name entry fails to compile)
// and the position (a reordered entry fails to compile), so a name can
// never silently print as "?". tests/test_name_tables.cpp re-checks the
// same properties at runtime across the public lookup functions.

#define TJ_FOR_EACH_ABORT_REASON(M)                                            \
  M(None, "none")                                                              \
  M(UntrackedSlot, "untracked-slot")                                           \
  M(NonNumericArith, "non-numeric-arith")                                      \
  M(MixedConcat, "mixed-concat")                                               \
  M(UntraceableCompare, "untraceable-compare")                                 \
  M(NonNumericBitop, "non-numeric-bitop")                                      \
  M(NonNumericIndex, "non-numeric-index")                                      \
  M(PropOnPrimitive, "prop-on-primitive")                                      \
  M(PropAddsSlot, "prop-adds-slot")                                            \
  M(UnknownStringProp, "unknown-string-prop")                                  \
  M(ElemOnNonArray, "elem-on-non-array")                                       \
  M(InitPropOnNonObject, "initprop-on-non-object")                             \
  M(RecursiveCall, "recursive-call")                                           \
  M(InlineDepthLimit, "inline-depth-limit")                                    \
  M(CallOfNonFunction, "call-of-non-function")                                 \
  M(UntraceableNative, "untraceable-native")                                   \
  M(UnsupportedReceiver, "unsupported-receiver")                               \
  M(ReturnBelowEntryFrame, "return-below-entry-frame")                         \
  M(TraceTooLong, "trace-too-long")                                            \
  M(UnsupportedBytecode, "unsupported-bytecode")                               \
  M(NestingDisabled, "nesting-disabled")                                       \
  M(InnerTreeNotReady, "inner-tree-not-ready")                                 \
  M(InnerTreeSideExit, "inner-tree-side-exit")                                 \
  M(PreemptedInInnerCall, "preempted-in-inner-call")                           \
  M(DispatchUnwound, "dispatch-unwound")                                       \
  M(TypecheckFailed, "typecheck-failed")                                       \
  M(CompilePoolExhausted, "compile-pool-exhausted")                            \
  M(CompileOverflow, "compile-overflow")                                       \
  M(CompileUnsupported, "compile-unsupported")                                 \
  M(CompileFault, "compile-fault")                                             \
  M(CompileQueueFull, "compile-queue-full")                                    \
  M(VerifyFailed, "verify-failed")                                             \
  M(Interrupted, "interrupted")

#define TJ_FOR_EACH_VERIFY_RULE(M)                                             \
  M(None, "none")                                                              \
  M(MissingOperand, "missing-operand")                                         \
  M(UseBeforeDef, "use-before-def")                                            \
  M(DanglingOperand, "dangling-operand")                                       \
  M(OperandType, "operand-type")                                               \
  M(ResultType, "result-type")                                                 \
  M(CallSignature, "call-signature")                                           \
  M(GuardWithoutExit, "guard-without-exit")                                    \
  M(ShiftCountNotImm, "shift-count-not-imm")                                   \
  M(TarAddressing, "tar-addressing")                                           \
  M(ExitTypeMapLength, "exit-type-map-length")                                 \
  M(ExitFrameBounds, "exit-frame-bounds")                                      \
  M(TransferTarget, "transfer-target")                                         \
  M(TreeCallTypeMaps, "tree-call-type-maps")                                   \
  M(Terminator, "terminator")                                                  \
  M(PrologueShape, "prologue-shape")                                           \
  M(PrologueEffect, "prologue-effect")                                         \
  M(PrologueExit, "prologue-exit")

#define TJ_FOR_EACH_JIT_EVENT_KIND(M)                                          \
  M(LoopHot, "LoopHot")                                                        \
  M(RecordStart, "RecordStart")                                                \
  M(RecordAbort, "RecordAbort")                                                \
  M(TreeCompiled, "TreeCompiled")                                              \
  M(BranchCompiled, "BranchCompiled")                                          \
  M(SideExit, "SideExit")                                                      \
  M(Blacklisted, "Blacklisted")                                                \
  M(TreeCall, "TreeCall")                                                      \
  M(StitchedTransfer, "StitchedTransfer")                                      \
  M(GC, "GC")                                                                  \
  M(CacheFlush, "CacheFlush")                                                  \
  M(FragmentRetired, "FragmentRetired")                                        \
  M(JitDisabled, "JitDisabled")                                                \
  M(BackendFallback, "BackendFallback")                                        \
  M(IcTransition, "IcTransition")                                              \
  M(IcInvalidateAll, "IcInvalidateAll")                                        \
  M(CompileJobQueued, "CompileJobQueued")                                      \
  M(CompileJobDropped, "CompileJobDropped")                                    \
  M(ScriptInterrupted, "ScriptInterrupted")                                    \
  M(EngineRecycled, "EngineRecycled")                                          \
  M(AnalysisRan, "AnalysisRan")

namespace {

#define TJ_NAME_ENTRY(N, S) S,
constexpr const char *AbortReasonNames[] = {
    TJ_FOR_EACH_ABORT_REASON(TJ_NAME_ENTRY)};
constexpr const char *VerifyRuleNames[] = {
    TJ_FOR_EACH_VERIFY_RULE(TJ_NAME_ENTRY)};
constexpr const char *JitEventKindNames[] = {
    TJ_FOR_EACH_JIT_EVENT_KIND(TJ_NAME_ENTRY)};
#undef TJ_NAME_ENTRY

static_assert(sizeof(AbortReasonNames) / sizeof(const char *) ==
                  (size_t)AbortReason::NumReasons,
              "AbortReason gained a value without a name-table entry");
static_assert(sizeof(VerifyRuleNames) / sizeof(const char *) ==
                  (size_t)VerifyRule::NumRules,
              "VerifyRule gained a value without a name-table entry");
static_assert(sizeof(JitEventKindNames) / sizeof(const char *) ==
                  (size_t)JitEventKind::NumKinds,
              "JitEventKind gained a value without a name-table entry");

// Positional checks: each list entry must sit at its enumerator's index.
#define TJ_IDX_ENTRY(N, S) Idx_##N,
enum : size_t { TJ_FOR_EACH_ABORT_REASON(TJ_IDX_ENTRY) };
#undef TJ_IDX_ENTRY
#define TJ_IDX_CHECK(N, S)                                                     \
  static_assert(Idx_##N == (size_t)AbortReason::N,                             \
                "AbortReason name-table order mismatch: " #N);
TJ_FOR_EACH_ABORT_REASON(TJ_IDX_CHECK)
#undef TJ_IDX_CHECK

#define TJ_IDX_ENTRY(N, S) RuleIdx_##N,
enum : size_t { TJ_FOR_EACH_VERIFY_RULE(TJ_IDX_ENTRY) };
#undef TJ_IDX_ENTRY
#define TJ_IDX_CHECK(N, S)                                                     \
  static_assert(RuleIdx_##N == (size_t)VerifyRule::N,                          \
                "VerifyRule name-table order mismatch: " #N);
TJ_FOR_EACH_VERIFY_RULE(TJ_IDX_CHECK)
#undef TJ_IDX_CHECK

#define TJ_IDX_ENTRY(N, S) KindIdx_##N,
enum : size_t { TJ_FOR_EACH_JIT_EVENT_KIND(TJ_IDX_ENTRY) };
#undef TJ_IDX_ENTRY
#define TJ_IDX_CHECK(N, S)                                                     \
  static_assert(KindIdx_##N == (size_t)JitEventKind::N,                        \
                "JitEventKind name-table order mismatch: " #N);
TJ_FOR_EACH_JIT_EVENT_KIND(TJ_IDX_CHECK)
#undef TJ_IDX_CHECK

} // namespace

const char *abortReasonName(AbortReason R) {
  return (size_t)R < (size_t)AbortReason::NumReasons
             ? AbortReasonNames[(size_t)R]
             : "?";
}

const char *verifyRuleName(VerifyRule R) {
  return (size_t)R < (size_t)VerifyRule::NumRules ? VerifyRuleNames[(size_t)R]
                                                  : "?";
}

const char *faultSiteName(FaultSite S) {
  switch (S) {
  case FaultSite::ExecMapFail:
    return "exec-map-fail";
  case FaultSite::ExecAllocFail:
    return "exec-alloc-fail";
  case FaultSite::ProtectFail:
    return "protect-fail";
  case FaultSite::CompileFail:
    return "compile-fail";
  case FaultSite::HeapAllocFail:
    return "heap-alloc-fail";
  case FaultSite::VerifyFail:
    return "verify-fail";
  }
  return "?";
}

const char *jitEventKindName(JitEventKind K) {
  return (size_t)K < (size_t)JitEventKind::NumKinds
             ? JitEventKindNames[(size_t)K]
             : "?";
}

// --- JitEventMux ---------------------------------------------------------------

void JitEventMux::add(JitEventListener *L) {
  if (L && std::find(Sinks.begin(), Sinks.end(), L) == Sinks.end())
    Sinks.push_back(L);
}

bool JitEventMux::remove(JitEventListener *L) {
  auto It = std::find(Sinks.begin(), Sinks.end(), L);
  if (It == Sinks.end())
    return false;
  Sinks.erase(It);
  return true;
}

void JitEventMux::onEvent(const JitEvent &E) {
  for (JitEventListener *L : Sinks)
    L->onEvent(E);
}

// --- LogJitEventListener -------------------------------------------------------

std::string LogJitEventListener::format(const JitEvent &E) {
  char Buf[256];
  std::string Out;
  snprintf(Buf, sizeof(Buf), "%-16s", jitEventKindName(E.Kind));
  Out += Buf;
  if (E.FragmentId != ~0u) {
    snprintf(Buf, sizeof(Buf), " frag=%u", E.FragmentId);
    Out += Buf;
  }
  if (E.ScriptId != ~0u) {
    snprintf(Buf, sizeof(Buf), " script=%u pc=%u", E.ScriptId, E.Pc);
    Out += Buf;
  }
  switch (E.Kind) {
  case JitEventKind::LoopHot:
    snprintf(Buf, sizeof(Buf), " hits=%" PRIu64, E.Arg0);
    Out += Buf;
    break;
  case JitEventKind::RecordAbort:
    snprintf(Buf, sizeof(Buf), " reason=%s", abortReasonName(E.Reason));
    Out += Buf;
    break;
  case JitEventKind::TreeCompiled:
  case JitEventKind::BranchCompiled:
    snprintf(Buf, sizeof(Buf), " lir=%" PRIu64 " native-bytes=%" PRIu64,
             E.Arg0, E.Arg1);
    Out += Buf;
    break;
  case JitEventKind::SideExit:
    snprintf(Buf, sizeof(Buf), " guard=%u kind=%s hits=%" PRIu64, E.ExitId,
             exitKindName((ExitKind)E.ExitKindRaw), E.Arg0);
    Out += Buf;
    break;
  case JitEventKind::StitchedTransfer:
    snprintf(Buf, sizeof(Buf), " guard=%u -> frag=%" PRIu64 "%s", E.ExitId,
             E.Arg0, E.Arg1 ? " (unstable-link)" : "");
    Out += Buf;
    break;
  case JitEventKind::TreeCall:
    snprintf(Buf, sizeof(Buf), " outer-frag=%" PRIu64, E.Arg0);
    Out += Buf;
    break;
  case JitEventKind::GC:
    snprintf(Buf, sizeof(Buf), " collections=%" PRIu64, E.Arg0);
    Out += Buf;
    break;
  case JitEventKind::CacheFlush:
    snprintf(Buf, sizeof(Buf), " generation=%" PRIu64 " reclaimed=%" PRIu64,
             E.Arg0, E.Arg1);
    Out += Buf;
    break;
  case JitEventKind::FragmentRetired:
    snprintf(Buf, sizeof(Buf), " native-bytes=%" PRIu64 " generation=%" PRIu64,
             E.Arg0, E.Arg1);
    Out += Buf;
    break;
  case JitEventKind::JitDisabled:
    snprintf(Buf, sizeof(Buf), " flushes=%" PRIu64, E.Arg0);
    Out += Buf;
    break;
  case JitEventKind::BackendFallback:
    Out += " backend=executor";
    break;
  case JitEventKind::IcTransition:
    snprintf(Buf, sizeof(Buf), " state=%s entries=%" PRIu64,
             icStateName((ICState)E.Arg0), E.Arg1);
    Out += Buf;
    break;
  case JitEventKind::IcInvalidateAll:
    snprintf(Buf, sizeof(Buf), " cleared=%" PRIu64, E.Arg0);
    Out += Buf;
    break;
  case JitEventKind::CompileJobQueued:
    snprintf(Buf, sizeof(Buf), " pending=%" PRIu64, E.Arg0);
    Out += Buf;
    break;
  case JitEventKind::CompileJobDropped:
    snprintf(Buf, sizeof(Buf), " job-generation=%" PRIu64 " generation=%" PRIu64,
             E.Arg0, E.Arg1);
    Out += Buf;
    break;
  case JitEventKind::ScriptInterrupted:
    snprintf(Buf, sizeof(Buf), " bits=0x%" PRIx64 " kind=%" PRIu64, E.Arg0,
             E.Arg1);
    Out += Buf;
    break;
  case JitEventKind::EngineRecycled:
    snprintf(Buf, sizeof(Buf), " worker=%" PRIu64 " failures=%" PRIu64, E.Arg0,
             E.Arg1);
    Out += Buf;
    break;
  case JitEventKind::AnalysisRan:
    snprintf(Buf, sizeof(Buf), " facts=%" PRIu64 " diagnostics=%" PRIu64,
             E.Arg0, E.Arg1);
    Out += Buf;
    break;
  default:
    break;
  }
  return Out;
}

void LogJitEventListener::onEvent(const JitEvent &E) {
  fprintf(Out, "[jit +%08" PRIu64 "us] %s\n", E.TimeUs, format(E).c_str());
}

// --- ChromeTraceCollector ------------------------------------------------------

/// Append one trace-event object. \p Ph is the Chrome phase ("i", "B",
/// "E"); instant events get the thread scope required by the viewer.
static void appendChromeEvent(std::string &Out, const char *Name,
                              const char *Ph, uint64_t Ts,
                              const std::string &Args, bool First) {
  char Buf[256];
  if (!First)
    Out += ",\n";
  snprintf(Buf, sizeof(Buf),
           "    {\"name\": \"%s\", \"ph\": \"%s\", \"ts\": %" PRIu64
           ", \"pid\": 1, \"tid\": 1",
           Name, Ph, Ts);
  Out += Buf;
  if (Ph[0] == 'i')
    Out += ", \"s\": \"t\"";
  if (!Args.empty())
    Out += ", \"args\": {" + Args + "}";
  Out += "}";
}

static std::string numArg(const char *Key, uint64_t V, bool First = false) {
  char Buf[96];
  snprintf(Buf, sizeof(Buf), "%s\"%s\": %" PRIu64, First ? "" : ", ", Key, V);
  return Buf;
}

static std::string strArg(const char *Key, const char *V, bool First = false) {
  std::string Out = First ? "" : ", ";
  Out += "\"";
  Out += Key;
  Out += "\": \"";
  Out += V; // all producers pass identifier-safe static strings
  Out += "\"";
  return Out;
}

std::string ChromeTraceCollector::renderJson() const {
  std::string Out = "{\n  \"displayTimeUnit\": \"ms\",\n"
                    "  \"traceEvents\": [\n";
  bool First = true;
  char Name[64];
  for (const JitEvent &E : Events) {
    std::string Args;
    if (E.FragmentId != ~0u)
      Args += numArg("fragment", E.FragmentId, Args.empty());
    if (E.ScriptId != ~0u) {
      Args += numArg("script", E.ScriptId, Args.empty());
      Args += numArg("pc", E.Pc);
    }
    switch (E.Kind) {
    case JitEventKind::RecordStart:
      // Recording sessions render as duration slices: B here, E at the
      // matching TreeCompiled/BranchCompiled/RecordAbort.
      snprintf(Name, sizeof(Name), "record frag %u", E.FragmentId);
      appendChromeEvent(Out, Name, "B", E.TimeUs, Args, First);
      First = false;
      continue;
    case JitEventKind::TreeCompiled:
    case JitEventKind::BranchCompiled:
      Args += numArg("lir", E.Arg0);
      Args += numArg("nativeBytes", E.Arg1);
      snprintf(Name, sizeof(Name), "record frag %u", E.FragmentId);
      appendChromeEvent(Out, Name, "E", E.TimeUs, "", First);
      First = false;
      break;
    case JitEventKind::RecordAbort:
      Args += strArg("reason", abortReasonName(E.Reason), Args.empty());
      snprintf(Name, sizeof(Name), "record frag %u", E.FragmentId);
      appendChromeEvent(Out, Name, "E", E.TimeUs, "", First);
      First = false;
      break;
    case JitEventKind::SideExit:
      Args += numArg("guard", E.ExitId, Args.empty());
      Args += strArg("exitKind", exitKindName((ExitKind)E.ExitKindRaw));
      Args += numArg("hits", E.Arg0);
      break;
    case JitEventKind::LoopHot:
      Args += numArg("hits", E.Arg0, Args.empty());
      break;
    case JitEventKind::StitchedTransfer:
      Args += numArg("guard", E.ExitId, Args.empty());
      Args += numArg("target", E.Arg0);
      break;
    case JitEventKind::TreeCall:
      Args += numArg("outerFragment", E.Arg0, Args.empty());
      break;
    case JitEventKind::GC:
      Args += numArg("collections", E.Arg0, Args.empty());
      break;
    case JitEventKind::CacheFlush:
      Args += numArg("generation", E.Arg0, Args.empty());
      Args += numArg("reclaimedBytes", E.Arg1);
      break;
    case JitEventKind::FragmentRetired:
      Args += numArg("nativeBytes", E.Arg0, Args.empty());
      Args += numArg("generation", E.Arg1);
      break;
    case JitEventKind::JitDisabled:
      Args += numArg("flushes", E.Arg0, Args.empty());
      break;
    case JitEventKind::IcTransition:
      Args += strArg("state", icStateName((ICState)E.Arg0), Args.empty());
      Args += numArg("entries", E.Arg1);
      break;
    case JitEventKind::IcInvalidateAll:
      Args += numArg("cleared", E.Arg0, Args.empty());
      break;
    case JitEventKind::CompileJobQueued:
      Args += numArg("pending", E.Arg0, Args.empty());
      break;
    case JitEventKind::CompileJobDropped:
      Args += numArg("jobGeneration", E.Arg0, Args.empty());
      Args += numArg("generation", E.Arg1);
      break;
    case JitEventKind::ScriptInterrupted:
      Args += numArg("bits", E.Arg0, Args.empty());
      Args += numArg("errorKind", E.Arg1);
      break;
    case JitEventKind::EngineRecycled:
      Args += numArg("worker", E.Arg0, Args.empty());
      Args += numArg("failures", E.Arg1);
      break;
    case JitEventKind::AnalysisRan:
      Args += numArg("facts", E.Arg0, Args.empty());
      Args += numArg("diagnostics", E.Arg1);
      break;
    default:
      break;
    }
    appendChromeEvent(Out, jitEventKindName(E.Kind), "i", E.TimeUs, Args,
                      First);
    First = false;
  }
  Out += "\n  ]\n}\n";
  return Out;
}

bool ChromeTraceCollector::writeJson(const std::string &Path) const {
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::string J = renderJson();
  size_t W = fwrite(J.data(), 1, J.size(), F);
  return fclose(F) == 0 && W == J.size();
}

} // namespace tracejit

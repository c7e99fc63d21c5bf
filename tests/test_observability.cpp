//===- test_observability.cpp - Event stream, telemetry, abort taxonomy ----===//
//
// Covers the structured observability layer: JitEvent ordering over a hot
// loop's lifecycle, the abort-reason taxonomy and its VMStats counters,
// per-fragment telemetry snapshots, listener attach/detach semantics, and
// the Chrome trace-event JSON exporter.
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"

using namespace tracejit;

namespace {

/// Records every event it sees.
struct CollectingListener final : JitEventListener {
  std::vector<JitEvent> Events;
  void onEvent(const JitEvent &E) override { Events.push_back(E); }

  int64_t firstIndexOf(JitEventKind K) const {
    for (size_t I = 0; I < Events.size(); ++I)
      if (Events[I].Kind == K)
        return (int64_t)I;
    return -1;
  }
  uint64_t count(JitEventKind K) const {
    uint64_t N = 0;
    for (const JitEvent &E : Events)
      N += E.Kind == K;
    return N;
  }
};

EngineOptions jitOpts() {
  EngineOptions O;
  O.EnableJit = true;
  return O;
}

const char *HotLoopSrc = "var s = 0; for (var i = 0; i < 200; ++i) s += i;";

/// Minimal JSON well-formedness scan: balanced {}/[] outside strings, valid
/// string escapes, no trailing garbage. Returns an empty string when OK.
std::string scanJson(const std::string &J) {
  std::vector<char> Nesting;
  bool InString = false;
  for (size_t I = 0; I < J.size(); ++I) {
    char C = J[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
      continue;
    }
    switch (C) {
    case '"':
      InString = true;
      break;
    case '{':
    case '[':
      Nesting.push_back(C);
      break;
    case '}':
    case ']': {
      if (Nesting.empty())
        return "unbalanced close at " + std::to_string(I);
      char Open = Nesting.back();
      Nesting.pop_back();
      if ((C == '}') != (Open == '{'))
        return "mismatched close at " + std::to_string(I);
      break;
    }
    default:
      break;
    }
    if (Nesting.empty() && C == '}' && J.find_first_not_of(" \n\t", I + 1) !=
                                           std::string::npos)
      return "trailing garbage after top-level object";
  }
  if (InString)
    return "unterminated string";
  if (!Nesting.empty())
    return "unclosed nesting";
  return "";
}

} // namespace

TEST(Observability, HotLoopEventOrdering) {
  Engine E(jitOpts());
  CollectingListener L;
  E.addEventListener(&L);
  ASSERT_TRUE(E.eval(HotLoopSrc).ok());

  int64_t Hot = L.firstIndexOf(JitEventKind::LoopHot);
  int64_t Start = L.firstIndexOf(JitEventKind::RecordStart);
  int64_t Compiled = L.firstIndexOf(JitEventKind::TreeCompiled);
  int64_t Exit = L.firstIndexOf(JitEventKind::SideExit);
  ASSERT_GE(Hot, 0) << "loop never reported hot";
  ASSERT_GE(Start, 0) << "recording never started";
  ASSERT_GE(Compiled, 0) << "tree never compiled";
  ASSERT_GE(Exit, 0) << "compiled loop must side-exit when i reaches 200";
  EXPECT_LT(Hot, Start);
  EXPECT_LT(Start, Compiled);
  EXPECT_LT(Compiled, Exit);

  // The compile event carries the fragment's final LIR size; the side exit
  // names its guard and parent fragment.
  EXPECT_GT(L.Events[Compiled].Arg0, 0u) << "LIR size";
  EXPECT_NE(L.Events[Exit].FragmentId, ~0u);
  EXPECT_NE(L.Events[Exit].ExitId, ~0u);

  // Timestamps are monotone within the stream.
  for (size_t I = 1; I < L.Events.size(); ++I)
    EXPECT_GE(L.Events[I].TimeUs, L.Events[I - 1].TimeUs);
  E.removeEventListener(&L);
}

TEST(Observability, ListenerDetachStopsDelivery) {
  Engine E(jitOpts());
  CollectingListener L;
  E.addEventListener(&L);
  ASSERT_TRUE(E.eval(HotLoopSrc).ok());
  size_t Seen = L.Events.size();
  EXPECT_GT(Seen, 0u);
  E.removeEventListener(&L);
  ASSERT_TRUE(E.eval("var t = 0; for (var j = 0; j < 200; ++j) t += 2;").ok());
  EXPECT_EQ(L.Events.size(), Seen) << "detached listener still saw events";
}

TEST(Observability, AbortReasonCountersForUntraceableLoop) {
  EngineOptions O = jitOpts();
  O.CollectStats = true;
  Engine E(O);
  E.setPrintHook([](const std::string &) {});
  CollectingListener L;
  E.addEventListener(&L);
  // `print` has no traceable fast path, so every recording attempt aborts
  // with a named reason until the header is blacklisted.
  ASSERT_TRUE(E.eval("for (var i = 0; i < 100; ++i) print(i);").ok());

  VMStats S = E.stats();
  EXPECT_GT(S.TracesAborted, 0u);
  EXPECT_GT(S.AbortsByReason[(size_t)AbortReason::UntraceableNative], 0u);

  // Every abort is attributed: per-reason counters sum to the total.
  uint64_t Sum = 0;
  for (uint64_t N : S.AbortsByReason)
    Sum += N;
  EXPECT_EQ(Sum, S.TracesAborted);

  // The abort event stream carries the same reason, and the report text
  // names it.
  int64_t Abort = L.firstIndexOf(JitEventKind::RecordAbort);
  ASSERT_GE(Abort, 0);
  EXPECT_EQ(L.Events[Abort].Reason, AbortReason::UntraceableNative);
  EXPECT_GE(L.count(JitEventKind::Blacklisted), 1u);
  EXPECT_NE(S.report().find("untraceable-native"), std::string::npos);
}

TEST(Observability, FragmentProfilesForSieve) {
  EngineOptions O = jitOpts();
  O.CollectStats = true;
  Engine E(O);
  E.setPrintHook([](const std::string &) {});
  ASSERT_TRUE(E.eval("var N = 400;\n"
                     "var primes = Array(N);\n"
                     "for (var p = 0; p < N; ++p) primes[p] = true;\n"
                     "for (var i = 2; i < N; ++i) {\n"
                     "  if (!primes[i]) continue;\n"
                     "  for (var k = i + i; k < N; k += i) primes[k] = false;\n"
                     "}\n")
                  .ok());

  std::vector<FragmentProfile> Profiles = E.fragmentProfiles();
  ASSERT_GE(Profiles.size(), 2u) << "inner and outer sieve trees";

  bool SawEnteredRoot = false, SawFiredGuard = false;
  for (const FragmentProfile &P : Profiles) {
    EXPECT_GE(P.LirRecorded, P.LirAfterFilters)
        << "filters never grow a trace";
    if (P.IsRoot && P.Enters > 0 && P.LirAfterFilters > 0 &&
        P.Iterations > 0)
      SawEnteredRoot = true;
    for (const GuardProfile &G : P.Guards) {
      EXPECT_STRNE(G.ExitKindName, "?");
      if (G.Hits > 0)
        SawFiredGuard = true;
    }
  }
  EXPECT_TRUE(SawEnteredRoot);
  EXPECT_TRUE(SawFiredGuard);
}

TEST(Observability, ChromeTraceExport) {
  EngineOptions O = jitOpts();
  O.CaptureTraceEvents = true;
  Engine E(O);
  E.setPrintHook([](const std::string &) {});
  ASSERT_TRUE(E.eval("var N = 400;\n"
                     "var primes = Array(N);\n"
                     "for (var p = 0; p < N; ++p) primes[p] = true;\n"
                     "for (var i = 2; i < N; ++i) {\n"
                     "  if (!primes[i]) continue;\n"
                     "  for (var k = i + i; k < N; k += i) primes[k] = false;\n"
                     "}\n")
                  .ok());

  std::string Path = testing::TempDir() + "tracejit_events.json";
  ASSERT_TRUE(E.exportTraceEvents(Path));

  std::string J;
  {
    FILE *F = fopen(Path.c_str(), "r");
    ASSERT_NE(F, nullptr);
    char Buf[4096];
    size_t N;
    while ((N = fread(Buf, 1, sizeof(Buf), F)) > 0)
      J.append(Buf, N);
    fclose(F);
  }
  remove(Path.c_str());

  EXPECT_EQ(scanJson(J), "") << J.substr(0, 400);
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(J.find("\"TreeCompiled\""), std::string::npos);
  EXPECT_NE(J.find("\"SideExit\""), std::string::npos);
}

TEST(Observability, ExportRequiresCaptureOption) {
  Engine E(jitOpts()); // CaptureTraceEvents defaults to off
  ASSERT_TRUE(E.eval(HotLoopSrc).ok());
  EXPECT_FALSE(E.exportTraceEvents(testing::TempDir() + "unused.json"));
}

TEST(Observability, LogListenerFormat) {
  JitEvent E;
  E.Kind = JitEventKind::RecordAbort;
  E.Reason = AbortReason::TraceTooLong;
  E.FragmentId = 7;
  E.ScriptId = 0;
  E.Pc = 42;
  std::string Line = LogJitEventListener::format(E);
  EXPECT_NE(Line.find("RecordAbort"), std::string::npos);
  EXPECT_NE(Line.find("frag=7"), std::string::npos);
  EXPECT_NE(Line.find("pc=42"), std::string::npos);
  EXPECT_NE(Line.find("reason=trace-too-long"), std::string::npos);
}

TEST(Observability, AccumulateSumsEveryCounter) {
  // The serving harness keeps a worker's totals across engine recycles by
  // accumulating snapshots: no counter may be left out of the sum.
  VMStats Ones;
#define SET_ONE(Name) Ones.Name = 1;
  TRACEJIT_VMSTATS_COUNTERS(SET_ONE)
#undef SET_ONE
  Ones.AbortsByReason.fill(1);
  Ones.VerifyFailuresByRule.fill(1);
  Ones.ActivitySeconds.fill(1.0);

  VMStats Sum;
  Sum.accumulate(Ones);
#define EXPECT_ONE(Name) EXPECT_EQ(Sum.Name, 1u) << #Name;
  TRACEJIT_VMSTATS_COUNTERS(EXPECT_ONE)
#undef EXPECT_ONE
  for (uint64_t N : Sum.AbortsByReason)
    EXPECT_EQ(N, 1u);
  for (uint64_t N : Sum.VerifyFailuresByRule)
    EXPECT_EQ(N, 1u);
  for (double S : Sum.ActivitySeconds)
    EXPECT_EQ(S, 1.0);
}

// --- The GC line of the activity ledger -------------------------------------

class GcLedger : public ::testing::TestWithParam<Backend> {
protected:
  VMStats run(const char *Src) {
    EngineOptions O = jitOpts();
    O.JitBackend = GetParam();
    O.CollectStats = true;
    Engine E(O);
    E.setPrintHook([](const std::string &) {});
    EXPECT_TRUE(E.eval(Src).ok());
    return E.stats();
  }
};

TEST_P(GcLedger, CollectionsAreChargedToGc) {
  // ~72 bytes per object against a 4 MB trigger: three or more
  // collections at safe points, on trace and off, plus one from gc().
  VMStats S = run("var o; for (var i = 0; i < 250000; ++i) o = {a: i};"
                  "gc();");
  EXPECT_GE(S.GCs, 3u);
  EXPECT_GT(S.ActivitySeconds[(size_t)Activity::Gc], 0.0);
  EXPECT_GE(S.TraceEnters, 1u);
}

TEST_P(GcLedger, NoCollectionChargesNothing) {
  VMStats S = run(HotLoopSrc);
  EXPECT_EQ(S.GCs, 0u);
  EXPECT_EQ(S.ActivitySeconds[(size_t)Activity::Gc], 0.0);
  EXPECT_GT(S.totalSeconds(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Observability, GcLedger,
                         ::testing::Values(Backend::Native, Backend::Executor),
                         [](const ::testing::TestParamInfo<Backend> &I) {
                           return std::string(I.param == Backend::Native
                                                  ? "Native"
                                                  : "Executor");
                         });

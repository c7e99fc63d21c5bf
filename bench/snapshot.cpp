//===- snapshot.cpp - The gated evaluation: Figs. 10-12, hostile, serving -===//
//
// One driver for every number the bench gate checks, printed as five tables:
//
//   * Fig. 10: speedup of the tracing JIT over the interpreter on the 16
//     SunSpider ports ("Tracing achieves the best speedups in integer-heavy
//     benchmarks, up to the 25x speedup on bitops-bitwise-and"): integer
//     and bit kernels should lead, FP/array kernels land at 2x-10x, and the
//     recursion benchmarks are not traced and stay near 1x.
//   * Fig. 11: the fraction of dynamic bytecodes run natively, interpreted
//     and while recording ("in most of the tests, almost all the bytecodes
//     are executed by compiled traces").
//   * Fig. 12: the fraction of runtime per VM activity (the Fig. 2 state
//     machine plus the GC's own line); monitor time should stay small
//     (§6.3).
//   * Trace-hostile kernels: megamorphic dispatch, unbiased branching over
//     megamorphic state and a ten-deep call chain, which all trace; the
//     acceptance bar is the JIT at >= 2x the interpreter on each.
//   * Serving: scripts/s and tail latency of N engine contexts under cache
//     churn, inline and off-thread compile, plus a mix of deadline-killed
//     hostile requests.
//
// Timing protocol. Every Fig. 10 and trace-hostile row runs the interpreter
// and the JIT on fresh engines, interleaved rep by rep: one warm-up rep and
// 10 timed reps, stats off; the row reports each column's median. Every run
// must print the program's committed .expected output. Figs. 11 and 12 read
// their counters from one separate, untimed, stats-on JIT run per program.
// Each serving config runs 3 interleaved rounds and reports the median;
// every request's output is checked against the interpreter's.
//
// Usage: snapshot [--json=FILE] [engine flags...]
//   --json=FILE writes the BENCH.json snapshot that
//   scripts/check_bench_regression.py gates. Engine flags (the repl's, e.g.
//   --no-jit or -O0) apply to the JIT column of the suite and trace-hostile
//   rows. Exits 1 if any run fails its output check (its row is left out of
//   the JSON, which the gate reports as a missing row), 2 on an unknown
//   flag.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "suite.h"

using namespace tracejit;
using namespace tracejit::serve;
using namespace tracejit_bench;

namespace {

/// One JSON object on one line, built key by key.
class JsonRow {
public:
  JsonRow(const char *Group, const std::string &Name) {
    Text = "{\"group\": \"";
    Text += Group;
    Text += "\", \"name\": \"" + Name + "\"";
  }
  JsonRow &num(const char *Key, double V, int Digits = 2) {
    char Buf[64];
    snprintf(Buf, sizeof Buf, "%.*f", Digits, V);
    return raw(Key, Buf);
  }
  JsonRow &flag(const char *Key, bool V) {
    return raw(Key, V ? "true" : "false");
  }
  std::string str() const { return Text + "}"; }

private:
  JsonRow &raw(const char *Key, const char *V) {
    Text += ", \"";
    Text += Key;
    Text += "\": ";
    Text += V;
    return *this;
  }
  std::string Text;
};

// --- Figs. 10-12 and the trace-hostile kernels -------------------------------

struct SpeedupRow {
  const BenchProgram *P;
  double InterpMs, JitMs;
  VMStats Stats; ///< From the untimed stats-on run (suite rows only).
  double speedup() const { return InterpMs / JitMs; }
};

/// Times \p P with the JIT off and under \p Jit. Prints a failure and
/// returns false if a run fails.
bool timeRow(const BenchProgram &P, const EngineOptions &Jit,
             SpeedupRow &Row) {
  Timing T = timeConfigs(P, {interpreterOptions(), Jit});
  if (!T.Ok) {
    printf("%-26s FAILED: %s\n", P.Name, T.Error.c_str());
    return false;
  }
  Row = {&P, T.MedianMs[0], T.MedianMs[1], {}};
  return true;
}

bool runSuite(const EngineOptions &Jit, std::vector<SpeedupRow> &Rows) {
  bool AllOk = true;
  for (const BenchProgram &P : suite()) {
    SpeedupRow Row;
    if (!timeRow(P, Jit, Row)) {
      AllOk = false;
      continue;
    }
    EngineOptions Counted = Jit;
    Counted.CollectStats = true;
    std::string Error;
    if (evalOnce(P, Counted, Error, &Row.Stats) < 0) {
      printf("%-26s FAILED (stats run): %s\n", P.Name, Error.c_str());
      AllOk = false;
      continue;
    }
    Rows.push_back(Row);
  }

  printf("=== Figure 10: speedup of tracing JIT over the baseline "
         "interpreter ===\n");
  printf("%-26s %12s %12s %9s  %s\n", "benchmark", "interp(ms)", "tracing(ms)",
         "speedup", "paper-expectation");
  double LogSum = 0;
  for (const SpeedupRow &R : Rows) {
    LogSum += std::log(R.speedup());
    printf("%-26s %12.2f %12.2f %8.2fx  %s\n", R.P->Name, R.InterpMs, R.JitMs,
           R.speedup(),
           R.P->ExpectTraced ? "traced" : "untraced (recursion)");
  }
  if (!Rows.empty())
    printf("\ngeometric-mean speedup over %zu benchmarks: %.2fx\n",
           Rows.size(), std::exp(LogSum / Rows.size()));

  printf("\n=== Figure 11: fraction of dynamic bytecodes by execution mode "
         "===\n");
  printf("%-26s %10s %10s %10s\n", "benchmark", "native%", "interp%",
         "record%");
  for (const SpeedupRow &R : Rows) {
    const VMStats &S = R.Stats;
    double Total = std::max<double>(1, S.BytecodesNative +
                                           S.BytecodesInterpreted +
                                           S.BytecodesRecorded);
    printf("%-26s %9.1f%% %9.1f%% %9.2f%%\n", R.P->Name,
           100 * S.BytecodesNative / Total,
           100 * S.BytecodesInterpreted / Total,
           100 * S.BytecodesRecorded / Total);
  }

  printf("\n=== Figure 12: fraction of runtime per VM activity ===\n");
  printf("%-26s %8s %8s %8s %8s %8s %8s %8s\n", "benchmark", "native%",
         "interp%", "monitor%", "record%", "compile%", "exit%", "gc%");
  for (const SpeedupRow &R : Rows) {
    const VMStats &S = R.Stats;
    double Total = S.totalSeconds() > 0 ? S.totalSeconds() : 1;
    printf("%-26s", R.P->Name);
    for (Activity A : {Activity::Native, Activity::Interpret,
                       Activity::Monitor, Activity::RecordInterpret,
                       Activity::Compile, Activity::ExitOverhead,
                       Activity::Gc})
      printf(" %7.1f%%", 100.0 * S.ActivitySeconds[(size_t)A] / Total);
    printf("\n");
  }
  printf("\npaper shape check: integer-heavy kernels lead, 2x-20x typical, "
         "untraced ~1x;\ntraced benchmarks run almost entirely natively, "
         "recording well under ~3%%,\nmonitor time small; recursion "
         "benchmarks are ~100%% interpreted.\n");
  return AllOk;
}

bool runTierHostile(const EngineOptions &Jit, std::vector<SpeedupRow> &Rows) {
  static const std::vector<BenchProgram> Kernels = {
      loadProgram("megamorphic"), loadProgram("unbiased-branch"),
      loadProgram("deep-call")};
  printf("\n=== Trace-hostile kernels: interpreter vs trace ===\n");
  printf("%-16s %12s %12s %10s\n", "kernel", "interp(ms)", "trace(ms)",
         "speedup");
  bool AllOk = true, BarMet = true;
  for (const BenchProgram &K : Kernels) {
    SpeedupRow Row;
    if (!timeRow(K, Jit, Row)) {
      AllOk = BarMet = false;
      continue;
    }
    Rows.push_back(Row);
    printf("%-16s %12.2f %12.2f %9.2fx\n", K.Name, Row.InterpMs, Row.JitMs,
           Row.speedup());
    BarMet = BarMet && Row.speedup() >= 2.0;
  }
  printf("\nacceptance bar (every kernel >= 2x the interpreter): %s\n",
         BarMet ? "MET" : "NOT MET");
  return AllOk;
}

// --- Serving -----------------------------------------------------------------

constexpr uint32_t ServeWorkers = 4;
constexpr int Requests = 240;
constexpr int ServeRounds = 3;
constexpr uint32_t ServeCodeCacheBytes = 16 * 1024; // small: constant churn

struct Script {
  std::string Source;
  std::string Expected; // print() checksum
};

/// A request script: a few hot loops with script-specific constants, so
/// distinct scripts compile distinct traces (cache churn), while repeats
/// of the same script re-use warm traces. The checksum is what the pure
/// interpreter prints -- the JIT'd server must match it exactly.
Script makeScript(int Variant, int Iters) {
  std::string S = "var total = 0;\n";
  for (int L = 0; L < 3; ++L) {
    int Mul = Variant * 3 + L + 1, Add = (Variant + L) % 7;
    std::string I = "i" + std::to_string(L);
    S += "var a" + std::to_string(L) + " = 0;\n";
    S += "for (var " + I + " = 0; " + I + " < " + std::to_string(Iters) +
         "; ++" + I + ") { a" + std::to_string(L) + " += " + I + " * " +
         std::to_string(Mul) + " + " + std::to_string(Add) + "; }\n";
    S += "total += a" + std::to_string(L) + ";\n";
  }
  S += "print(total);";

  Engine E(interpreterOptions());
  std::string Out;
  E.setPrintHook([&Out](const std::string &P) { Out += P; });
  E.eval(S);
  return {S, Out};
}

struct ServeConfig {
  std::string Name;
  uint32_t Workers;
  bool OffThread;
  /// One hostile (deadline-killed) request per 30 real ones, interleaved,
  /// so the timeout path runs under the same load as the happy path.
  bool HostileMix;
};

struct ServeRound {
  double ScriptsPerSec = 0, P50Ms = 0, P99Ms = 0;
  uint64_t Queued = 0, Published = 0, Dropped = 0, Flushes = 0;
  double TimeoutRate = 0; ///< Timed-out hostile requests / all requests.
  bool Ok = true;
};

/// Runs forever; only the per-request deadline ends it.
const char *HostileScript = "var t = 0; for (var i = 0; i < 1e18; ++i) t += 1;";
constexpr uint64_t HostileDeadlineMs = 100;

double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = (size_t)(P * (V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

ServeRound serveOnce(const ServeConfig &Cfg,
                     const std::vector<Script> &Scripts) {
  ServerConfig C;
  C.Workers = Cfg.Workers;
  C.QueueDepth = 256;
  C.Engine.EnableJit = true;
  C.Engine.CollectStats = true;
  C.Engine.OffThreadCompile = Cfg.OffThread;
  C.Engine.CodeCacheBytes = ServeCodeCacheBytes;
  C.Engine.MaxCacheFlushes = 1u << 20; // measure churn, not the kill switch
  ServeRound R;

  std::map<uint64_t, const Script *> WantById;
  std::set<uint64_t> HostileIds;
  ScriptServer Server(C);
  auto Start = std::chrono::steady_clock::now();
  for (int I = 0; I < Requests; ++I) {
    const Script &S = Scripts[I % Scripts.size()];
    WantById[Server.submit(S.Source)] = &S;
    if (Cfg.HostileMix && I % 30 == 29)
      HostileIds.insert(Server.submit(HostileScript, HostileDeadlineMs));
  }
  Server.stop(); // graceful: serves the backlog, settles compile queues
  auto End = std::chrono::steady_clock::now();
  R.ScriptsPerSec =
      Requests / std::chrono::duration<double>(End - Start).count();

  std::vector<double> Latencies;
  size_t Served = 0, TimedOut = 0;
  for (const RequestResult &RR : Server.takeResults()) {
    if (HostileIds.count(RR.Id)) {
      if (RR.TimedOut)
        ++TimedOut;
      else
        R.Ok = false; // a hostile request must die of its deadline
      continue;
    }
    ++Served;
    Latencies.push_back(RR.TotalMs);
    const Script &S = *WantById[RR.Id];
    if (!RR.Ok || RR.Output != S.Expected) {
      fprintf(stderr, "request %llu WRONG: ok=%d out=%s want=%s err=%s\n",
              (unsigned long long)RR.Id, RR.Ok, RR.Output.c_str(),
              S.Expected.c_str(), RR.Error.c_str());
      R.Ok = false;
    }
  }
  if (Served != (size_t)Requests)
    R.Ok = false;
  R.TimeoutRate = (double)TimedOut / (double)(Requests + HostileIds.size());
  R.P50Ms = percentile(Latencies, 0.50);
  R.P99Ms = percentile(Latencies, 0.99);
  for (const VMStats &S : Server.workerStats()) {
    R.Queued += S.CompileJobsQueued;
    R.Published += S.CompileJobsPublished;
    R.Dropped += S.CompileJobsDropped;
    R.Flushes += S.CacheFlushes;
  }
  return R;
}

struct ServeRow {
  ServeConfig Cfg;
  /// The median of each timing over the rounds; counters from the last.
  ServeRound Median;
};

bool runServe(std::vector<ServeRow> &Rows) {
  const std::string N = std::to_string(ServeWorkers);
  const std::vector<ServeConfig> Configs = {
      {"1ctx-inline", 1, false, false},
      {"1ctx-offthread", 1, true, false},
      {N + "ctx-inline", ServeWorkers, false, false},
      {N + "ctx-offthread", ServeWorkers, true, false},
      {N + "ctx-hostile-mix", ServeWorkers, true, true},
  };
  std::vector<Script> Scripts;
  for (int V = 0; V < 8; ++V)
    Scripts.push_back(makeScript(V, 20000));

  std::vector<std::vector<ServeRound>> Rounds(Configs.size());
  for (int Round = 0; Round < ServeRounds; ++Round)
    for (size_t C = 0; C < Configs.size(); ++C)
      Rounds[C].push_back(serveOnce(Configs[C], Scripts));

  printf("\n=== Serving: %u contexts, one compiler thread, cache churn "
         "(host has %u cores) ===\n",
         ServeWorkers, std::thread::hardware_concurrency());
  printf("%-18s %12s %10s %10s %9s  %s\n", "config", "scripts/sec",
         "p50(ms)", "p99(ms)", "timeout%", "compile jobs (q/pub/drop)");
  bool AllOk = true;
  for (size_t C = 0; C < Configs.size(); ++C) {
    ServeRound M = Rounds[C].back();
    std::vector<double> Tp, P50, P99;
    for (const ServeRound &R : Rounds[C]) {
      Tp.push_back(R.ScriptsPerSec);
      P50.push_back(R.P50Ms);
      P99.push_back(R.P99Ms);
      M.Ok = M.Ok && R.Ok;
    }
    M.ScriptsPerSec = median(Tp);
    M.P50Ms = median(P50);
    M.P99Ms = median(P99);
    AllOk = AllOk && M.Ok;
    Rows.push_back({Configs[C], M});
    printf("%-18s %12.1f %10.2f %10.2f %8.1f%%  %llu/%llu/%llu  "
           "flushes=%llu%s\n",
           Configs[C].Name.c_str(), M.ScriptsPerSec, M.P50Ms, M.P99Ms,
           100.0 * M.TimeoutRate, (unsigned long long)M.Queued,
           (unsigned long long)M.Published, (unsigned long long)M.Dropped,
           (unsigned long long)M.Flushes, M.Ok ? "" : "  CHECKSUM-FAIL");
  }
  printf("\nshape check: with >= %u cores the off-thread %u-context config "
         "should reach\n>= 2.5x the single-context inline baseline; "
         "off-thread keeps p99 flatter.\n",
         ServeWorkers, ServeWorkers);
  return AllOk;
}

// --- BENCH.json --------------------------------------------------------------

bool writeJson(const std::string &Path, const std::vector<SpeedupRow> &Suite,
               const std::vector<SpeedupRow> &Tier,
               const std::vector<ServeRow> &Serve) {
  std::vector<std::string> Rows;
  for (const SpeedupRow &R : Suite)
    Rows.push_back(JsonRow("suite", R.P->Name)
                       .num("interp_ms", R.InterpMs)
                       .num("jit_ms", R.JitMs)
                       .num("speedup", R.speedup())
                       .flag("traced", R.P->ExpectTraced)
                       .str());
  for (const SpeedupRow &R : Tier)
    Rows.push_back(JsonRow("tier_hostile", R.P->Name)
                       .num("interp_ms", R.InterpMs)
                       .num("jit_ms", R.JitMs)
                       .num("speedup", R.speedup())
                       .str());
  for (const ServeRow &R : Serve)
    Rows.push_back(JsonRow("serve", R.Cfg.Name)
                       .num("workers", R.Cfg.Workers, 0)
                       .flag("off_thread", R.Cfg.OffThread)
                       .num("scripts_per_sec", R.Median.ScriptsPerSec, 1)
                       .num("p50_ms", R.Median.P50Ms, 3)
                       .num("p99_ms", R.Median.P99Ms, 3)
                       .num("timeout_rate", R.Median.TimeoutRate, 4)
                       .flag("ok", R.Median.Ok)
                       .str());

  FILE *F = fopen(Path.c_str(), "w");
  if (!F) {
    fprintf(stderr, "cannot write %s\n", Path.c_str());
    return false;
  }
  fprintf(F, "{\n  \"host\": %s,\n  \"rows\": [\n", hostJson().c_str());
  for (size_t I = 0; I < Rows.size(); ++I)
    fprintf(F, "    %s%s\n", Rows[I].c_str(), I + 1 < Rows.size() ? "," : "");
  fprintf(F, "  ]\n}\n");
  fclose(F);
  printf("\nwrote %s\n", Path.c_str());
  return true;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath;
  EngineOptions Jit = tracingOptions();
  bool AllKnown = true;
  for (int I = 1; I < argc; ++I) {
    if (!strncmp(argv[I], "--json=", 7)) {
      JsonPath = argv[I] + 7;
    } else if (!Jit.applyFlag(argv[I])) {
      fprintf(stderr, "unknown flag: %s\n", argv[I]);
      AllKnown = false;
    }
  }
  if (!AllKnown)
    return 2;

  std::vector<SpeedupRow> Suite, Tier;
  std::vector<ServeRow> Serve;
  bool Ok = runSuite(Jit, Suite);
  Ok = runTierHostile(Jit, Tier) && Ok;
  Ok = runServe(Serve) && Ok;
  if (!JsonPath.empty() && !writeJson(JsonPath, Suite, Tier, Serve))
    return 1;
  return Ok ? 0 : 1;
}

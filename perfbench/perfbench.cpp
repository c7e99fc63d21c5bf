//===- perfbench.cpp - The repository benchmark: workloads, metrics, checks -===//
//
// One workload per invocation:
//
//   perfbench --workload sunspider|trace-hostile|serve --seed N --seconds S
//             --trace 0|1 --programs DIR
//
// prints a fingerprint line, a table of every metric (name, unit, value,
// median / highest percentile with at least ten samples beyond it / sample
// count where the metric is a distribution), and as the last line of
// standard output one JSON object {"correct","attempted","failed","metrics"}.
//
// --trace 0 measures the end-to-end metrics with nothing attached to the
// engine. --trace 1 is the separate traced run: CollectStats on, a
// JitEventListener attached, and the calls into the frontend, analysis and
// heap timed from outside. It reports the per-layer metrics, and the
// tracing overhead from passes that alternate traced and untraced.
//
// Every op's printed output is checked against a reference: the committed
// interpreter output for the program workloads, a JIT-off engine's output
// for the generated serve scripts.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "analysis/analysis.h"
#include "api/engine.h"
#include "frontend/parser.h"
#include "jit/compile_queue.h"
#include "serve/server.h"

using namespace tracejit;
using Clock = std::chrono::steady_clock;

namespace {

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

// --- Statistics ---------------------------------------------------------------

/// Linear-interpolated quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * (double)(V.size() - 1);
  size_t Lo = (size_t)Pos;
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - (double)Lo);
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / (double)V.size());
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// The highest of the usual percentiles that has at least ten samples
/// beyond it; 0 when there are too few samples for any.
double supportedPercentile(size_t N) {
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if ((double)N * (1 - P / 100) >= 10)
      return P;
  return 0;
}

// --- Metric report --------------------------------------------------------------

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
  std::vector<double> Dist; ///< Underlying samples, when a distribution.
  std::string Note;
};

class Report {
public:
  void add(std::string Name, std::string Unit, double Value,
           std::vector<double> Dist = {}, std::string Note = {}) {
    Metrics.push_back({std::move(Name), std::move(Unit), Value,
                       std::move(Dist), std::move(Note)});
  }

  void printTable() const {
    printf("%-32s %-6s %14s   %s\n", "metric", "unit", "value",
           "distribution (median / highest supported percentile / n)");
    for (const Metric &M : Metrics) {
      printf("%-32s %-6s %14.6g", M.Name.c_str(), M.Unit.c_str(), M.Value);
      if (!M.Dist.empty()) {
        double P = supportedPercentile(M.Dist.size());
        printf("   median %.4g", median(M.Dist));
        if (P > 0)
          printf(" / p%g %.4g", P, quantile(M.Dist, P / 100));
        else
          printf(" / (no percentile has 10 samples beyond it)");
        printf(" / n=%zu", M.Dist.size());
      }
      if (!M.Note.empty())
        printf("   [%s]", M.Note.c_str());
      printf("\n");
    }
  }

  /// The result line. Returns false when a value is not finite.
  bool printJson(uint64_t Attempted, uint64_t Failed) const {
    bool Finite = true;
    std::string S = "{\"correct\": ";
    S += Failed == 0 ? "true" : "false";
    S += ", \"attempted\": " + std::to_string(Attempted);
    S += ", \"failed\": " + std::to_string(Failed);
    S += ", \"metrics\": {";
    for (size_t I = 0; I < Metrics.size(); ++I) {
      const Metric &M = Metrics[I];
      char Buf[64];
      if (std::isfinite(M.Value)) {
        snprintf(Buf, sizeof Buf, "%.17g", M.Value);
      } else {
        snprintf(Buf, sizeof Buf, "null");
        Finite = false;
      }
      S += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + M.Unit + "\"}";
    }
    S += "}}";
    printf("%s\n", S.c_str());
    return Finite;
  }

private:
  std::vector<Metric> Metrics;
};

/// Correctness bookkeeping shared by every workload: one op is one eval
/// whose output is compared with its reference.
struct OpCounts {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void check(const std::string &What, bool Ok, const std::string &Got,
             const std::string &Want, const std::string &Err) {
    ++Attempted;
    if (Ok && Got == Want)
      return;
    if (++Failed <= 5)
      fprintf(stderr, "perfbench: %s FAILED: %s got '%s' want '%s'\n",
              What.c_str(), Ok ? "wrong output," : Err.c_str(), Got.c_str(),
              Want.c_str());
  }
};

/// Print the table, failed_frac and the result line; the exit code.
int finish(const Report &R, const OpCounts &C) {
  R.printTable();
  printf("failed_frac: %.6g (%llu / %llu)\n", ratio(C.Failed, C.Attempted),
         (unsigned long long)C.Failed, (unsigned long long)C.Attempted);
  return R.printJson(C.Attempted, C.Failed) ? 0 : 1;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return (double)U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

// --- Layer probe ------------------------------------------------------------------

/// Listens to the engine's JitEvent stream and turns it into per-layer
/// counts and times. One probe per engine: fragment ids are per engine.
class LayerProbe final : public JitEventListener {
public:
  uint64_t Records = 0;   ///< RecordStart.
  uint64_t RecordsOk = 0; ///< Recordings that reached a compile.
  double RecordMs = 0;    ///< Sum of RecordStart -> end of recording.
  std::vector<double> QueuePublishMs; ///< CompileJobQueued -> compiled.
  uint64_t GCs = 0;
  uint64_t NativeBytes = 0; ///< Of every fragment compiled.

  void onEvent(const JitEvent &E) override {
    Clock::time_point Now = Clock::now();
    switch (E.Kind) {
    case JitEventKind::RecordStart:
      ++Records;
      Recording[E.FragmentId] = Now;
      break;
    case JitEventKind::RecordAbort:
      endRecording(E.FragmentId, Now);
      break;
    case JitEventKind::CompileJobQueued:
      ++RecordsOk;
      endRecording(E.FragmentId, Now);
      Queued[E.FragmentId] = Now;
      break;
    case JitEventKind::CompileJobDropped:
      Queued.erase(E.FragmentId);
      break;
    case JitEventKind::TreeCompiled:
    case JitEventKind::BranchCompiled: {
      NativeBytes += E.Arg1;
      auto Q = Queued.find(E.FragmentId);
      if (Q != Queued.end()) {
        QueuePublishMs.push_back(msBetween(Q->second, Now));
        Queued.erase(Q);
      } else {
        ++RecordsOk;
        endRecording(E.FragmentId, Now);
      }
      break;
    }
    case JitEventKind::GC:
      ++GCs;
      break;
    default:
      break;
    }
  }

private:
  void endRecording(uint32_t Id, Clock::time_point Now) {
    auto R = Recording.find(Id);
    if (R == Recording.end())
      return;
    RecordMs += msBetween(R->second, Now);
    Recording.erase(R);
  }

  std::unordered_map<uint32_t, Clock::time_point> Recording;
  std::unordered_map<uint32_t, Clock::time_point> Queued;
};

/// Per-layer totals over the traced part of a run, reported per op.
struct LayerTotals {
  uint64_t Ops = 0;      ///< Ops the engine statistics cover.
  uint64_t EventOps = 0; ///< Ops the probe's event counts cover.
  VMStats Stats;
  uint64_t Records = 0, RecordsOk = 0, GCs = 0;
  double RecordMs = 0;
  std::vector<double> QueuePublishMs;
  std::vector<double> CollectMs;
  std::vector<double> EngineCreateMs;

  void addProbe(const LayerProbe &P) {
    Records += P.Records;
    RecordsOk += P.RecordsOk;
    GCs += P.GCs;
    RecordMs += P.RecordMs;
    QueuePublishMs.insert(QueuePublishMs.end(), P.QueuePublishMs.begin(),
                          P.QueuePublishMs.end());
  }
};

/// Frontend and analysis cost, timed from outside through compileSource()
/// and analyzeScript() on a scratch engine, repeated until the timings
/// cover at least \p MinMs.
void timeFrontendAndAnalysis(const std::vector<std::string> &Sources,
                             double MinMs, Report &R) {
  double Kb = 0;
  for (const std::string &S : Sources)
    Kb += (double)S.size() / 1024.0;
  std::vector<double> ParseUsPerKb, AnalysisUsPerScript;
  double Spent = 0;
  while (Spent < MinMs || ParseUsPerKb.size() < 5) {
    EngineOptions O;
    O.EnableJit = false;
    Engine E(O);
    VMContext &Ctx = E.context();
    double ParseMs = 0, AnalysisMs = 0;
    size_t Scripts = 0;
    for (const std::string &S : Sources) {
      size_t First = Ctx.Scripts.size();
      EngineError Err;
      Clock::time_point T0 = Clock::now();
      FunctionScript *Top = compileSource(Ctx, S, &Err);
      Clock::time_point T1 = Clock::now();
      if (!Top) {
        fprintf(stderr, "perfbench: parse error: %s\n", Err.describe().c_str());
        exit(1);
      }
      ParseMs += msBetween(T0, T1);
      for (size_t I = First; I < Ctx.Scripts.size(); ++I) {
        Clock::time_point A0 = Clock::now();
        std::unique_ptr<ScriptAnalysis> A =
            analyzeScript(*Ctx.Scripts[I], Ctx.Globals.size());
        AnalysisMs += msBetween(A0, Clock::now());
        ++Scripts;
      }
    }
    ParseUsPerKb.push_back(1000.0 * ParseMs / Kb);
    AnalysisUsPerScript.push_back(1000.0 * AnalysisMs / (double)Scripts);
    Spent += ParseMs + AnalysisMs;
  }
  R.add("frontend.parse_us_per_kb", "us", median(ParseUsPerKb), ParseUsPerKb);
  R.add("analysis.us_per_script", "us", median(AnalysisUsPerScript),
        AnalysisUsPerScript);
}

/// The per-layer metrics every workload reports. \p PerOp names what one
/// op is; counts and times are per op. \p InterpNsPerBc comes from a JIT-off
/// pass over the same inputs.
void addLayerMetrics(Report &R, const LayerTotals &L, double InterpNsPerBc,
                     const char *PerOp) {
  const VMStats &S = L.Stats;
  double Ops = (double)std::max<uint64_t>(L.Ops, 1);
  double EventOps = (double)std::max<uint64_t>(L.EventOps, 1);
  std::string Per = std::string("per ") + PerOp;
  R.add("analysis.guards_elided", "count", S.StaticGuardsElided / Ops, {}, Per);
  R.add("interp.ns_per_bytecode", "ns", InterpNsPerBc, {}, "JIT off");
  double AllBc = (double)(S.BytecodesInterpreted + S.BytecodesNative +
                          S.BytecodesRecorded);
  R.add("interp.bytecode_share", "ratio",
        ratio((double)S.BytecodesInterpreted, AllBc), {}, "JIT on");
  R.add("trace.records", "count", (double)L.Records / EventOps, {}, Per);
  R.add("trace.record_success_ratio", "ratio",
        ratio((double)L.RecordsOk, (double)L.Records));
  R.add("trace.record_ms", "ms", L.RecordMs / EventOps, {}, Per);
  R.add("trace.side_exits", "count", (double)S.SideExits / Ops, {}, Per);
  R.add("trace.blacklisted", "count", (double)S.LoopsBlacklisted / Ops, {},
        Per);
  R.add("lir.ins_emitted", "count", (double)S.LirEmitted / Ops, {}, Per);
  R.add("lir.ins_after_filters", "count",
        (double)S.LirAfterBackwardFilters / Ops, {}, Per);
  R.add("lir.guards_eliminated", "count", (double)S.GuardsEliminated / Ops, {},
        Per);
  R.add("lir.ins_hoisted", "count", (double)S.InsHoisted / Ops, {}, Per);
  auto ActMs = [&](Activity A) {
    return 1000.0 * S.ActivitySeconds[(size_t)A] / Ops;
  };
  R.add("jit.compile_ms", "ms", ActMs(Activity::Compile), {}, Per);
  R.add("jit.native_ms", "ms", ActMs(Activity::Native), {}, Per);
  R.add("jit.exit_ms", "ms", ActMs(Activity::ExitOverhead), {}, Per);
  R.add("jit.queue_publish_ms_p50", "ms", median(L.QueuePublishMs),
        L.QueuePublishMs,
        L.QueuePublishMs.empty() ? "no off-thread compiles" : "");
  R.add("jit.jobs_dropped_ratio", "ratio",
        ratio((double)S.CompileJobsDropped, (double)S.CompileJobsQueued));
  R.add("jit.cache_flushes", "count", (double)S.CacheFlushes / Ops, {}, Per);
  R.add("jit.kill_switch_trips", "count", (double)S.JitDisables / Ops, {},
        "engines tripped, " + Per);
  R.add("vm.gc_count", "count", (double)L.GCs / EventOps, {}, Per);
  R.add("vm.gc_ms_per_collect", "ms", median(L.CollectMs), L.CollectMs,
        "timed Heap::collect() after each eval");
  R.add("vm.ic_hit_ratio", "ratio",
        ratio((double)S.IcHits, (double)(S.IcHits + S.IcMisses)));
}

// --- Program workloads: sunspider, trace-hostile ---------------------------------

struct Program {
  std::string Name;
  std::string Source;
  std::string Expected;
};

/// Why these programs: see BENCHMARK.json and perfbench/README.md.
const std::vector<const char *> SunSpiderPrograms = {
    "bitops-bitwise-and", "bitops-3bit-bits-in-byte", "bitops-bits-in-byte",
    "bitops-nsieve-bits", "access-nsieve",            "access-fannkuch",
    "access-nbody",       "math-cordic",              "math-partial-sums",
    "math-spectral-norm", "3d-morph",                 "crypto-sha1",
    "string-base64",      "string-validate-input"};

const std::vector<const char *> TraceHostilePrograms = {
    "access-binary-trees", "controlflow-recursive", "megamorphic",
    "unbiased-branch", "deep-call"};

/// The run is cut into this many rounds by time, and each round starts with a
/// set-up: a warm-up pass. setup_s is the median of the rounds' set-ups, so
/// it covers the whole run, not only its first seconds.
constexpr int SetupRounds = 9;

std::string readFile(const std::string &Path) {
  std::ifstream F(Path, std::ios::binary);
  if (!F) {
    fprintf(stderr, "perfbench: cannot read %s\n", Path.c_str());
    exit(1);
  }
  std::stringstream SS;
  SS << F.rdbuf();
  return SS.str();
}

std::vector<Program> loadPrograms(const std::string &Dir,
                                  const std::vector<const char *> &Names) {
  std::vector<Program> Out;
  for (const char *N : Names)
    Out.push_back({N, readFile(Dir + "/" + N + ".js"),
                   readFile(Dir + "/" + N + ".expected")});
  return Out;
}

/// One op of a program workload: a fresh Engine, one eval, output checked.
struct EvalTiming {
  double CreateMs = 0;
  double EvalMs = 0;
};

EvalTiming runProgram(const Program &P, const EngineOptions &O, OpCounts &C,
                      LayerProbe *Probe, LayerTotals *L,
                      uint64_t *NativeBytes) {
  EvalTiming T;
  Clock::time_point T0 = Clock::now();
  Engine E(O);
  Clock::time_point T1 = Clock::now();
  std::string Out;
  E.setPrintHook([&Out](const std::string &S) { Out += S; });
  if (Probe)
    E.addEventListener(Probe);
  Clock::time_point T2 = Clock::now();
  EvalResult R = E.eval(P.Source);
  Clock::time_point T3 = Clock::now();
  T.CreateMs = msBetween(T0, T1);
  T.EvalMs = msBetween(T2, T3);
  C.check(P.Name, R.ok(), Out, P.Expected, R.Err.describe());
  if (NativeBytes)
    for (const FragmentProfile &F : E.fragmentProfiles())
      *NativeBytes += F.NativeBytes;
  if (L) {
    L->Stats.accumulate(E.stats());
    L->EngineCreateMs.push_back(T.CreateMs);
    Clock::time_point G0 = Clock::now();
    E.context().TheHeap.collect();
    L->CollectMs.push_back(msBetween(G0, Clock::now()));
  }
  if (Probe)
    E.removeEventListener(Probe);
  return T;
}

int runPrograms(const std::vector<Program> &Progs, uint64_t Seed,
                double Seconds, bool Trace) {
  OpCounts C;
  Report R;
  const EngineOptions Default;
  std::mt19937_64 Rng(Seed);

  LayerTotals L;
  double InterpNsPerBc = 0;
  if (Trace) {
    std::vector<std::string> Sources;
    for (const Program &P : Progs)
      Sources.push_back(P.Source);
    timeFrontendAndAnalysis(Sources, 200, R);
    // interp.ns_per_bytecode: one JIT-off pass with the bytecode counter on.
    EngineOptions Off;
    Off.EnableJit = false;
    Off.CollectStats = true;
    double Ms = 0;
    uint64_t Bc = 0;
    for (const Program &P : Progs) {
      LayerTotals Tmp;
      Ms += runProgram(P, Off, C, nullptr, &Tmp, nullptr).EvalMs;
      Bc += Tmp.Stats.BytecodesInterpreted;
    }
    InterpNsPerBc = ratio(1e6 * Ms, (double)Bc);
  }

  // Each round: a set-up (a warm-up pass, each program once on a fresh
  // engine, timed as a whole), then timed passes until the round's share of
  // the run is over. Each timed pass runs every program once, in an order the
  // seed shuffles anew. In the traced run, odd passes are traced and even
  // passes are not, so the tracing overhead is measured under the same
  // conditions.
  EngineOptions Traced = Default;
  Traced.CollectStats = true;
  // Per program: untraced evals, untraced ops (engine creation + eval),
  // traced evals.
  std::vector<std::vector<double>> EvalMs(Progs.size()), OpMs(Progs.size()),
      TracedEvalMs(Progs.size());
  std::vector<size_t> Order(Progs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::vector<double> SetupS;
  uint64_t NativeBytes = 0;
  size_t Passes = 0;
  Clock::time_point Start = Clock::now();
  for (int Round = 0; Round < SetupRounds; ++Round) {
    Clock::time_point S0 = Clock::now();
    for (const Program &P : Progs)
      runProgram(P, Default, C, nullptr, nullptr, nullptr);
    SetupS.push_back(msBetween(S0, Clock::now()) / 1000.0);
    double RoundEndMs = Seconds * 1000 * (Round + 1) / SetupRounds;
    do {
      std::shuffle(Order.begin(), Order.end(), Rng);
      bool TracedPass = Trace && Passes % 2 == 1;
      for (size_t I : Order) {
        if (TracedPass) {
          LayerProbe Probe;
          EvalTiming T = runProgram(Progs[I], Traced, C, &Probe, &L, nullptr);
          L.addProbe(Probe);
          TracedEvalMs[I].push_back(T.EvalMs);
          continue;
        }
        EvalTiming T = runProgram(Progs[I], Default, C, nullptr, nullptr,
                                  Passes == 0 ? &NativeBytes : nullptr);
        EvalMs[I].push_back(T.EvalMs);
        OpMs[I].push_back(T.CreateMs + T.EvalMs);
      }
      ++Passes;
    } while (Passes < 2 || msBetween(Start, Clock::now()) < RoundEndMs);
  }
  L.Ops = L.EventOps = Passes / 2; // traced passes

  // The time metrics take each program's median over the run. On the
  // reference host a single eval varied by up to 2x from one moment to the
  // next, but the median of a program's 100-200 evals moved by a few percent
  // from run to run, less than the fastest eval did.
  auto Medians = [](const std::vector<std::vector<double>> &V) {
    std::vector<double> M;
    for (const std::vector<double> &S : V)
      M.push_back(median(S));
    return M;
  };
  auto All = [](const std::vector<std::vector<double>> &V) {
    std::vector<double> A;
    for (const std::vector<double> &S : V)
      A.insert(A.end(), S.begin(), S.end());
    return A;
  };

  if (!Trace) {
    R.add("eval_ms_geomean", "ms", geomean(Medians(EvalMs)), All(EvalMs),
          "geomean over programs of the median eval");
    R.add("native_code_kb", "KiB", (double)NativeBytes / 1024.0, {},
          "one pass");
    std::vector<double> OpMedians = Medians(OpMs);
    double PassMs = 0;
    for (double Ms : OpMedians)
      PassMs += Ms;
    R.add("scripts_per_s", "1/s", (double)OpMedians.size() / (PassMs / 1000),
          {}, "programs / sum of each program's median op");
    R.add("latency_p50_ms", "ms", median(OpMedians), All(OpMs),
          "op = engine creation + eval; over each program's median op");
    R.add("latency_p99_ms", "ms", quantile(OpMedians, 0.99), All(OpMs),
          "over each program's median op");
    R.add("peak_rss_mb", "MB", peakRssMb());
    R.add("setup_s", "s", median(SetupS), SetupS,
          "warm-up pass at the start of each round");
  } else {
    addLayerMetrics(R, L, InterpNsPerBc, "pass");
    R.add("serve.queue_ms_p50", "ms", 0, {}, "closed loop: no queue");
    std::vector<double> AllTraced = All(TracedEvalMs);
    R.add("serve.eval_ms_p99", "ms", quantile(AllTraced, 0.99), AllTraced,
          "every traced eval");
    R.add("serve.generator_late_ms_p99", "ms", 0, {}, "closed loop");
    R.add("serve.repeat_share", "ratio", 1, {},
          "every program ran in the warm-up");
    R.add("api.engine_create_ms", "ms", median(L.EngineCreateMs),
          L.EngineCreateMs);
    double Untraced = geomean(Medians(EvalMs));
    double TracedGm = geomean(Medians(TracedEvalMs));
    R.add("tracing.overhead_ms", "ms", TracedGm - Untraced, {},
          "eval_ms_geomean traced " + std::to_string(TracedGm) +
              " - untraced " + std::to_string(Untraced));
  }
  printf("passes: %zu, programs: %zu\n", Passes, Progs.size());
  return finish(R, C);
}

// --- serve ------------------------------------------------------------------------

/// Deployment settings of the serve workload (see perfbench/README.md for
/// how each was chosen).
constexpr uint32_t ServeWorkers = 2;
constexpr size_t ServePoolSize = 128;   ///< Distinct scripts per seed.
constexpr double ServeZipfExponent = 1.0;
/// Per-context code-cache quota: several times the largest single
/// request's native code, so one request never trips the MaxCacheFlushes
/// kill switch, and far below the pool's working set, so flushes recur.
constexpr size_t ServeCodeCacheBytes = 64 * 1024;
/// Requests per saturation burst. Every run serves the same number of
/// bursts (see serveBursts), so runs compare request for request: peak RSS
/// grows with the requests a server has served.
constexpr size_t ServeBurstRequests = 250;
/// Open-loop offered rate: about half the lowest capacity measured on the
/// reference host (~550/s while other tenants contended for it), so a slow
/// period does not overload the server and turn latency into queue growth.
constexpr double ServeRatePerS = 250;
/// Warm-up requests served by each freshly constructed server.
constexpr size_t ServeWarmupRequests = 32;
/// The run is cut into rounds. Each round starts ServeStartsPerRound servers
/// one after the other (set-up, each timed; the last one is kept), then runs
/// its share of the saturation bursts and of the open loop on it, and stops
/// it. setup_s is the median of every start, so it covers the whole run.
constexpr int ServeRounds = 6;
constexpr int ServeStartsPerRound = 3;

struct ServeScript {
  std::string Source;
  std::string Expected;
};

uint64_t uniformInt(std::mt19937_64 &R, uint64_t Lo, uint64_t Hi) {
  return Lo + R() % (Hi - Lo + 1);
}

/// One request script: one block each of object literals with varied
/// property sets read in a loop, string building, calls, and a numeric loop,
/// in a seeded order with seeded constants. Loop trip counts vary only a
/// little, so scripts cost about the same and the skewed request mix does
/// not make a run's cost depend on which scripts the seed made hot. Every
/// block folds its result into the checksum h, which is printed.
std::string makeServeScript(std::mt19937_64 &R) {
  static const char *PropNames[] = {"a", "b", "c", "d", "e",
                                    "f", "g", "k", "m", "n"};
  std::string S = "var h = " + std::to_string(uniformInt(R, 1, 999)) + ";\n";
  int Kinds[] = {0, 1, 2, 3};
  std::shuffle(std::begin(Kinds), std::end(Kinds), R);
  for (int B = 0; B < 4; ++B) {
    std::string Sfx = std::to_string(B);
    std::string I = "i" + Sfx;
    auto Num = [&](uint64_t Lo, uint64_t Hi) {
      return std::to_string(uniformInt(R, Lo, Hi));
    };
    switch (Kinds[B]) {
    case 0: { // Object literals, one or two property sets, read in a loop.
      std::vector<std::string> Names(std::begin(PropNames),
                                     std::end(PropNames));
      std::shuffle(Names.begin(), Names.end(), R);
      const std::string A = Names[0], Bn = Names[1];
      // A literal holds the two properties the loop reads plus 0-3 extras,
      // in a shuffled order: each order and set is its own shape.
      auto Literal = [&] {
        std::vector<std::string> Props = {A, Bn};
        size_t Extras = uniformInt(R, 0, 3);
        for (size_t K = 0; K < Extras; ++K)
          Props.push_back(Names[2 + uniformInt(R, 0, Names.size() - 3)]);
        std::sort(Props.begin() + 2, Props.end());
        Props.erase(std::unique(Props.begin() + 2, Props.end()), Props.end());
        std::shuffle(Props.begin(), Props.end(), R);
        std::string L = "{";
        for (size_t K = 0; K < Props.size(); ++K) {
          std::string V = Props[K] == A    ? I + " + " + Num(1, 50)
                          : Props[K] == Bn ? I + " * " + Num(2, 9)
                                           : Num(1, 99);
          L += (K ? ", " : "") + Props[K] + ": " + V;
        }
        return L + "}";
      };
      std::string Objs = "objs" + Sfx, Sum = "s" + Sfx, O = "o" + Sfx;
      std::string N = Num(16, 64);
      S += "var " + Objs + " = [];\n";
      S += "for (var " + I + " = 0; " + I + " < " + N + "; ++" + I + ") ";
      if (R() % 2)
        S += "{ if (" + I + " % 2 == 0) " + Objs + "[" + I + "] = " +
             Literal() + "; else " + Objs + "[" + I + "] = " + Literal() +
             "; }\n";
      else
        S += Objs + "[" + I + "] = " + Literal() + ";\n";
      S += "var " + Sum + " = 0;\n";
      S += "for (var " + I + " = 0; " + I + " < " + Num(2500, 3000) + "; ++" +
           I + ") { var " + O + " = " + Objs + "[" + I + " % " + N + "]; " +
           Sum + " = (" + Sum + " + " + O + "." + A + " * " + Num(2, 9) +
           " + " + O + "." + Bn + ") % 1000003; }\n";
      S += "h = (h * 31 + " + Sum + ") % 1000003;\n";
      break;
    }
    case 1: { // String building, then a character checksum.
      std::string Str = "str" + Sfx, Cs = "cs" + Sfx;
      S += "var " + Str + " = \"\";\n";
      S += "for (var " + I + " = 0; " + I + " < " + Num(500, 600) + "; ++" +
           I + ") " + Str + " = " + Str + " + String.fromCharCode(97 + (" +
           I + " * " + Num(3, 29) + ") % 26);\n";
      S += "var " + Cs + " = 0;\n";
      S += "for (var " + I + " = 0; " + I + " < " + Str + ".length; ++" + I +
           ") " + Cs + " = (" + Cs + " + " + Str + ".charCodeAt(" + I +
           ") * (" + I + " % " + Num(3, 11) + " + 1)) % 1000003;\n";
      S += "h = (h * 31 + " + Cs + ") % 1000003;\n";
      break;
    }
    case 2: { // Calls.
      std::string F = "f" + Sfx, A = "c" + Sfx;
      S += "function " + F + "(a, x) { return (a * " + Num(3, 97) +
           " + x + " + Num(1, 1000) + ") % 65521; }\n";
      S += "var " + A + " = " + Num(0, 1000) + ";\n";
      S += "for (var " + I + " = 0; " + I + " < " + Num(3500, 4000) + "; ++" +
           I + ") " + A + " = " + F + "(" + A + ", " + I + ");\n";
      S += "h = (h * 31 + " + A + ") % 1000003;\n";
      break;
    }
    default: { // Numeric loop: integer bit mixing or a float sum.
      std::string A = "acc" + Sfx;
      S += "var " + A + " = 0;\n";
      if (R() % 2) {
        S += "for (var " + I + " = 0; " + I + " < " + Num(5000, 6000) +
             "; ++" + I + ") " + A + " = (" + A + " + ((" + I + " * " +
             Num(3, 999) + ") ^ (" + I + " >> " + Num(1, 5) +
             "))) & 1048575;\n";
        S += "h = (h * 31 + " + A + ") % 1000003;\n";
      } else {
        S += "for (var " + I + " = 0; " + I + " < " + Num(5000, 6000) +
             "; ++" + I + ") " + A + " = " + A + " + Math.sqrt(" + I + " + " +
             Num(1, 99) + ") * " + Num(2, 7) + ";\n";
        S += "h = (h * 31 + Math.floor(" + A + ")) % 1000003;\n";
      }
      break;
    }
    }
  }
  S += "print(h);\n";
  return S;
}

/// Skewed request stream: Zipf over ranks, with a seeded rank -> script map
/// so which scripts are hot depends on the seed.
class ZipfPicker {
public:
  ZipfPicker(std::mt19937_64 &R, size_t N, double Exponent) : Perm(N) {
    double Sum = 0;
    for (size_t K = 1; K <= N; ++K) {
      Sum += 1.0 / std::pow((double)K, Exponent);
      Cdf.push_back(Sum);
    }
    for (double &C : Cdf)
      C /= Sum;
    for (size_t I = 0; I < N; ++I)
      Perm[I] = I;
    std::shuffle(Perm.begin(), Perm.end(), R);
  }
  size_t pick(std::mt19937_64 &R) const {
    double U = std::uniform_real_distribution<double>(0, 1)(R);
    size_t Rank = std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin();
    return Perm[std::min(Rank, Perm.size() - 1)];
  }

private:
  std::vector<double> Cdf;
  std::vector<size_t> Perm;
};

EngineOptions serveEngineOptions(bool Traced) {
  EngineOptions O;
  O.OffThreadCompile = true;
  O.CodeCacheBytes = ServeCodeCacheBytes;
  O.CollectStats = Traced;
  return O;
}

/// What a phase served. Saturation and open-loop stretches append to it.
struct ServePhase {
  std::vector<double> EvalMs, QueueMs, LatencyMs, LateMs;
  std::vector<double> BurstPerS; ///< Saturation: each burst's throughput.
  double BurstWallS = 0;         ///< Saturation: summed burst wall time.
  uint64_t Completed = 0;
  uint64_t Repeats = 0;
};

/// Check and collect the results of \p Server for the requests in \p Want.
/// \p LateMs maps an open-loop request to how late it was submitted.
void collectResults(serve::ScriptServer &Server,
                    std::map<uint64_t, size_t> &Want,
                    const std::vector<ServeScript> &Pool,
                    const std::map<uint64_t, double> &LateMs, OpCounts &C,
                    ServePhase &P) {
  for (const serve::RequestResult &RR : Server.takeResults()) {
    auto W = Want.find(RR.Id);
    if (W == Want.end())
      continue;
    const ServeScript &S = Pool[W->second];
    C.check("serve request", RR.Ok, RR.Output, S.Expected, RR.Error);
    Want.erase(W);
    if (!RR.Ok)
      continue;
    ++P.Completed;
    P.EvalMs.push_back(RR.EvalMs);
    P.QueueMs.push_back(RR.QueueMs);
    auto L = LateMs.find(RR.Id);
    if (L != LateMs.end())
      P.LatencyMs.push_back(L->second + RR.TotalMs);
  }
  C.Attempted += Want.size(); // unserved
  C.Failed += Want.size();
}

/// Saturation: \p Bursts bursts of ServeBurstRequests, each submitted as
/// fast as the queue takes it and timed until all are served.
void saturate(serve::ScriptServer &Server, const std::vector<ServeScript> &Pool,
              const ZipfPicker &Pick, std::mt19937_64 &Rng,
              std::vector<bool> &Seen, size_t Bursts, OpCounts &C,
              ServePhase &P) {
  for (size_t B = 0; B < Bursts; ++B) {
    std::map<uint64_t, size_t> Want;
    uint64_t Before = P.Completed;
    Clock::time_point B0 = Clock::now();
    for (size_t K = 0; K < ServeBurstRequests; ++K) {
      size_t I = Pick.pick(Rng);
      P.Repeats += Seen[I];
      Seen[I] = true;
      Want[Server.submit(Pool[I].Source)] = I;
    }
    Server.drain();
    double WallS = msBetween(B0, Clock::now()) / 1000.0;
    collectResults(Server, Want, Pool, {}, C, P);
    P.BurstPerS.push_back((double)(P.Completed - Before) / WallS);
    P.BurstWallS += WallS;
  }
}

/// Open loop: Poisson arrivals at ServeRatePerS for \p Seconds, submitted
/// from this thread at their due times; latency is timed from the due time.
void openLoop(serve::ScriptServer &Server, const std::vector<ServeScript> &Pool,
              const ZipfPicker &Pick, std::mt19937_64 &Rng,
              std::vector<bool> &Seen, double Seconds, OpCounts &C,
              ServePhase &P) {
  std::exponential_distribution<double> Gap(ServeRatePerS);
  std::map<uint64_t, size_t> Want;
  std::map<uint64_t, double> LateMs;
  Clock::time_point Start = Clock::now();
  double DueS = 0;
  for (;;) {
    DueS += Gap(Rng);
    if (DueS >= Seconds)
      break;
    size_t I = Pick.pick(Rng);
    P.Repeats += Seen[I];
    Seen[I] = true;
    Clock::time_point Due =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(DueS));
    std::this_thread::sleep_until(Due);
    double Late = msBetween(Due, Clock::now());
    uint64_t Id = Server.submit(Pool[I].Source);
    Want[Id] = I;
    LateMs[Id] = Late;
    P.LateMs.push_back(Late);
  }
  Server.drain();
  collectResults(Server, Want, Pool, LateMs, C, P);
}

/// Saturation bursts for a phase given \p Share of \p Seconds: four bursts
/// per second of the share, at least \p Min. The count depends only on the
/// arguments, not on the host's speed, so a run on a slow host serves the
/// same requests and lasts longer than \p Seconds.
size_t serveBursts(double Seconds, double Share, size_t Min) {
  return std::max<size_t>(Min, (size_t)(Seconds * Share * 4));
}

serve::ServerConfig serveConfig(bool Traced) {
  serve::ServerConfig Cfg;
  Cfg.Workers = ServeWorkers;
  Cfg.QueueDepth = 4096; // the open-loop generator must never block
  Cfg.Engine = serveEngineOptions(Traced);
  return Cfg;
}

/// Construct a server and serve the first ServeWarmupRequests pool scripts.
std::unique_ptr<serve::ScriptServer>
startServer(bool Traced, const std::vector<ServeScript> &Pool, OpCounts &C) {
  auto S = std::make_unique<serve::ScriptServer>(serveConfig(Traced));
  std::map<uint64_t, size_t> Want;
  for (size_t I = 0; I < ServeWarmupRequests; ++I)
    Want[S->submit(Pool[I].Source)] = I;
  S->drain();
  ServePhase Ignored;
  collectResults(*S, Want, Pool, {}, C, Ignored);
  return S;
}

/// One pass over the pool on a single engine with options \p O and a
/// listener: native code per pass, and the event-derived layer metrics the
/// server cannot expose (it owns its engines). Returns the largest native
/// code one script compiled, which the code-cache quota must exceed.
uint64_t replayPool(const std::vector<ServeScript> &Pool,
                    const EngineOptions &O, OpCounts &C, LayerProbe &Probe,
                    LayerTotals *L) {
  Engine E(O);
  std::string Out;
  E.setPrintHook([&Out](const std::string &S) { Out += S; });
  E.addEventListener(&Probe);
  uint64_t MaxScriptBytes = 0;
  for (const ServeScript &S : Pool) {
    Out.clear();
    uint64_t Before = Probe.NativeBytes;
    EvalResult R = E.eval(S.Source);
    E.waitForCompileQueue();
    MaxScriptBytes = std::max(MaxScriptBytes, Probe.NativeBytes - Before);
    C.check("serve replay", R.ok(), Out, S.Expected, R.Err.describe());
    if (L) {
      Clock::time_point G0 = Clock::now();
      E.context().TheHeap.collect();
      L->CollectMs.push_back(msBetween(G0, Clock::now()));
    }
  }
  E.removeEventListener(&Probe);
  return MaxScriptBytes;
}

int runServe(uint64_t Seed, double Seconds, bool Trace) {
  OpCounts C;
  Report R;
  std::mt19937_64 Rng(Seed);

  // The pool and its references (a JIT-off engine's output) are inputs,
  // computed before set-up starts.
  std::vector<ServeScript> Pool;
  std::vector<std::string> Sources;
  double RefMs = 0;
  uint64_t RefBc = 0;
  for (size_t I = 0; I < ServePoolSize; ++I) {
    ServeScript S{makeServeScript(Rng), ""};
    EngineOptions Off;
    Off.EnableJit = false;
    Off.CollectStats = Trace;
    Engine E(Off);
    E.setPrintHook([&S](const std::string &P) { S.Expected += P; });
    Clock::time_point T0 = Clock::now();
    EvalResult Res = E.eval(S.Source);
    RefMs += msBetween(T0, Clock::now());
    RefBc += E.stats().BytecodesInterpreted;
    if (!Res.ok()) {
      fprintf(stderr, "perfbench: generated script failed: %s\n%s",
              Res.Err.describe().c_str(), S.Source.c_str());
      return 1;
    }
    Sources.push_back(S.Source);
    Pool.push_back(std::move(S));
  }
  ZipfPicker Pick(Rng, Pool.size(), ServeZipfExponent);
  std::vector<bool> Seen(Pool.size(), false);

  if (!Trace) {
    std::vector<double> SetupS;
    ServePhase Sat, Open;
    size_t BurstsPerRound =
        serveBursts(Seconds, 0.3, ServeRounds) / ServeRounds;
    for (int Round = 0; Round < ServeRounds; ++Round) {
      std::unique_ptr<serve::ScriptServer> Server;
      for (int Start = 0; Start < ServeStartsPerRound; ++Start) {
        if (Server)
          Server->stop();
        Server.reset();
        Clock::time_point S0 = Clock::now();
        Server = startServer(false, Pool, C);
        SetupS.push_back(msBetween(S0, Clock::now()) / 1000.0);
      }
      saturate(*Server, Pool, Pick, Rng, Seen, BurstsPerRound, C, Sat);
      openLoop(*Server, Pool, Pick, Rng, Seen, Seconds * 0.6 / ServeRounds, C,
               Open);
      Server->stop();
    }
    // native_code_kb compiles inline: with the compile thread, how much code
    // a pass compiles depends on when traces publish, and so on the host's
    // speed (about 9 % more on a quiet host than on a contended one).
    EngineOptions Inline = serveEngineOptions(false);
    Inline.OffThreadCompile = false;
    LayerProbe Probe;
    uint64_t MaxScriptBytes = replayPool(Pool, Inline, C, Probe, nullptr);

    R.add("eval_ms_geomean", "ms", geomean(Sat.EvalMs), Sat.EvalMs,
          "geomean of every saturation eval");
    R.add("native_code_kb", "KiB", (double)Probe.NativeBytes / 1024.0, {},
          "one pass over the pool, compiled inline");
    R.add("scripts_per_s", "1/s", (double)Sat.Completed / Sat.BurstWallS,
          Sat.BurstPerS, "saturation requests / summed burst wall time");
    R.add("latency_p50_ms", "ms", median(Open.LatencyMs), Open.LatencyMs,
          "open loop at " + std::to_string((int)ServeRatePerS) +
              "/s, from due time");
    R.add("latency_p99_ms", "ms", quantile(Open.LatencyMs, 0.99),
          Open.LatencyMs, "open loop, from due time");
    R.add("peak_rss_mb", "MB", peakRssMb());
    R.add("setup_s", "s", median(SetupS), SetupS,
          "server construction + warm-up");
    printf("requests: saturation %llu, open loop %llu; repeat share %.4f; "
           "largest script native code %.1f KiB, quota %zu KiB\n",
           (unsigned long long)Sat.Completed,
           (unsigned long long)Open.Completed,
           ratio((double)(Sat.Repeats + Open.Repeats),
                 (double)(Sat.EvalMs.size() + Open.EvalMs.size())),
           (double)MaxScriptBytes / 1024.0, ServeCodeCacheBytes / 1024);
  } else {
    timeFrontendAndAnalysis(Sources, 200, R);
    // Tracing overhead: an untraced then a traced saturation phase, each on
    // its own server (one at a time, to stay within the core budget).
    ServePhase SatPlain, SatTraced, Open;
    auto Server = startServer(false, Pool, C);
    saturate(*Server, Pool, Pick, Rng, Seen, serveBursts(Seconds, 0.1, 3), C,
             SatPlain);
    Server->stop();
    Server = startServer(true, Pool, C);
    saturate(*Server, Pool, Pick, Rng, Seen, serveBursts(Seconds, 0.1, 3), C,
             SatTraced);
    openLoop(*Server, Pool, Pick, Rng, Seen, Seconds * 0.6, C, Open);
    Server->stop();

    LayerTotals L;
    for (const VMStats &W : Server->workerStats())
      L.Stats.accumulate(W);
    L.Ops = SatTraced.Completed + Open.Completed + ServeWarmupRequests;
    Server.reset();

    // Event-derived metrics (recording, queue -> publish, GC) come from a
    // replay of the pool on one engine with a listener.
    CompileService Svc;
    EngineOptions Replay = serveEngineOptions(true);
    Replay.SharedCompileService = &Svc;
    LayerProbe Probe;
    replayPool(Pool, Replay, C, Probe, &L);
    L.addProbe(Probe);
    L.EventOps = Pool.size();
    addLayerMetrics(R, L, ratio(1e6 * RefMs, (double)RefBc), "request");

    std::vector<double> CreateMs;
    {
      EngineOptions O = serveEngineOptions(true);
      O.SharedCompileService = &Svc;
      for (int K = 0; K < 20; ++K) {
        Clock::time_point T0 = Clock::now();
        Engine E(O);
        CreateMs.push_back(msBetween(T0, Clock::now()));
      }
    }
    R.add("serve.queue_ms_p50", "ms", median(Open.QueueMs), Open.QueueMs,
          "open loop");
    R.add("serve.eval_ms_p99", "ms", quantile(Open.EvalMs, 0.99), Open.EvalMs,
          "open loop");
    R.add("serve.generator_late_ms_p99", "ms", quantile(Open.LateMs, 0.99),
          Open.LateMs);
    R.add("serve.repeat_share", "ratio",
          ratio((double)(SatPlain.Repeats + SatTraced.Repeats + Open.Repeats),
                (double)(SatPlain.EvalMs.size() + SatTraced.EvalMs.size() +
                         Open.EvalMs.size())));
    R.add("api.engine_create_ms", "ms", median(CreateMs), CreateMs);
    double Plain = geomean(SatPlain.EvalMs), Traced = geomean(SatTraced.EvalMs);
    R.add("tracing.overhead_ms", "ms", Traced - Plain, {},
          "saturation eval geomean traced " + std::to_string(Traced) +
              " - untraced " + std::to_string(Plain));
  }
  return finish(R, C);
}

// --- Fingerprint and entry point -----------------------------------------------

std::string cpuModel() {
  std::ifstream F("/proc/cpuinfo");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

void printFingerprint(const std::string &Workload, uint64_t Seed,
                      double Seconds, bool Trace) {
  EngineOptions O;
#ifdef NDEBUG
  const char *Asserts = "off";
#else
  const char *Asserts = "on";
#endif
  printf("fingerprint: workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
         "cpu=\"%s\" build=%s asserts=%s verify_lir=%s tier=%s "
         "TRACEJIT_TIER=unset\n",
         Workload.c_str(), (unsigned long long)Seed, Seconds, Trace ? 1 : 0,
         sysconf(_SC_NPROCESSORS_ONLN), cpuModel().c_str(),
         PERFBENCH_BUILD_TYPE, Asserts, O.VerifyLir ? "on" : "off",
         tierModeName(O.Tier));
}

int usage() {
  fprintf(stderr, "usage: perfbench --workload sunspider|trace-hostile|serve "
                  "--seed N --seconds S --trace 0|1 --programs DIR\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string Workload, ProgramsDir;
  uint64_t Seed = 1;
  double Seconds = 10;
  int Trace = 0;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string K = argv[I], V = argv[I + 1];
    if (K == "--workload")
      Workload = V;
    else if (K == "--seed")
      Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      Trace = std::atoi(V.c_str());
    else if (K == "--programs")
      ProgramsDir = V;
    else
      return usage();
  }
  if (argc % 2 != 1 || Workload.empty() || ProgramsDir.empty() ||
      Seconds <= 0 || (Trace != 0 && Trace != 1))
    return usage();
  // TRACEJIT_TIER silently changes EngineOptions' default tier; a run under
  // it would not measure the default build.
  if (const char *Tier = std::getenv("TRACEJIT_TIER")) {
    fprintf(stderr, "perfbench: refusing to run with TRACEJIT_TIER=%s set\n",
            Tier);
    return 2;
  }
  printFingerprint(Workload, Seed, Seconds, Trace);
  if (Workload == "sunspider")
    return runPrograms(loadPrograms(ProgramsDir, SunSpiderPrograms), Seed,
                       Seconds, Trace);
  if (Workload == "trace-hostile")
    return runPrograms(loadPrograms(ProgramsDir, TraceHostilePrograms), Seed,
                       Seconds, Trace);
  if (Workload == "serve")
    return runServe(Seed, Seconds, Trace);
  return usage();
}

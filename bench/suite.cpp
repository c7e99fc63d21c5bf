//===- suite.cpp - SunSpider-subset workload suite -------------------------------===//

#include "suite.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace tracejit_bench {

using namespace tracejit;

// --- Programs -------------------------------------------------------------------

static std::string readProgramFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    fprintf(stderr, "cannot read benchmark program %s\n", Path.c_str());
    exit(1);
  }
  std::ostringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

BenchProgram loadProgram(const char *Name, bool ExpectTraced) {
  std::string Stem = std::string(TRACEJIT_PERFBENCH_PROGRAMS) + "/" + Name;
  return {Name, readProgramFile(Stem + ".js"),
          readProgramFile(Stem + ".expected"), ExpectTraced};
}

const std::vector<BenchProgram> &suite() {
  static const std::vector<BenchProgram> S = {
      loadProgram("bitops-bitwise-and"),
      loadProgram("bitops-3bit-bits-in-byte"),
      loadProgram("bitops-bits-in-byte"),
      loadProgram("bitops-nsieve-bits"),
      loadProgram("access-nsieve"),
      loadProgram("access-fannkuch"),
      loadProgram("access-nbody"),
      loadProgram("access-binary-trees", /*ExpectTraced=*/false),
      loadProgram("controlflow-recursive", /*ExpectTraced=*/false),
      loadProgram("math-cordic"),
      loadProgram("math-partial-sums"),
      loadProgram("math-spectral-norm"),
      loadProgram("3d-morph"),
      loadProgram("crypto-sha1"),
      loadProgram("string-base64"),
      loadProgram("string-validate-input"),
  };
  return S;
}

// --- Harness --------------------------------------------------------------------------

tracejit::EngineOptions interpreterOptions() {
  EngineOptions O;
  O.EnableJit = false;
  return O;
}

tracejit::EngineOptions tracingOptions() {
  EngineOptions O;
  O.EnableJit = true;
  O.JitBackend = Backend::Native;
  return O;
}

double evalOnce(const BenchProgram &P, const EngineOptions &O,
                std::string &Error, VMStats *Stats) {
  Engine E(O);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  auto T0 = std::chrono::steady_clock::now();
  auto Res = E.eval(P.Source);
  auto T1 = std::chrono::steady_clock::now();
  if (!Res.ok()) {
    Error = Res.Err.describe();
    return -1;
  }
  if (Out != P.Expected) {
    Error = "output mismatch: got '" + Out + "' want '" + P.Expected + "'";
    return -1;
  }
  if (Stats)
    *Stats = E.stats();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

Timing timeConfigs(const BenchProgram &P,
                   const std::vector<EngineOptions> &Configs, int Reps) {
  Timing T;
  T.Stats.resize(Configs.size());
  std::vector<std::vector<double>> Ms(Configs.size());
  // Rep 0 is the untimed warm-up; it is checked like every timed rep.
  for (int Rep = 0; Rep <= Reps; ++Rep)
    for (size_t C = 0; C < Configs.size(); ++C) {
      double Run = evalOnce(P, Configs[C], T.Error,
                            Rep == Reps ? &T.Stats[C] : nullptr);
      if (Run < 0) {
        T.Ok = false;
        return T;
      }
      if (Rep > 0)
        Ms[C].push_back(Run);
    }
  for (std::vector<double> &Runs : Ms)
    T.MedianMs.push_back(median(std::move(Runs)));
  return T;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Mid = V.size() / 2;
  return V.size() % 2 ? V[Mid] : (V[Mid - 1] + V[Mid]) / 2;
}

// --- Ablation sections -------------------------------------------------------

bool runSection(const Section &S) {
  printf("=== %s ===\n%s\n\n", S.Title, S.Claim.c_str());
  int ProgW = 7, ConfW = 6;
  for (const BenchProgram &P : S.Programs)
    ProgW = std::max(ProgW, (int)strlen(P.Name));
  for (const NamedConfig &C : S.Configs)
    ConfW = std::max(ConfW, (int)C.Name.size());
  std::string Vs = "vs " + S.Configs.front().Name;
  int VsW = std::max(9, (int)Vs.size());
  printf("%-*s  %-*s %10s %*s", ProgW, "program", ConfW, "config", "time(ms)",
         VsW, Vs.c_str());
  for (const CounterColumn &Col : S.Counters)
    printf(" %*s", std::max(9, (int)strlen(Col.Header)), Col.Header);
  printf("\n");

  std::vector<EngineOptions> Options;
  for (const NamedConfig &C : S.Configs)
    Options.push_back(C.Options);
  bool AllOk = true;
  for (const BenchProgram &P : S.Programs) {
    Timing T = timeConfigs(P, Options, S.Reps);
    if (!T.Ok) {
      printf("%-*s  FAILED: %s\n", ProgW, P.Name, T.Error.c_str());
      AllOk = false;
      continue;
    }
    for (size_t C = 0; C < Options.size(); ++C) {
      printf("%-*s  %-*s %10.2f %*.3fx", ProgW, C == 0 ? P.Name : "", ConfW,
             S.Configs[C].Name.c_str(), T.MedianMs[C],
             VsW - 1, T.MedianMs[0] / T.MedianMs[C]);
      for (const CounterColumn &Col : S.Counters) {
        int W = std::max(9, (int)strlen(Col.Header));
        if (Options[C].CollectStats)
          printf(" %*llu", W, (unsigned long long)(T.Stats[C].*Col.Field));
        else
          printf(" %*s", W, "-");
      }
      printf("\n");
    }
    if (S.Detail)
      S.Detail(P);
  }
  printf("\n");
  return AllOk;
}

std::string hostJson() {
  std::string Cpu = "unknown";
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line);) {
    if (Line.rfind("model name", 0) != 0)
      continue;
    size_t Colon = Line.find(':');
    if (Colon != std::string::npos && Colon + 2 <= Line.size())
      Cpu = Line.substr(Colon + 2);
    break;
  }
  std::string Json = "{\"cores\": ";
  Json += std::to_string(std::thread::hardware_concurrency());
  Json += ", \"cpu\": \"";
  for (char C : Cpu)
    if (C != '"' && C != '\\')
      Json += C;
  Json += "\"}";
  return Json;
}

} // namespace tracejit_bench

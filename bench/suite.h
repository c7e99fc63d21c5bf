//===- suite.h - SunSpider-subset workload suite --------------------------------===//
//
// Ports of SunSpider programs to MiniJS (see DESIGN.md for the
// substitution notes: `new` is replaced with factory functions, closures
// with globals; sizes are scaled so interpreter runs take tens of
// milliseconds, like the originals on 2008 hardware).
//
// Each program prints a checksum line; the harness validates it on every
// configuration, so a miscompilation cannot masquerade as a speedup.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_BENCH_SUITE_H
#define TRACEJIT_BENCH_SUITE_H

#include <cstdint>
#include <string>
#include <vector>

#include "api/engine.h"

namespace tracejit_bench {

struct BenchProgram {
  const char *Name;
  const char *Source;
  /// Expected print output (checksum); empty = skip validation.
  const char *Expected;
  /// Paper expectation: was this benchmark traced well by TraceMonkey?
  bool ExpectTraced;
};

const std::vector<BenchProgram> &suite();

struct RunResult {
  double MeanMs = 0;
  double BestMs = 0;
  bool Ok = true;
  std::string Error;
  tracejit::VMStats Stats;
};

/// SunSpider driver protocol: one warmup run, then \p Runs timed runs,
/// each on a fresh engine; report the mean.
RunResult runProgram(const BenchProgram &P, const tracejit::EngineOptions &O,
                     int Runs = 10);

tracejit::EngineOptions interpreterOptions();
tracejit::EngineOptions tracingOptions();

/// Apply command-line flags to \p O through EngineOptions::applyFlag (the
/// same table the repl uses); warns on stderr and returns false if any
/// flag is unrecognized.
bool applyBenchArgs(tracejit::EngineOptions &O, int argc, char **argv);

/// The host a snapshot was taken on, as a JSON object ({"cores": N,
/// "cpu": "model name"}) for the "host" field of BENCH_*.json.
std::string hostJson();

} // namespace tracejit_bench

#endif // TRACEJIT_BENCH_SUITE_H

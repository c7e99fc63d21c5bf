//===- suite.h - SunSpider-subset workload suite --------------------------------===//
//
// Ports of SunSpider programs to MiniJS (see DESIGN.md for the
// substitution notes: `new` is replaced with factory functions, closures
// with globals; sizes are scaled so interpreter runs take tens of
// milliseconds, like the originals on 2008 hardware). The programs are
// perfbench's: each is read in place from perfbench/programs/<name>.js,
// with the interpreter's output from <name>.expected.
//
// Each program prints a checksum line; the harness checks every run of
// every configuration against the committed output, so a miscompilation
// cannot masquerade as a speedup. The same harness runs the ablation
// sections (Section, runSection), which bench/ablations prints.
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
  std::string Source;
  /// The interpreter's print output; every run must print exactly this.
  std::string Expected;
  /// Paper expectation: was this benchmark traced well by TraceMonkey?
  bool ExpectTraced;
};

/// Reads perfbench/programs/<Name>.js and <Name>.expected. A missing file
/// prints its path and exits the process with status 1.
BenchProgram loadProgram(const char *Name, bool ExpectTraced = true);

/// The 16 SunSpider ports of Fig. 10, loaded on first use.
const std::vector<BenchProgram> &suite();

/// One eval of \p P on a fresh engine under \p O. Returns its time in ms,
/// or -1 with \p Error set when the eval fails or its output differs from
/// P.Expected. Copies the engine's stats into \p Stats when given.
double evalOnce(const BenchProgram &P, const tracejit::EngineOptions &O,
                std::string &Error, tracejit::VMStats *Stats = nullptr);

/// The timing of one program under several configurations.
struct Timing {
  bool Ok = true;
  std::string Error;
  /// Per configuration: the median time of its timed reps, in ms.
  std::vector<double> MedianMs;
  /// Per configuration: the engine stats of its last timed rep.
  std::vector<tracejit::VMStats> Stats;
};

/// Times \p P under every configuration in \p Configs: one warm-up rep,
/// then \p Reps timed reps. Each rep runs every configuration once, in
/// order, so host drift hits them alike. Every run is a fresh engine checked
/// by evalOnce, warm-up included; the first failure stops the timing.
Timing timeConfigs(const BenchProgram &P,
                   const std::vector<tracejit::EngineOptions> &Configs,
                   int Reps = 10);

/// The median of \p V (the mean of the middle two for an even count).
double median(std::vector<double> V);

/// One named engine configuration of an ablation section.
struct NamedConfig {
  std::string Name;
  tracejit::EngineOptions Options;
};

/// A VMStats counter printed as a table column.
struct CounterColumn {
  const char *Header;
  uint64_t tracejit::VMStats::*Field;
};

/// One paper claim as data: its programs, timed under each configuration
/// by timeConfigs, with a row per (program, configuration).
struct Section {
  const char *Name;  ///< Selects the section on the ablations command line.
  const char *Title; ///< Table heading, with the paper section.
  std::string Claim; ///< The paper's claim and the shape the table should show.
  std::vector<BenchProgram> Programs;
  /// The first configuration is the baseline of the speedup column.
  std::vector<NamedConfig> Configs;
  /// Read from a configuration's last timed rep; printed only for the
  /// configurations that set CollectStats.
  std::vector<CounterColumn> Counters;
  int Reps = 5;
  /// Extra lines after a program's rows, when set.
  void (*Detail)(const BenchProgram &) = nullptr;
};

/// Prints \p S as one table: per program and configuration, the median
/// time, the speedup over the first configuration and the counter
/// columns. Returns false if any run failed its output check (the failed
/// program's row says why; the other programs still run).
bool runSection(const Section &S);

tracejit::EngineOptions interpreterOptions();
tracejit::EngineOptions tracingOptions();

/// The host a snapshot was taken on, as a JSON object ({"cores": N,
/// "cpu": "model name"}) for the "host" field of BENCH.json.
std::string hostJson();

} // namespace tracejit_bench

#endif // TRACEJIT_BENCH_SUITE_H

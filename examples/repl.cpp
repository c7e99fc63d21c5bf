//===- repl.cpp - Interactive MiniJS shell -----------------------------------------===//
//
// A read-eval-print loop over one persistent Engine: globals survive
// between lines, traces accumulate in the trace cache, and `:stats`,
// `:jit on|off`-style commands expose the VM.
//
//   $ ./repl
//   tj> var s = 0; for (var i = 0; i < 1e6; ++i) s += i;
//   tj> print(s);
//   499999500000
//   tj> :stats
//
// Positional arguments are script files: each is run to completion (with
// file:line:col diagnostics on error) and the process exits instead of
// entering the loop. Flags are EngineOptions::applyFlag spellings, e.g.
// "--no-jit", "--native" / "--executor", "--no-stats", "--no-blacklisting",
// "-O0" / "-O2", "--jit-opt=[+|-]pass,...", "--deadline-ms=N".
//
// `--dump-native DIR` writes each compiled fragment's native code to
// DIR/frag-<id>.bin when the scripts finish (or at :quit), for objdump and
// scripts/native_breakdown.py. With `--no-stats` the code is what a
// default-options engine compiles.
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/engine.h"
#include "trace/monitor.h"

using namespace tracejit;

/// Write every compiled fragment's code to \p Dir/frag-<id>.bin.
static bool dumpNative(Engine &E, const std::string &Dir) {
  E.waitForCompileQueue();
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    std::cerr << "cannot create " << Dir << ": " << EC.message() << "\n";
    return false;
  }
  if (!E.context().Monitor)
    return true;
  for (const auto &F : E.context().Monitor->fragments()) {
    if (!F->NativeEntry || F->CompilePending)
      continue;
    std::string Path = Dir + "/frag-" + std::to_string(F->Id) + ".bin";
    std::ofstream Out(Path, std::ios::binary);
    Out.write((const char *)F->NativeEntry, F->NativeSize);
    if (!Out) {
      std::cerr << "cannot write " << Path << "\n";
      return false;
    }
  }
  return true;
}

int main(int argc, char **argv) {
  EngineOptions Opts;
  Opts.CollectStats = true;
  std::vector<std::string> Files;
  std::string DumpNativeDir;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--dump-native") {
      if (I + 1 == argc) {
        std::cerr << "--dump-native requires a directory\n";
        return 2;
      }
      DumpNativeDir = argv[++I];
    } else if (!A.empty() && A[0] == '-') {
      if (!Opts.applyFlag(A)) {
        std::cerr << "unknown flag: " << A << "\n";
        return 2;
      }
    } else {
      Files.push_back(A);
    }
  }

  auto E = std::make_unique<Engine>(Opts);
  E->setPrintHook([](const std::string &S) { std::cout << S; });

  // Script mode: run each file through the FileName-carrying eval so
  // diagnostics say which script failed, then exit without a prompt.
  if (!Files.empty()) {
    for (const std::string &Path : Files) {
      std::ifstream In(Path);
      if (!In) {
        std::cerr << "cannot open " << Path << "\n";
        return 1;
      }
      std::ostringstream Buf;
      Buf << In.rdbuf();
      auto R = E->eval(Buf.str(), Path);
      if (!R.ok()) {
        std::cerr << R.Err.describe() << "\n";
        return 1;
      }
    }
    if (!DumpNativeDir.empty() && !dumpNative(*E, DumpNativeDir))
      return 1;
    return 0;
  }

  std::cout << "tracejit REPL -- MiniJS with a trace-compiling JIT\n"
            << "commands: :stats  :reset  :quit   (everything else is "
               "evaluated)\n";

  std::string Line;
  while (true) {
    std::cout << "tj> " << std::flush;
    if (!std::getline(std::cin, Line))
      break;
    if (Line == ":quit" || Line == ":q")
      break;
    if (Line == ":stats") {
      std::cout << E->stats().report();
      continue;
    }
    if (Line == ":reset") {
      E = std::make_unique<Engine>(Opts);
      E->setPrintHook([](const std::string &S) { std::cout << S; });
      std::cout << "(fresh engine)\n";
      continue;
    }
    if (Line.empty())
      continue;
    // Convenience: expressions without a trailing ';' get wrapped in print.
    std::string Src = Line;
    if (Src.find(';') == std::string::npos &&
        Src.rfind("print", 0) != 0)
      Src = "print(" + Src + ");";
    auto R = E->eval(Src);
    if (!R.ok())
      std::cout << R.Err.describe() << "\n";
  }
  if (!DumpNativeDir.empty() && !dumpNative(*E, DumpNativeDir))
    return 1;
  return 0;
}

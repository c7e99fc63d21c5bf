//===- options.cpp - Engine flag table --------------------------------------===//

#include "api/options.h"

namespace tracejit {

namespace {

/// One boolean engine flag: "--name" sets the field to Value.
struct BoolFlag {
  std::string_view Name;
  bool EngineOptions::*Field;
  bool Value;
};

constexpr BoolFlag BoolFlags[] = {
    {"--jit", &EngineOptions::EnableJit, true},
    {"--no-jit", &EngineOptions::EnableJit, false},
    {"--ic", &EngineOptions::EnableIC, true},
    {"--no-ic", &EngineOptions::EnableIC, false},
    {"--verify-lir", &EngineOptions::VerifyLir, true},
    {"--no-verify-lir", &EngineOptions::VerifyLir, false},
    {"--stats", &EngineOptions::CollectStats, true},
    {"--no-stats", &EngineOptions::CollectStats, false},
    {"--dump-lir", &EngineOptions::DumpLIR, true},
    {"--dump-asm", &EngineOptions::DumpAssembly, true},
    {"--log-jit-events", &EngineOptions::LogJitEvents, true},
    {"--trace-events", &EngineOptions::CaptureTraceEvents, true},
    {"--nesting", &EngineOptions::EnableNesting, true},
    {"--no-nesting", &EngineOptions::EnableNesting, false},
    {"--stitching", &EngineOptions::EnableStitching, true},
    {"--no-stitching", &EngineOptions::EnableStitching, false},
    {"--blacklisting", &EngineOptions::EnableBlacklisting, true},
    {"--no-blacklisting", &EngineOptions::EnableBlacklisting, false},
    {"--oracle", &EngineOptions::EnableOracle, true},
    {"--no-oracle", &EngineOptions::EnableOracle, false},
    {"--off-thread-compile", &EngineOptions::OffThreadCompile, true},
    {"--no-off-thread-compile", &EngineOptions::OffThreadCompile, false},
    {"--static-types", &EngineOptions::StaticAnalysis, true},
    {"--no-static-types", &EngineOptions::StaticAnalysis, false},
    {"--analyze", &EngineOptions::AnalyzeOnly, true},
    {"--validate-static-facts", &EngineOptions::ValidateStaticFacts, true},
};

/// Parse the value of a "--flag=N" style option; false on bad digits.
bool parseU32(std::string_view Text, uint32_t &Out) {
  if (Text.empty())
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + (uint64_t)(C - '0');
    if (V > 0xFFFFFFFFull)
      return false;
  }
  Out = (uint32_t)V;
  return true;
}

} // namespace

const char *optPassName(OptPass P) {
  switch (P) {
  case OptPass::ExprSimp:
    return "exprsimp";
  case OptPass::Cse:
    return "cse";
  case OptPass::DeadStore:
    return "deadstore";
  case OptPass::Dce:
    return "dce";
  case OptPass::GuardElim:
    return "guardelim";
  case OptPass::IndVar:
    return "indvar";
  case OptPass::Hoist:
    return "hoist";
  case OptPass::NumPasses:
    break;
  }
  return "?";
}

bool parseOptPass(std::string_view Name, OptPass &Out) {
  for (uint32_t K = 0; K < (uint32_t)OptPass::NumPasses; ++K) {
    if (Name == optPassName((OptPass)K)) {
      Out = (OptPass)K;
      return true;
    }
  }
  return false;
}

std::string OptPipeline::describe() const {
  std::string Out;
  for (uint32_t K = 0; K < (uint32_t)OptPass::NumPasses; ++K) {
    if (!has((OptPass)K))
      continue;
    if (!Out.empty())
      Out += ",";
    Out += optPassName((OptPass)K);
  }
  return Out.empty() ? "none" : Out;
}

const char *tierModeName(TierMode M) {
  switch (M) {
  case TierMode::Trace:
    return "trace";
  }
  return "?";
}

bool EngineOptions::applyFlag(std::string_view Flag) {
  for (const BoolFlag &F : BoolFlags) {
    if (Flag == F.Name) {
      this->*F.Field = F.Value;
      return true;
    }
  }
  // Non-boolean flags.
  if (Flag == "--native") {
    JitBackend = Backend::Native;
    return true;
  }
  if (Flag == "--executor") {
    JitBackend = Backend::Executor;
    return true;
  }
  // Optimization levels and the named-pass surface over OptPipeline.
  if (Flag == "-O0" || Flag == "-O1" || Flag == "-O2") {
    Passes = OptPipeline::level((uint32_t)(Flag[2] - '0'));
    return true;
  }
  constexpr std::string_view OptPrefix = "--jit-opt=";
  if (Flag.substr(0, OptPrefix.size()) == OptPrefix) {
    // Comma-separated items, each "[+|-]pass" (bare = "+"), applied to the
    // current pipeline in order; "none" clears, "all" enables everything.
    OptPipeline P = Passes;
    std::string_view List = Flag.substr(OptPrefix.size());
    if (List.empty())
      return false;
    while (!List.empty()) {
      size_t Comma = List.find(',');
      std::string_view Item = List.substr(0, Comma);
      List = Comma == std::string_view::npos ? std::string_view()
                                             : List.substr(Comma + 1);
      if (Item.empty())
        return false;
      bool Remove = Item[0] == '-';
      if (Item[0] == '+' || Item[0] == '-')
        Item = Item.substr(1);
      if (Item == "none" && !Remove) {
        P = OptPipeline();
        continue;
      }
      if (Item == "all" && !Remove) {
        P = OptPipeline::all();
        continue;
      }
      OptPass Pass;
      if (!parseOptPass(Item, Pass))
        return false;
      if (Remove)
        P.remove(Pass);
      else
        P.add(Pass);
    }
    Passes = P;
    return true;
  }
  constexpr std::string_view DepthPrefix = "--compile-queue-depth=";
  if (Flag.substr(0, DepthPrefix.size()) == DepthPrefix) {
    uint32_t Depth = 0;
    if (!parseU32(Flag.substr(DepthPrefix.size()), Depth) || Depth == 0)
      return false;
    CompileQueueDepth = Depth;
    return true;
  }
  // Resource governance: deadlines, heap quota, frame limit.
  constexpr std::string_view DeadlinePrefix = "--deadline-ms=";
  if (Flag.substr(0, DeadlinePrefix.size()) == DeadlinePrefix) {
    uint32_t Ms = 0;
    if (!parseU32(Flag.substr(DeadlinePrefix.size()), Ms))
      return false;
    EvalDeadlineMs = Ms;
    return true;
  }
  constexpr std::string_view HeapPrefix = "--max-heap=";
  if (Flag.substr(0, HeapPrefix.size()) == HeapPrefix) {
    uint32_t Bytes = 0;
    if (!parseU32(Flag.substr(HeapPrefix.size()), Bytes))
      return false;
    MaxHeapBytes = Bytes;
    return true;
  }
  constexpr std::string_view FramesPrefix = "--max-frames=";
  if (Flag.substr(0, FramesPrefix.size()) == FramesPrefix) {
    uint32_t Frames = 0;
    if (!parseU32(Flag.substr(FramesPrefix.size()), Frames) || Frames == 0)
      return false;
    MaxFrames = Frames;
    return true;
  }
  return false;
}

} // namespace tracejit

//===- analysis.h - Bytecode abstract interpreter ---------------------------===//
//
// A whole-script static analysis over the frontend bytecode: CFG
// construction (basic blocks split at jump targets and loop headers) plus a
// worklist-driven, flow-sensitive abstract interpretation over a type
// lattice, with integer ranges and allocation-site sets riding along.
//
// The dynamic trace compiler pays for every type fact with a runtime guard;
// this pass proves a subset of those facts ahead of time, so that:
//
//  * the recorder can skip guards the lattice already proves (a branch
//    whose condition is constant on every path, an int add whose operand
//    ranges cannot overflow int32) -- counted as StaticGuardsElided;
//  * the oracle can be pre-seeded: slots that are provably int-and-double
//    at a loop header get demotion facts before the first recording (§3.2
//    without the record/fail/re-record churn), and property sites whose
//    receiver set is statically unbounded are pre-marked megamorphic;
//  * the repl gains a `--analyze` lint mode reporting unreachable code,
//    use-before-def, constant conditions, and guaranteed type errors.
//
// Its second job is independent of the lattice and of
// EngineOptions::StaticAnalysis: a backward liveness pass over the same
// basic blocks (blockStarts, computeLoopLiveness) finds the locals live at
// each loop header. A root tree leaves a local that is dead there Boxed in
// its entry map, and its back edge drops the local instead of boxing it
// into the interpreter, so a local the loop writes before reading --
// `undefined` on the first entry, a number after -- no longer splits the
// tree (trace/recorder.h). The dropped local keeps a stale value in the
// interpreter, which nothing reads before overwriting it; so the abstract
// interpreter publishes no header fact for a dead local (MaskTop).
//
// Soundness contract with the recorder: a fact recorded for (script, pc)
// is an invariant over *every* interpreter execution reaching that pc --
// function entry states are worst-case (parameters unknown, globals
// unknown) and every Call/CallProp clobbers all global facts, so facts
// remain valid for root traces, branch traces, and inlined frames alike.
// The analysis is advisory: when it is disabled (or absent for a script)
// the pipeline behaves bit-for-bit as before.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_ANALYSIS_ANALYSIS_H
#define TRACEJIT_ANALYSIS_ANALYSIS_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "frontend/bytecode.h"
#include "vm/value.h"

namespace tracejit {

// --- The type lattice ---------------------------------------------------------
//
// One bit per runtime representation (trace/typemap.h's TraceType, plus an
// explicit bottom). Join is bitwise OR; 0 is bottom (no value / unreachable)
// and MaskTop is the lattice top.

enum : uint8_t {
  MaskInt = 1u << 0,
  MaskDouble = 1u << 1,
  MaskBool = 1u << 2,
  MaskString = 1u << 3,
  MaskObject = 1u << 4,
  MaskNull = 1u << 5,
  MaskUndefined = 1u << 6,
  MaskTop = 0x7F,
  MaskNumber = MaskInt | MaskDouble,
};
using TypeMask = uint8_t;

/// The lattice bit a boxed value observes to (the static analog of
/// traceTypeOf).
TypeMask maskOfValue(const Value &V);

/// Render a mask for diagnostics ("int|double", "top", "bottom").
std::string typeMaskName(TypeMask M);

// --- Diagnostics ----------------------------------------------------------------

enum class AnalysisDiagKind : uint8_t {
  UnreachableCode,   ///< Basic block no execution can reach.
  UseBeforeDef,      ///< Local read while provably still undefined.
  ConstantCondition, ///< Branch condition proven always true/false.
  TypeError,         ///< Operation guaranteed to raise a runtime type error.
};

const char *analysisDiagKindName(AnalysisDiagKind K);

/// One lint finding, positioned via the script's LineNote table.
struct AnalysisDiagnostic {
  AnalysisDiagKind Kind = AnalysisDiagKind::UnreachableCode;
  uint32_t Pc = 0;
  uint32_t Line = 0; ///< 1-based; 0 when no note covers the pc.
  uint32_t Col = 0;
  std::string Message;
  std::string Function; ///< Enclosing function name; empty at top level.
};

// --- Per-script results ----------------------------------------------------------

/// Everything the consumers need, extracted after the fixpoint. All facts
/// are keyed by pc within one script and hold on every execution path.
struct ScriptAnalysis {
  uint32_t ScriptId = 0;
  /// Globals covered by header masks (the table size at analysis time;
  /// slots added by later parses are simply not covered).
  uint32_t NumGlobals = 0;
  /// False when the fixpoint hit its safety bound; no facts are published.
  bool Converged = true;

  /// JumpIfFalse/JumpIfTrue pcs whose *condition* truthiness is constant.
  std::unordered_map<uint32_t, bool> BranchConst;

  /// Add/Sub/Mul pcs where both operands are proven Int and the result
  /// range cannot leave int32: the overflow check is redundant.
  std::unordered_set<uint32_t> NoOverflow;

  /// Per-slot type masks proven at each LoopHeader/Nop3 pc (the facts the
  /// ValidateStaticFacts cross-check and the oracle seeding consume).
  struct HeaderFacts {
    std::vector<TypeMask> Globals; ///< [0, NumGlobals)
    std::vector<TypeMask> Locals;  ///< [0, Script.NumLocals)
  };
  std::unordered_map<uint32_t, HeaderFacts> Headers;

  /// GetProp/SetProp pcs whose receiver draws from more distinct literal
  /// allocation sites than a polymorphic IC can serve (and from nothing
  /// unknown, so the bound is real). Pre-marked megamorphic in the oracle.
  std::vector<uint32_t> MegamorphicSites;

  /// Slots whose mask at some loop header is exactly Int|Double: seeds for
  /// the §3.2 demotion oracle (global slots / local slots of this script).
  std::vector<uint32_t> DemoteGlobals;
  std::vector<uint32_t> DemoteLocals;

  std::vector<AnalysisDiagnostic> Diags;

  uint32_t factCount() const {
    return (uint32_t)(BranchConst.size() + NoOverflow.size() + Headers.size() +
                      MegamorphicSites.size() + DemoteGlobals.size() +
                      DemoteLocals.size());
  }
};

/// Analyze one compiled script. \p NumGlobals is the global-table size at
/// analysis time. Never fails: a script the fixpoint cannot settle (safety
/// bound) returns with Converged=false and no facts.
std::unique_ptr<ScriptAnalysis> analyzeScript(const FunctionScript &S,
                                              uint32_t NumGlobals);

/// Testing hook (EngineOptions::ValidateStaticFacts): at an interpreted
/// loop header, check every live global/local against the static header
/// mask. Bumps \p Checks per slot compared and \p Contradictions for any
/// value outside its proven mask -- a contradiction means the analysis (or
/// the engine) is unsound, and the differential fuzz suite asserts zero.
void validateHeaderFacts(const ScriptAnalysis &A, const Value *Globals,
                         uint32_t NumGlobals, const Value *Locals,
                         uint32_t NumLocals, uint32_t Pc, uint64_t &Checks,
                         uint64_t &Contradictions);

// --- Control-flow graph and loop-header liveness ----------------------------

/// The basic blocks of \p S's bytecode, as their sorted start pcs: pc 0,
/// every jump target, the pc after every jump or return, and every loop
/// header (its own block). Block I spans [Starts[I], Starts[I + 1]), the
/// last one to the end of the code. Returns false on bytecode no CFG can be
/// built from: an unknown opcode, a truncated operand, or a jump target
/// outside the code or inside an instruction.
bool blockStarts(const FunctionScript &S, std::vector<uint32_t> &Starts);

/// Which locals of \p S are live at each of its loop headers: Live[I][K] is
/// 1 when some path from the header of S.Loops[I] reads local K before
/// writing it, including the paths that leave the loop. A parameter is a
/// local like any other. One fixpoint serves every loop. Returns false,
/// with every local of every loop live, when the pass cannot run
/// (malformed bytecode): a dead local is one a trace may forget, so the
/// pass fails closed.
bool computeLoopLiveness(const FunctionScript &S,
                         std::vector<std::vector<uint8_t>> &Live);

/// The live-at-header locals of loop \p L, one of \p S's loops. The first
/// call for any loop of \p S runs computeLoopLiveness and caches every
/// loop's result in its LoopRecord::LiveLocals.
const std::vector<uint8_t> &loopLiveLocals(FunctionScript &S, LoopRecord &L);

} // namespace tracejit

#endif // TRACEJIT_ANALYSIS_ANALYSIS_H

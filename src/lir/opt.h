//===- opt.h - LIR loop optimizer ---------------------------------------------===//
//
// Trace-level optimization passes run over a finished recording, between
// the paper's §5.1 backward filters and the backend. Value numbering and
// dominated-guard elimination are not among them: the forward CseFilter
// (filters.h) does both while the trace is recorded. A trace is one
// straight line, so dominance is linear order and every pass is a single
// forward or backward sweep:
//
//  * IndVar -- induction-variable recognition. An overflow-checked
//    increment `AddOvI(i, c)` dominated by a range guard on `i`
//    (`GuardT(LtI(i, n))` and friends) cannot overflow, so the check is
//    folded to a plain `AddI`; array-indexing address chains
//    `base + (i+c)*8` are strength-reduced to `addr(i) + 8c` when both
//    indices are bounds-checked against the same capacity.
//
//  * Hoist -- loop-invariant code + guard hoisting. Invariant pure ops,
//    loads from never-clobbered locations, and guards over them move into
//    a trace prologue (Body[0, Fragment::PrologueEnd)) executed once per
//    tree entry; the Loop back edge re-enters after it. Hoisted guards
//    exit through Fragment::EntryExit, a Deopt snapshot of the entry
//    state: the prologue has no side effects, so a hoisted-guard failure
//    soundly means "pretend we never entered".
//
// Pass order (optimizeTrace): DeadStore, Dce, IndVar, Hoist, Dce.
// Selection comes from the EngineOptions::Passes pipeline; order is fixed
// here.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_LIR_OPT_H
#define TRACEJIT_LIR_OPT_H

#include <cstdint>

#include "api/options.h"
#include "lir/lir.h"

namespace tracejit {

class Fragment;
struct VMStats;

/// What one optimizeTrace run did (also accumulated into VMStats).
struct OptResult {
  uint32_t OvfChecksFolded = 0;   ///< AddOvI/SubOvI rewritten to AddI/SubI.
  uint32_t IdxStrengthReduced = 0;///< Indexing address chains simplified.
  uint32_t InsHoisted = 0;        ///< Instructions moved into the prologue.
  uint32_t GuardsHoisted = 0;     ///< ... of which guards/overflow checks.
};

/// Run the enabled backward + loop passes over \p F's finished body.
/// Requires the body to be closed (terminator last). Hoisting only applies
/// to root fragments that end in Loop and carry an EntryExit; everything
/// else runs on any trace. Counters land in \p Stats when non-null.
OptResult optimizeTrace(Fragment &F, const OptPipeline &Passes,
                        uint32_t NumGlobals, VMStats *Stats);

} // namespace tracejit

#endif // TRACEJIT_LIR_OPT_H

//===- backward.h - Backward LIR filters -------------------------------------===//
//
// The paper's backward filter pipeline (§5.1):
//   * Dead data-stack store elimination -- stores into the trace activation
//     record that no later exit or load can observe are dead. "Stores to
//     locations that are off the top of the interpreter stack at future
//     exits are also dead."
//   * Dead call-stack store elimination -- the same analysis applied to the
//     slots of inlined call frames (in our unified TAR layout these are
//     simply higher slot indices, so one analysis covers both). An exit
//     that restores a slot from its descriptor's constants does not read
//     the TAR there, so a store feeding only such exits is dead too.
//   * Dead code elimination -- removes operations whose values are never
//     used.
//
// The paper streams these through a backward reader into the code
// generator; we run them as two in-place passes over the finished buffer
// before compilation, which computes the same result.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_LIR_BACKWARD_H
#define TRACEJIT_LIR_BACKWARD_H

#include <cstdint>
#include <vector>

#include "lir/lir.h"
#include "trace/typemap.h"

namespace tracejit {

struct BackwardFilterResult {
  uint32_t StoresRemoved = 0;
  uint32_t InsnsRemoved = 0;
};

/// Remove dead TAR stores. \p NumGlobals sizes the globals area of the
/// type-map slot domain (an exit reads the slots of [0, NumGlobals +
/// exit->Sp) its map types, minus its ExitDescriptor::ConstSlots, which it
/// restores from the descriptor; a JmpFrag or TreeCall target reads the
/// slots its entry map types).
/// \p Entry is the fragment's entry type map: the slots it types stay live
/// across the backedge because a next-iteration side exit writes them back
/// straight from the TAR. Pass null when unknown; the filter then keeps
/// the widest exit range live at the backedge instead.
uint32_t eliminateDeadStores(std::vector<LIns *> &Body, uint32_t NumGlobals,
                             const TypeMap *Entry = nullptr);

/// Remove instructions whose results are unused and that have no side
/// effects.
uint32_t eliminateDeadCode(std::vector<LIns *> &Body);

} // namespace tracejit

#endif // TRACEJIT_LIR_BACKWARD_H

//===- filters.h - Forward LIR filter pipeline -------------------------------===//
//
// "We implemented the optimizations as pipelined filters so that they can
// be turned on and off independently, and yet all run in just two loop
// passes over the trace: one forward and one backward." (§5.1)
//
// Forward filters (this file) run as the recorder emits; they see each
// instruction before it reaches the buffer:
//   * ExprFilter -- constant folding, algebraic identities, and the
//     source-language-specific INT/DOUBLE narrowing (D2I(I2D(x)) => x,
//     and ToInt32 of an exact double sum of ints => the int32 sum).
//   * CseFilter -- the trace's one value-numbering pass: common
//     subexpression elimination over pure ops, overflow-checked ops and
//     loads (keyed on a per-location-class memory generation), plus
//     dropping guards on already-guarded conditions.
//
// Backward filters live in backward.h.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_LIR_FILTERS_H
#define TRACEJIT_LIR_FILTERS_H

#include <unordered_map>
#include <unordered_set>

#include "lir/lir.h"

namespace tracejit {

/// Expression simplification: constant folding plus algebraic identities.
/// \p ToInt32 is the CallInfo of the runtime's ToInt32(double) (passed in
/// so that lir/ does not depend on trace/); a call of it on an exact int
/// sum folds into int32 arithmetic (insCall).
class ExprFilter : public LirWriter {
public:
  ExprFilter(LirWriter *Out, const CallInfo *ToInt32)
      : LirWriter(Out), ToInt32(ToInt32) {}

  LIns *ins1(LOp Op, LIns *A) override;
  LIns *ins2(LOp Op, LIns *A, LIns *B) override;
  LIns *insCall(const CallInfo *CI, LIns **Args, uint32_t N) override;
  LIns *insGuard(LOp Op, LIns *Cond, ExitDescriptor *Exit) override;
  LIns *insOvf(LOp Op, LIns *A, LIns *B, ExitDescriptor *Exit) override;

private:
  /// The wrapping int32 sum of the leaves of int-sum tree \p D.
  LIns *intSum(LIns *D);

  const CallInfo *ToInt32;
};

/// Common subexpression elimination by value numbering. Immediates, pure
/// ops, pure calls and overflow-checked ops are hashed on (op, operands,
/// immediate); a repeated overflow-checked op reuses the earlier result,
/// whose check already passed. Loads are hashed with the generation of
/// their location class (lir.h, Acc), and only a write to that class
/// starts a new one:
///   * a TAR slot: a store to that slot;
///   * a heap class (header, named slots, elements): a store of that class,
///     or an impure call whose CallInfo::Writes names it. Named-slot and
///     element stores leave the header, and so shape guards, alone; an
///     allocating helper (js_BoxDouble, the string and object allocators)
///     writes no class at all;
///   * read-only cells: nothing;
///   * a tree call writes every class, since the inner tree runs over the
///     same TAR and heap.
/// VM loads (absolute VM words such as the preempt flag) are volatile and
/// never merged. A guard on a condition already guarded with the same
/// polarity is dropped: the first guard would have exited.
class CseFilter : public LirWriter {
public:
  explicit CseFilter(LirWriter *Out) : LirWriter(Out) {}

  LIns *ins1(LOp Op, LIns *A) override;
  LIns *ins2(LOp Op, LIns *A, LIns *B) override;
  LIns *insImmI(int32_t V) override;
  LIns *insImmQ(int64_t V) override;
  LIns *insImmD(double V) override;
  LIns *insLoad(LOp Op, LIns *Base, int32_t Disp, AccSet Loc) override;
  LIns *insStore(LOp Op, LIns *Val, LIns *Base, int32_t Disp,
                 AccSet Loc) override;
  LIns *insCall(const CallInfo *CI, LIns **Args, uint32_t N) override;
  LIns *insGuard(LOp Op, LIns *Cond, ExitDescriptor *Exit) override;
  LIns *insOvf(LOp Op, LIns *A, LIns *B, ExitDescriptor *Exit) override;
  LIns *insTreeCall(Fragment *Inner, ExitDescriptor *Expected,
                    ExitDescriptor *MismatchExit) override;

  /// Guards dropped plus overflow checks merged so far (the recording's
  /// share of VMStats::GuardsEliminated).
  uint64_t guardsEliminated() const { return GuardsEliminated; }

private:
  struct Key {
    uint32_t Op;
    uint64_t A;
    uint64_t B; ///< Second operand, or a load's memory generation.
    int64_t Extra;
    bool operator==(const Key &O) const {
      return Op == O.Op && A == O.A && B == O.B && Extra == O.Extra;
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      uint64_t H = K.Op * 0x9E3779B97F4A7C15ULL;
      H ^= K.A + 0x9E3779B97F4A7C15ULL + (H << 6) + (H >> 2);
      H ^= K.B + 0x9E3779B97F4A7C15ULL + (H << 6) + (H >> 2);
      H ^= (uint64_t)K.Extra + (H << 6) + (H >> 2);
      return (size_t)H;
    }
  };

  /// The instruction numbered \p K, or \p Emit()'s result numbered as \p K.
  template <typename EmitFn> LIns *numbered(const Key &K, EmitFn Emit);
  /// Start a new generation of every class in \p Writes.
  void clobber(AccSet Writes);

  std::unordered_map<Key, LIns *, KeyHash> Exprs;
  /// (condition id, polarity) pairs already guarded.
  std::unordered_set<uint64_t> GuardedConds;
  /// Stores per TAR slot (Disp / 8) since the last tree call; TarEpoch
  /// counts tree calls.
  std::unordered_map<int32_t, uint32_t> TarGen;
  uint64_t TarEpoch = 0;
  /// Writes per location class, indexed by the class's bit.
  static constexpr uint32_t NumClasses = 6;
  uint32_t ClassGen[NumClasses] = {};
  static_assert(Acc::All == (1u << NumClasses) - 1);
  uint64_t GuardsEliminated = 0;
};

} // namespace tracejit

#endif // TRACEJIT_LIR_FILTERS_H

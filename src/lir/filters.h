//===- filters.h - Forward LIR filter pipeline -------------------------------===//
//
// "We implemented the optimizations as pipelined filters so that they can
// be turned on and off independently, and yet all run in just two loop
// passes over the trace: one forward and one backward." (§5.1)
//
// Forward filters (this file) run as the recorder emits; they see each
// instruction before it reaches the buffer:
//   * ExprFilter -- constant folding, algebraic identities, and the
//     source-language-specific INT/DOUBLE narrowing (D2I(I2D(x)) => x).
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
class ExprFilter : public LirWriter {
public:
  explicit ExprFilter(LirWriter *Out) : LirWriter(Out) {}

  LIns *ins1(LOp Op, LIns *A) override;
  LIns *ins2(LOp Op, LIns *A, LIns *B) override;
  LIns *insGuard(LOp Op, LIns *Cond, ExitDescriptor *Exit) override;
  LIns *insOvf(LOp Op, LIns *A, LIns *B, ExitDescriptor *Exit) override;
};

/// Common subexpression elimination by value numbering. Immediates, pure
/// ops, pure calls and overflow-checked ops are hashed on (op, operands,
/// immediate); a repeated overflow-checked op reuses the earlier result,
/// whose check already passed. Loads are hashed with the generation of
/// their location class, and a write to the class starts a new one:
///   * a TAR slot (base ParamTar): bumped by a store to that slot;
///   * the heap (any other base): bumped by a heap store or impure call;
///   * a tree call bumps both, since the inner tree runs over the same TAR.
/// Absolute loads (base ImmQ: VM channels such as the preempt flag) are
/// volatile and never merged. A guard on a condition already guarded with
/// the same polarity is dropped: the first guard would have exited.
class CseFilter : public LirWriter {
public:
  explicit CseFilter(LirWriter *Out) : LirWriter(Out) {}

  LIns *ins1(LOp Op, LIns *A) override;
  LIns *ins2(LOp Op, LIns *A, LIns *B) override;
  LIns *insImmI(int32_t V) override;
  LIns *insImmQ(int64_t V) override;
  LIns *insImmD(double V) override;
  LIns *insLoad(LOp Op, LIns *Base, int32_t Disp) override;
  LIns *insStore(LOp Op, LIns *Val, LIns *Base, int32_t Disp) override;
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

  std::unordered_map<Key, LIns *, KeyHash> Exprs;
  /// (condition id, polarity) pairs already guarded.
  std::unordered_set<uint64_t> GuardedConds;
  /// Stores per TAR slot (Disp / 8) since the last tree call; TarEpoch
  /// counts tree calls.
  std::unordered_map<int32_t, uint32_t> TarGen;
  uint64_t TarEpoch = 0;
  uint64_t HeapGen = 0;
  uint64_t GuardsEliminated = 0;
};

} // namespace tracejit

#endif // TRACEJIT_LIR_FILTERS_H

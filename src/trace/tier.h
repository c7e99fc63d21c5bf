//===- tier.h - Compilation-tier policy and per-loop tier state ------------===//
//
// The tier state machine that replaces the old boolean blacklist. Every hot
// loop is in exactly one tier:
//
//   Interpreter <------ Trace ------> Method
//        ^  (demote:      |  (promote: branch overflow,
//        |   blacklist)   |   repeated aborts
//        |                v   under --tier=hybrid)
//        +---------- Method (demote: method compile failed)
//
// TierPolicy is the pure decision function: the monitor feeds it abort and
// overflow events and it answers Stay/Promote/Demote. All mutation of
// LoopState stays in the monitor, so the policy is trivially unit-testable
// and `--tier=trace` reproduces the historical blacklist pipeline
// bit-for-bit (same counters, same backoff arithmetic, same Nop3 patch).
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_TRACE_TIER_H
#define TRACEJIT_TRACE_TIER_H

#include <cstdint>

#include "api/options.h"

namespace tracejit {

/// Which compilation tier a loop currently runs in.
enum class Tier : uint8_t {
  Interpreter, ///< Never compile this loop again (the old "blacklisted").
  Trace,       ///< Trace-recording pipeline (the default).
  Method,      ///< Whole-loop-body method compiler (unspecialized code).
};

const char *tierName(Tier T);

/// Why a loop last changed tier (telemetry; TierPromoted events carry the
/// equivalent AbortReason where one exists).
enum class TierChangeReason : uint8_t {
  None,                ///< Still in its initial tier.
  BranchOverflow,      ///< A side exit exhausted its recording attempts.
  RepeatedAborts,      ///< The root loop exhausted its recording attempts.
  MethodByPolicy,      ///< --tier=method starts every loop here.
  MethodCompileFailed, ///< Method body would not lower or compile.
  Blacklisted,         ///< Trace mode demotion (the classic Nop3 patch).
  NumReasons,
};

const char *tierChangeReasonName(TierChangeReason R);

/// Per-loop tier state, embedded in the monitor's LoopState. Replaces the
/// old scattered {Blacklisted, Failures, BackoffUntil} fields.
struct TierState {
  Tier Current = Tier::Trace;
  TierChangeReason LastChange = TierChangeReason::None;
  /// Consecutive failed root recordings (reset on successful install).
  uint32_t Failures = 0;
  /// Do not retry recording until the loop's hit counter passes this.
  uint32_t BackoffUntil = 0;
  /// A method-tier compile job for this loop is in flight.
  bool MethodCompilePending = false;
};

/// What the monitor should do with a loop after a policy event.
enum class TierAction : uint8_t {
  Stay,    ///< No tier change.
  Promote, ///< Move Trace -> Method (build a method body).
  Demote,  ///< Move to Interpreter (patch the header to Nop3).
};

/// The tier decision function. Constructed once per monitor from
/// EngineOptions; holds no per-loop state.
class TierPolicy {
public:
  explicit TierPolicy(const EngineOptions &O)
      : Mode(O.Tier), MethodJitThreshold(O.MethodJitThreshold),
        MaxRecordingFailures(O.MaxRecordingFailures),
        BlacklistBackoff(O.BlacklistBackoff),
        BlacklistingEnabled(O.EnableBlacklisting) {}

  TierMode mode() const { return Mode; }

  /// Whether loops ever enter the trace pipeline at all.
  bool tracingEnabled() const { return Mode != TierMode::Method; }

  /// Tier a freshly discovered loop starts in.
  Tier initialTier() const {
    return Mode == TierMode::Method ? Tier::Method : Tier::Trace;
  }

  /// A root-anchored recording aborted. Mutates the failure/backoff
  /// bookkeeping exactly like the historical blacklist path and answers
  /// what the monitor should do. \p Counts is false for a forgiven abort
  /// (it backs off briefly but never accumulates failures); \p HitCount
  /// is the loop's current hit counter.
  TierAction onRootAbort(TierState &S, bool Counts, uint32_t HitCount) const {
    if (S.Current != Tier::Trace)
      return TierAction::Stay;
    if (!BlacklistingEnabled)
      return TierAction::Stay;
    if (!Counts) {
      S.BackoffUntil = HitCount + 4;
      return TierAction::Stay;
    }
    ++S.Failures;
    S.BackoffUntil = HitCount + BlacklistBackoff;
    if (S.Failures >= MaxRecordingFailures)
      return Mode == TierMode::Hybrid ? TierAction::Promote
                                      : TierAction::Demote;
    return TierAction::Stay;
  }

  /// A side exit of this loop's tree crossed MaxRecordingFailures failed
  /// branch recordings. Trace mode keeps the historical behavior (block
  /// that exit, keep the tree); hybrid mode gives up on tracing the tree
  /// and promotes the whole loop.
  TierAction onBranchOverflow(TierState &S) const {
    if (Mode == TierMode::Hybrid && S.Current == Tier::Trace)
      return TierAction::Promote;
    return TierAction::Stay;
  }

  /// The method builder or backend failed for this loop. There is no
  /// lower compiled tier to fall back to, so the loop goes to the
  /// interpreter for good.
  TierAction onMethodCompileFailed(TierState &) const {
    return TierAction::Demote;
  }

  /// Whether a Method-tier loop with \p HitCount hits should compile now.
  bool shouldMethodCompile(const TierState &S, uint32_t HitCount,
                           bool HasMethodFrag) const {
    return S.Current == Tier::Method && !HasMethodFrag &&
           !S.MethodCompilePending && HitCount >= MethodJitThreshold;
  }

private:
  TierMode Mode;
  uint32_t MethodJitThreshold;
  uint32_t MaxRecordingFailures;
  uint32_t BlacklistBackoff;
  bool BlacklistingEnabled;
};

} // namespace tracejit

#endif // TRACEJIT_TRACE_TIER_H

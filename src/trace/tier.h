//===- tier.h - §3.3 blacklisting: per-loop tier state and policy ----------===//
//
// Every hot loop runs in one of two tiers:
//
//   Trace ---- MaxRecordingFailures failed root recordings ----> Interpreter
//
// A loop starts in Trace. Each failed root recording backs the loop off
// for BlacklistBackoff header hits before it may record again; at the
// failure cap the monitor blacklists it by patching its LoopHeader to Nop3,
// so the interpreter never calls the monitor for it again (§3.3). A
// successfully installed tree resets the failure count (§4.2 forgiveness).
//
// TierPolicy is the pure decision function; all mutation of LoopState stays
// in the monitor, so the policy is unit-testable on its own.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_TRACE_TIER_H
#define TRACEJIT_TRACE_TIER_H

#include <cstdint>

#include "api/options.h"

namespace tracejit {

/// Which tier a loop currently runs in.
enum class Tier : uint8_t {
  Interpreter, ///< Blacklisted: never recorded or compiled again.
  Trace,       ///< Trace-recording pipeline (every loop starts here).
};

/// Per-loop blacklist state, embedded in the monitor's LoopState.
struct TierState {
  Tier Current = Tier::Trace;
  /// Consecutive failed root recordings (reset on successful install).
  uint32_t Failures = 0;
  /// Do not retry recording until the loop's hit counter passes this.
  uint32_t BackoffUntil = 0;
};

/// The §3.3 backoff/blacklist rule. Constructed once per monitor from
/// EngineOptions; holds no per-loop state.
class TierPolicy {
public:
  explicit TierPolicy(const EngineOptions &O)
      : MaxRecordingFailures(O.MaxRecordingFailures),
        BlacklistBackoff(O.BlacklistBackoff),
        BlacklistingEnabled(O.EnableBlacklisting) {}

  /// A root-anchored recording aborted. Updates the failure/backoff
  /// bookkeeping and answers whether the loop must be blacklisted now.
  /// \p Counts is false for a forgiven abort (it backs off briefly but
  /// never accumulates failures); \p HitCount is the loop's current hit
  /// counter.
  bool onRootAbort(TierState &S, bool Counts, uint32_t HitCount) const {
    if (S.Current != Tier::Trace || !BlacklistingEnabled)
      return false;
    if (!Counts) {
      S.BackoffUntil = HitCount + 4;
      return false;
    }
    ++S.Failures;
    S.BackoffUntil = HitCount + BlacklistBackoff;
    return S.Failures >= MaxRecordingFailures;
  }

private:
  uint32_t MaxRecordingFailures;
  uint32_t BlacklistBackoff;
  bool BlacklistingEnabled;
};

} // namespace tracejit

#endif // TRACEJIT_TRACE_TIER_H

//===- verify.h - LIR verifier and trace-invariant checker -------------------===//
//
// Static analysis over trace-flavored LIR: enforce mechanically the
// invariants the paper's correctness story rests on. Traces are straight
// lines of SSA instructions (§3.1), so "dominance" is linear order and the
// whole IR is checkable in one pass; every guard carries an exit type map
// describing the interpreter state it restores (§2, §4); and the forward
// and backward filter pipelines (§5.1) must preserve all of that while
// rewriting the instruction stream.
//
// Two entry points cover the whole pipeline:
//
//  * VerifyWriter -- a streaming LirWriter at the head of the forward
//    pipeline. It checks each instruction as the recorder emits it, before
//    any filter sees it: operand types match the op signature, operands
//    are defined before use, loads/stores use well-typed base+disp
//    addressing and name one location class their base agrees with, and
//    guards/overflow ops carry a non-null ExitDescriptor whose type map
//    covers NumGlobals + Sp slots.
//
//  * verifyTrace() -- a whole-trace pass run after the backward filters
//    and before the compiler. It re-checks the per-instruction rules on
//    the filtered body (catching uses of DCE-removed values) and adds the
//    pipeline-level invariants: exit map lengths, exit Sp/frame bounds,
//    TAR offsets inside the fragment's slot domain, tree-call stitch
//    points whose entry/exit maps agree, and exactly one terminator, last.
//
// A violation produces a structured VerifyError (rule id, instruction
// index, printer excerpt); callers surface it as AbortReason::VerifyFailed
// so the recording aborts and blacklists rather than compiling garbage.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_LIR_VERIFY_H
#define TRACEJIT_LIR_VERIFY_H

#include <string>

#include "lir/lir.h"
#include "support/events.h"

namespace tracejit {

class Fragment;
struct VMStats;

/// One verifier violation. Only the first violation of a trace is kept:
/// after an invariant breaks, follow-on reports are noise.
struct VerifyError {
  VerifyRule Rule = VerifyRule::None;
  uint32_t InsId = ~0u;  ///< LIns::Id of the offending instruction, or ~0u.
  std::string Message;   ///< Includes a formatIns() excerpt where possible.

  explicit operator bool() const { return Rule != VerifyRule::None; }
  /// "rule-name @vN: message" -- ready for diagnostics.
  std::string describe() const;
};

/// Streaming verifier at the head of the forward pipeline (§5.1). Checks
/// arguments before forwarding downstream, so a recorder bug is attributed
/// to its emission site rather than to whatever the filters made of it.
/// On the first violation the error latches (failed() turns true); the
/// instruction is still forwarded so the pipeline stays consistent while
/// the recorder unwinds and aborts.
class VerifyWriter final : public LirWriter {
public:
  /// \p Buf is the pipeline tail: an operand is "defined" iff it already
  /// lives in the buffer (downstream filters may mint constants that never
  /// pass through this writer, so membership is checked there, not here).
  /// \p NumGlobals sizes the slot domain for exit-map checks
  /// (type map length must be NumGlobals + Sp at every exit).
  VerifyWriter(LirWriter *Downstream, LirBuffer &Buf, uint32_t NumGlobals,
               VMStats *Stats = nullptr);

  bool failed() const { return static_cast<bool>(Err); }
  const VerifyError &error() const { return Err; }

  LIns *ins0(LOp Op) override;
  LIns *ins1(LOp Op, LIns *A) override;
  LIns *ins2(LOp Op, LIns *A, LIns *B) override;
  LIns *insLoad(LOp Op, LIns *Base, int32_t Disp, AccSet Loc) override;
  LIns *insStore(LOp Op, LIns *Val, LIns *Base, int32_t Disp,
                 AccSet Loc) override;
  LIns *insCall(const CallInfo *CI, LIns **Args, uint32_t N) override;
  LIns *insGuard(LOp Op, LIns *Cond, ExitDescriptor *Exit) override;
  LIns *insOvf(LOp Op, LIns *A, LIns *B, ExitDescriptor *Exit) override;
  LIns *insExit(ExitDescriptor *Exit) override;
  LIns *insTreeCall(Fragment *Inner, ExitDescriptor *Expected,
                    ExitDescriptor *MismatchExit) override;
  LIns *insJmpFrag(Fragment *Target) override;

private:
  void fail(VerifyRule R, const std::string &Msg, const LIns *At = nullptr);
  /// Operand checks shared with the emission overrides; all latch the
  /// first error and return false once anything failed.
  bool checkDefined(LOp Op, const LIns *O, const char *Which);
  bool checkOperands(LOp Op, LIns *A, LIns *B);
  bool checkExit(LOp Op, const ExitDescriptor *Exit);
  void countIns();

  LirBuffer &Buf;
  uint32_t NumGlobals;
  VMStats *Stats;
  VerifyError Err;
};

/// Whole-trace pass over a finished (post-filter) fragment body. Returns
/// true when every invariant holds; otherwise fills \p Err with the first
/// violation. \p NumGlobals is the global-table size of the trace's slot
/// domain (Fragment::EntryTypes.NumGlobals for recorded traces). Counts
/// activity into \p Stats when given.
bool verifyTrace(const Fragment &F, uint32_t NumGlobals, VerifyError &Err,
                 VMStats *Stats = nullptr);

} // namespace tracejit

#endif // TRACEJIT_LIR_VERIFY_H

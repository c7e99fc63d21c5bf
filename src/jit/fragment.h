//===- fragment.h - Compiled trace fragments and side exits ----------------===//
//
// A Fragment is one compiled trace: the trunk of a tree, a branch trace, or
// a type-unstable peer. Fragments are entered with a trace activation
// record (TAR) and leave through an ExitDescriptor that tells the monitor
// how to rebuild interpreter state (paper §3.1 "Guards and side exits",
// §6.1 "Calling compiled traces").
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_JIT_FRAGMENT_H
#define TRACEJIT_JIT_FRAGMENT_H

#include <cstdint>
#include <memory>
#include <vector>

#include "support/arena.h"
#include "trace/typemap.h"

namespace tracejit {

struct FunctionScript;
struct LIns;
class Fragment;

/// Why a guard exits (drives the monitor's post-exit policy).
enum class ExitKind : uint8_t {
  Branch,   ///< Control flow diverged from the recording (stitchable).
  Type,     ///< A value had a different type than recorded (stitchable).
  Overflow, ///< Integer speculation failed (stitchable).
  LoopExit, ///< The loop condition ended the loop (normal completion).
  Unstable, ///< Type-unstable loop tail; linkable to a peer trace.
  Nested,   ///< An inner tree returned through an unexpected exit.
  Preempt,  ///< The preempt/GC flag was set (§6.4).
  Deopt,    ///< Give up on this iteration (e.g. would-reenter natives).
};

const char *exitKindName(ExitKind K);

/// One entry of the interpreter frame chain captured at an exit; enough to
/// re-synthesize interpreter call frames ("it pops or synthesizes
/// interpreter JavaScript call stack frames as needed", §6.1).
struct FrameEntry {
  FunctionScript *Script;
  uint32_t Base;     ///< Value-stack index of local 0.
  uint32_t ReturnPc; ///< Caller resume pc (0 for the bottom frame).
};

/// The one frame-chain rule for entering a tree, calling it as a nested
/// tree and linking an exit to a peer: the same depth, the same base at
/// every depth, and the same script at every depth but the bottom one.
/// The bottom frame is the calling eval's top-level script, always a live
/// interpreter frame that no trace inlines, so a function's tree serves
/// calls from later evals too. When it is the only frame the tree's loop
/// is in it, and its script must match.
template <typename FrameA, typename FrameB>
bool framesMatch(const std::vector<FrameA> &A, const std::vector<FrameB> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t D = 0; D < A.size(); ++D)
    if (A[D].Base != B[D].Base ||
        ((D > 0 || A.size() == 1) && A[D].Script != B[D].Script))
      return false;
  return true;
}

/// A stack slot whose value at an exit is known when the trace is
/// recorded: an immediate, or a value a guard pinned to one (the callee
/// after its identity guard). The exit restores it from here, so the trace
/// need not keep it in the TAR.
struct ExitConstSlot {
  uint32_t Slot; ///< TAR slot index (NumGlobals + value-stack index).
  uint64_t Word; ///< Unboxed TAR word, typed by the exit's type map.
};

/// Everything the monitor needs to resume the interpreter at a side exit.
struct ExitDescriptor {
  uint32_t Id = 0;
  ExitKind Kind = ExitKind::Branch;
  uint32_t Pc = 0; ///< Resume pc within the top frame.
  uint32_t Sp = 0; ///< Interpreter value-stack top at the exit.
  std::vector<FrameEntry> Frames; ///< Bottom-to-top frame chain.
  /// Types of slots [0, NumGlobals + Sp): how to rebox. A Boxed slot is
  /// the interpreter's already and is not written back.
  TypeMap Types;
  /// Exit-constant slots, sorted by slot; only stack slots above the
  /// tree's entry Sp, which nothing but exits can observe. Restores take
  /// these words instead of the TAR's, the dead-store filter drops the
  /// stores that only fed them, and a branch trace grown here imports them
  /// as immediates.
  std::vector<ExitConstSlot> ConstSlots;
  /// Nested exits: the tree the call site called. A slot the call-site map
  /// types but the callee's entry map leaves Boxed stayed in the TAR, out
  /// of the callee's reach; the monitor writes it back when the callee
  /// leaves through another exit.
  const Fragment *Callee = nullptr;

  // --- Runtime state ---------------------------------------------------------
  Fragment *Parent = nullptr;  ///< Fragment this exit belongs to.
  uint32_t Hits = 0;           ///< Executions of this exit (hotness).
  uint32_t FailedRecordings = 0;
  bool RecordingBlocked = false; ///< Stop trying to extend here.
  Fragment *Target = nullptr;  ///< Stitched branch fragment, if any.
  /// Native code: the rel32 field of every jcc/jmp that leaves for this
  /// exit (write-view addresses). Stitching (§6.2) rewrites each one to
  /// jump straight into the branch fragment. Filled by the compile, on the
  /// compiler thread when compiling off-thread.
  std::vector<uint8_t *> JumpSites;
  /// A branch recording anchored at this exit is queued for off-thread
  /// compilation; blocks duplicate recordings until the job publishes.
  bool CompilePending = false;
};

/// What kind of trace a fragment holds.
enum class FragmentKind : uint8_t {
  Root,   ///< Tree trunk, anchored at a loop header.
  Branch, ///< Attached to a side exit of the same tree.
};

/// A compiled trace.
class Fragment {
public:
  uint32_t Id = 0;
  /// Code-cache generation this fragment was recorded in. A whole-cache
  /// flush retires every fragment and bumps the monitor's generation;
  /// fragments never outlive their generation.
  uint32_t Generation = 0;
  FragmentKind Kind = FragmentKind::Root;
  FunctionScript *AnchorScript = nullptr;
  uint32_t AnchorPc = 0; ///< Loop header pc (roots) / exit pc (branches).
  /// Types the fragment expects in the TAR at entry (§3.1); Boxed for the
  /// slots it does not specialize on. A root's map types the slots its
  /// loop's code names and the ones its recording used; a branch's is its
  /// anchor exit's map.
  TypeMap EntryTypes;
  /// The static shape of the frame chain at entry (scripts and bases;
  /// return pcs below the entry depth are dynamic -- see
  /// VMContext::FrameReturnPcs). Entry
  /// matching compares this along with the type map: two call chains with
  /// identical slot types but different scripts must not share a trace.
  std::vector<FrameEntry> EntryFrames;

  /// Root fragment of the tree this fragment belongs to.
  Fragment *Root = nullptr;

  /// The loop this tree is anchored at (static extent; root fragments).
  struct LoopRecord *Loop = nullptr;

  /// Interpreter frame depth at trace entry (branch traces are only grown
  /// from exits at the same depth).
  uint32_t EntryFrameCount = 0;

  /// Exits owned by this fragment (stable addresses).
  std::vector<std::unique_ptr<ExitDescriptor>> Exits;

  /// Arena owning this fragment's LIR (instructions, operand lists, type
  /// maps). Per-fragment rather than monitor-wide so a compile job is
  /// self-contained: the LIR travels with the fragment to the compiler
  /// thread and dies with the fragment, not with a global reset.
  std::unique_ptr<Arena> LirArena;

  /// LIR body (arena-owned instructions; kept for the executor backend and
  /// for diagnostics).
  std::vector<LIns *> Body;

  // --- Loop-optimizer prologue region (lir/opt.h, Hoist pass) ---------------
  /// Body[0, PrologueEnd) is the trace prologue: loop-invariant code and
  /// hoisted guards executed once per tree entry. The Loop back edge
  /// re-enters at Body[PrologueEnd], not 0. Zero = no prologue (the whole
  /// body is the loop, today's default shape).
  uint32_t PrologueEnd = 0;
  /// Exit every hoisted guard fails through: a Deopt snapshot of the exact
  /// entry state (taken before any LIR ran), so a prologue guard failure
  /// means "pretend we never entered". Null until the recorder creates it
  /// (root fragments recorded with the Hoist pass enabled).
  ExitDescriptor *EntryExit = nullptr;
  /// Times EntryExit fired (hoisted-guard failure at entry).
  uint32_t EntryDeopts = 0;
  /// Monitor-side thrash control: skip entering this fragment until the
  /// loop's hit counter passes this (a failed entry resumes at the header,
  /// which would otherwise immediately re-enter the same fragment).
  /// UINT32_MAX = retired from entry for good (EntryDeoptLimit reached).
  uint32_t EnterBlockedUntil = 0;

  /// Values embedded as constants in the code; the trace cache roots them
  /// so the GC cannot collect objects compiled traces point at.
  std::vector<Value> EmbeddedRoots;

  /// Exit stub index -> descriptor, read by the native exit tail (each
  /// stub loads its index into eax). Filled by the native compile and
  /// never resized afterwards: compiled code embeds data().
  std::vector<ExitDescriptor *> ExitTable;

  /// Native entry point (native backend) or nullptr (executor backend).
  /// Write-view address; translate through ExecMemPool::execAddr() to run.
  uint8_t *NativeEntry = nullptr;
  uint32_t NativeSize = 0;

  /// Owned by a compile job in flight on the compiler thread. The engine
  /// thread must not read NativeEntry/NativeSize/JumpSites or profile
  /// this fragment until publication clears the flag.
  bool CompilePending = false;

  /// TAR slots this fragment may touch (monitor sizes the TAR buffer).
  uint32_t RequiredTarSlots = 0;

  /// Bytecodes covered by one pass through this fragment (Figure 11).
  uint32_t BytecodesCovered = 0;

  /// Executor-backend link targets: exits linked to other fragments when
  /// stitching without native patching.
  // (Exit->Target serves both backends; JumpSites is native-only.)

  /// Iterations executed (entries via trampoline or internal loop edges).
  /// Counted by LIR instrumentation, so only in CollectStats builds.
  uint64_t Iterations = 0;

  // --- Telemetry (FragmentProfile sources; see support/events.h) -----------
  /// Monitor-mediated entries (trampoline calls); always counted.
  uint64_t Enters = 0;
  /// LIR instruction counts as recorded and after the backward filters.
  uint32_t LirRecorded = 0;
  uint32_t LirAfterFilters = 0;

  ExitDescriptor *makeExit() {
    Exits.push_back(std::make_unique<ExitDescriptor>());
    ExitDescriptor *E = Exits.back().get();
    E->Id = (uint32_t)Exits.size() - 1;
    E->Parent = this;
    return E;
  }
};

} // namespace tracejit

#endif // TRACEJIT_JIT_FRAGMENT_H

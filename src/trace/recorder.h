//===- recorder.h - The trace recorder -----------------------------------------===//
//
// Shadows the interpreter bytecode-by-bytecode while recording, emitting
// type-specialized LIR through the forward filter pipeline (§3.1, §6.3).
// The recorder:
//
//  * tracks interpreter slots (globals + the whole value stack) as LIR
//    values with trace types, importing lazily -- typed loads from the TAR
//    for typed slots, guarded unboxing from the interpreter for Boxed ones
//    (trace/typemap.h) -- and materializing every write as a TAR store
//    (the backward dead-store filters remove the unobservable ones, §5.1);
//  * for a root, builds the entry type map from the slots its loop's code
//    names and the slots the recording used (what it read from the TAR,
//    what it holds typed at the loop edge). Every other slot is Boxed, so
//    the tree does not specialize on it -- and so is every local dead at
//    the loop header, which the loop edge drops rather than boxes;
//  * peeks at the live interpreter state (which has not yet executed the
//    bytecode) to specialize on observed types, shapes, callee identity,
//    bounds, and branch directions, emitting a guard for each speculation;
//  * inlines scripted calls by mirroring the interpreter's frame layout
//    (function inlining, §3.1), and calls typed natives directly (§6.5);
//  * snapshots an ExitDescriptor per guard: resume pc, stack depth, frame
//    chain, the type map needed to rebox the TAR into the interpreter, and
//    the stack slots whose value there is a recording-time constant.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_TRACE_RECORDER_H
#define TRACEJIT_TRACE_RECORDER_H

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/interpreter.h"
#include "jit/fragment.h"
#include "lir/filters.h"
#include "lir/lir.h"
#include "lir/verify.h"
#include "trace/oracle.h"

namespace tracejit {

class TraceMonitor;

class TraceRecorder {
public:
  /// What recording is extending.
  enum class Mode : uint8_t {
    Root,   ///< New tree (or new type-unstable peer) at a loop header.
    Branch, ///< Branch trace from a hot side exit of an existing tree.
  };

  TraceRecorder(VMContext &Ctx, Interpreter &I, TraceMonitor &M, Fragment *F,
                Mode Mode, LoopRecord *Loop, ExitDescriptor *AnchorExit);
  ~TraceRecorder();

  enum class Status : uint8_t { Recording, Finished, Aborted };
  Status status() const { return St; }
  /// Why the recording aborted (AbortReason::None while recording).
  AbortReason abortReason() const { return AbortCause; }
  Fragment *fragment() { return F; }
  Mode mode() const { return RecMode; }
  LoopRecord *loop() { return Loop; }

  /// Pre-execution hook for every bytecode except LoopHeader.
  void recordOp(uint32_t Pc);

  /// Called by the monitor at a loop header. \p AtAnchor: this is the
  /// header the trace must close at (same pc and frame depth).
  bool atAnchor(uint32_t Pc) const;

  /// End the trace with a LoopExit if \p Pc, about to run in the entry
  /// frame, lies outside the traced loop. True when recording stopped
  /// (finished, or aborted by the verifier).
  bool endIfLeftLoop(uint32_t Pc);

  /// Close the loop at the anchor header: emit the preempt guard and
  /// either the Loop back edge (type-stable), a JmpFrag to a matching peer
  /// (branch traces / linked peers), or an unstable Exit. Moves the LIR
  /// body into the fragment. Returns false if the trace had to be aborted.
  bool closeLoop(const std::vector<Fragment *> &Peers);

  /// Record a call to a nested tree that the monitor just executed
  /// successfully, then adopt the inner tree's exit state (§4.1).
  void recordTreeCall(Fragment *Inner, ExitDescriptor *TakenExit);

  /// Do the recorder's current frames (scripts, bases) match a fragment's
  /// entry chain? Required in addition to type-map equality.
  bool framesMatch(const std::vector<FrameEntry> &Entry) const;

  /// Can the current state be adapted to \p Entry? Each slot \p Entry
  /// types must hold that type, or Int where it wants Double (the only
  /// legal promotion); a Boxed slot reads under a guard on its live type.
  /// Slots \p Entry leaves Boxed always adapt. Exact matches return true.
  bool canCoerceTo(const TypeMap &Entry);
  /// Emit the code that makes the current state match \p Entry exactly:
  /// import and promote the slots it types into the TAR, and box every
  /// slot it leaves Boxed back into the interpreter. Guards the imports
  /// emit resume at \p Pc. For a call to nested tree \p Callee, the locals
  /// dead at its header are dropped instead (dropDeadLocals), and a slot it
  /// leaves Boxed but can never reach stays in the TAR (the monitor writes
  /// it back if the inner tree exits elsewhere). At a loop edge, closeLoop
  /// has dropped the locals dead at the root's header before this runs.
  void coerceTo(const TypeMap &Entry, uint32_t Pc,
                const Fragment *Callee = nullptr);

  /// The recorder's current view of slot types, as a full type map over
  /// [0, NumGlobals + vSp): Boxed where the interpreter holds the value.
  TypeMap currentTypeMap();

  /// Current virtual frame depth (for anchor identification).
  size_t frameDepth() const { return VFrames.size(); }

  void abort(AbortReason Why);

private:
  // --- Slot tracking -----------------------------------------------------------
  struct Tracked {
    LIns *Ins = nullptr; ///< Null for Null/Undefined (type carries all).
    TraceType Ty = TraceType::Undefined;
    /// False for a value unboxed from the interpreter (a Boxed slot) and
    /// not written since: the TAR does not hold it, so type maps keep the
    /// slot Boxed.
    bool InTar = true;
  };

  uint32_t numGlobals() const { return F->EntryTypes.NumGlobals; }
  uint32_t slotOfGlobal(uint32_t G) const { return G; }
  uint32_t slotOfStack(uint32_t StackIdx) const {
    return numGlobals() + StackIdx;
  }

  Tracked readSlot(uint32_t Slot);
  void writeSlot(uint32_t Slot, LIns *V, TraceType T);
  void track(uint32_t Slot, const Tracked &V);
  /// The interpreter's own cell for \p Slot: where a Boxed slot's value
  /// lives while the trace runs. The value stack never moves, and the
  /// global table only moves when it grows, which changes NumGlobals and
  /// so retires every fragment recorded before.
  Value *interpSlot(uint32_t Slot);
  /// Import Boxed slot \p Slot: load its word from the interpreter and
  /// unbox it under a guard on the type it holds now.
  Tracked importBoxed(uint32_t Slot);
  /// The type slot \p Slot holds now, peeking at the interpreter for an
  /// unimported Boxed slot.
  TraceType valueTypeOf(uint32_t Slot);
  /// Make the interpreter hold slot \p Slot's value (box it there), for a
  /// fragment that expects the slot Boxed.
  void flushSlot(uint32_t Slot);
  /// Forget slot \p Slot's value without boxing it: the slot reads as
  /// Boxed from here on, and the interpreter keeps whatever stale value it
  /// had. Only for a local dead at the header control is about to reach.
  void dropSlot(uint32_t Slot);
  /// dropSlot every local of the top frame that is dead at \p Tree's loop
  /// header (analysis/analysis.h, loopLiveLocals). \p Tree is anchored in
  /// the top frame.
  void dropDeadLocals(const Fragment &Tree);
  /// Root recordings: the entry map the tree specializes on (see
  /// EntryRead / EntryBoxed), and the rewrite of every exit snapshotted
  /// before it was known.
  TypeMap rootEntryMap();
  void finishRootEntry();
  /// The terminator is emitted: settle a root's entry map and move the
  /// body into the fragment.
  void finish();
  void noteSlot(uint32_t Slot) {
    if (Slot + 1 > MaxSlot)
      MaxSlot = Slot + 1;
  }

  // Virtual operand stack of the top frame (indices are interpreter
  // value-stack positions).
  Tracked readStack(uint32_t StackIdx) { return readSlot(slotOfStack(StackIdx)); }
  void push(LIns *V, TraceType T) {
    writeSlot(slotOfStack(VSp), V, T);
    ++VSp;
  }
  Tracked pop() {
    --VSp;
    return readSlot(slotOfStack(VSp));
  }
  Tracked top(uint32_t Depth = 0) { return readSlot(slotOfStack(VSp - 1 - Depth)); }

  // --- Exits ---------------------------------------------------------------------
  ExitDescriptor *snapshot(ExitKind Kind, uint32_t Pc);
  /// Rewrite \p E's exit-constant slots as immediates: the TAR does not
  /// hold them when control arrives from that exit (branch traces, tree
  /// calls).
  void importExitConsts(const ExitDescriptor *E);
  void importConst(const ExitConstSlot &C, TraceType T);

  // --- Emission helpers -------------------------------------------------------------
  LIns *tarBase() { return ParamTar; }
  LIns *immI(int32_t V) { return W->insImmI(V); }
  LIns *immQ(int64_t V) { return W->insImmQ(V); }
  LIns *immD(double V) { return W->insImmD(V); }
  LIns *ldSlot(TraceType T, uint32_t Slot);
  void stSlot(uint32_t Slot, LIns *V, TraceType T);

  /// Unbox a boxed value word under a type guard (heap loads).
  LIns *unboxGuarded(LIns *Word, TraceType Expect, uint32_t Pc);
  /// Build a boxed value word from an unboxed value (may emit a BoxDouble
  /// call for doubles).
  LIns *boxValue(LIns *V, TraceType T);

  LIns *promoteToD(const Tracked &V);
  LIns *asInt32(const Tracked &V);
  LIns *truthyIns(const Tracked &V);
  bool isNumericType(TraceType T) const {
    return T == TraceType::Int || T == TraceType::Double ||
           T == TraceType::Boolean;
  }
  bool isIntLike(TraceType T) const {
    return T == TraceType::Int || T == TraceType::Boolean;
  }

  /// Guard that object \p Obj (unboxed ptr) has shape \p S.
  void guardShape(LIns *Obj, class Shape *S, uint32_t Pc);
  void guardIsArray(LIns *Obj, uint32_t Pc);
  /// Guard that \p Obj's shape is one of \p Shapes[0..N): one shape load,
  /// per-shape EqQ compares OR-ed into a single GuardT. N == 1 degenerates
  /// to guardShape.
  void guardShapeMulti(LIns *Obj, class Shape *const *Shapes, size_t N,
                       uint32_t Pc);
  /// Shape guard for a named-slot property site, preferring IC knowledge:
  /// a mono site replays the interpreter-proven (shape, slot) pair; a poly
  /// site whose entries agree on \p Slot gets one multi-shape guard so a
  /// single trace serves every cached shape. Falls back to a plain
  /// guardShape on the live shape.
  void icShapeGuard(const PropertyIC &IC, Object *RO, LIns *Obj, uint32_t Slot,
                    uint32_t Pc);
  /// True when the IC or the oracle says this property site is megamorphic
  /// (the oracle remembers across IC invalidation).
  bool icSiteMegamorphic(const PropertyIC &IC, uint32_t Pc) const;

  // --- Bytecode recording ------------------------------------------------------------
  void recordArith(Op O, uint32_t Pc);
  void recordCompare(Op O, uint32_t Pc);
  void recordBitop(Op O, uint32_t Pc);
  void recordBranch(Op O, uint32_t Pc);
  void recordGetProp(uint32_t Pc);
  void recordSetProp(uint32_t Pc);
  void recordGetElem(uint32_t Pc);
  void recordSetElem(uint32_t Pc);
  void recordCall(uint32_t Pc);
  void recordCallProp(uint32_t Pc);
  void recordReturn(Op O, uint32_t Pc);
  void recordScriptedCall(Object *Callee, uint32_t ArgC, uint32_t ReturnPc,
                          uint32_t Pc);
  bool recordTraceableNative(Object *Callee, uint32_t ArgC, uint32_t Pc);

  /// Interpreter peeking: the op has not executed yet, so the operand
  /// values are on the live interpreter stack.
  Value peekStack(uint32_t DepthFromTop);
  FunctionScript *script() const;

  VMContext &Ctx;
  Interpreter &Interp;
  TraceMonitor &Monitor;
  Fragment *F;
  Mode RecMode;
  LoopRecord *Loop; ///< Extent of the loop being traced (root tree's loop).
  ExitDescriptor *AnchorExit; ///< Branch mode: the exit being extended.

  // Virtual mirror of the interpreter.
  struct RecFrame {
    FunctionScript *Script;
    uint32_t Base;
    uint32_t ReturnPc;
  };
  std::vector<RecFrame> VFrames;
  uint32_t VSp = 0;
  size_t EntryFrameDepth = 0;

  std::unordered_map<uint32_t, Tracked> Tracker;
  /// Fallback types for unimported slots (entry map, updated after tree
  /// calls). Boxed: the interpreter holds the value.
  std::vector<TraceType> FallbackTypes;

  // Root entry-map construction. A root's slot is open while it still
  // holds its entry value untouched: typed by the live map in
  // FallbackTypes, and whether the tree specializes on it is undecided.
  // Reading it types it in the entry map; a tree call whose callee may
  // reach it but leaves it Boxed pins it Boxed; untouched to the end, it
  // is Boxed.
  std::vector<uint8_t> Open;
  /// Slots whose entry value the recording read (typed in the entry map).
  std::vector<uint8_t> EntryRead;
  /// Locals dead at the loop header: Boxed in the entry map, whatever the
  /// recording did with them.
  std::vector<uint8_t> Dead;
  /// Open slots a tree call left Boxed (the inner tree reads them from the
  /// interpreter).
  std::vector<uint8_t> EntryBoxed;
  /// Exits existing when each slot stopped being open: an exit with a
  /// lower id saw the slot at its entry value.
  std::vector<uint32_t> OpenUntil;
  bool isOpen(uint32_t Slot) const { return Slot < Open.size() && Open[Slot]; }
  void closeOpen(uint32_t Slot) {
    Open[Slot] = 0;
    OpenUntil[Slot] = (uint32_t)F->Exits.size();
  }
  /// The slots of [0, NumGlobals + vSp) that a fragment of nested tree
  /// \p Tree, now or grown later, may read or write, decided from its
  /// loop's bytecode: a caller frame's slot is out of reach, a local is
  /// reached only through GetLocal/SetLocal in the loop body, a global
  /// through GetGlobal/SetGlobal there or any call the body makes.
  std::vector<uint8_t> reachableSlots(const Fragment *Tree) const;

  uint32_t ExitPc = 0; ///< Resume pc for guards emitted by a slot import.

  // LIR pipeline.
  std::unique_ptr<LirBuffer> Buffer;
  std::unique_ptr<CseFilter> Cse;
  std::unique_ptr<ExprFilter> Expr;
  std::unique_ptr<VerifyWriter> Verify; ///< Head when Opts.VerifyLir.
  LirWriter *W = nullptr;
  LIns *ParamTar = nullptr;

  /// Latched-verifier check: true (and aborts with VerifyFailed, printing
  /// the diagnostic) when the streaming verifier has rejected an emission.
  bool verifyFailed();

  Status St = Status::Recording;
  AbortReason AbortCause = AbortReason::None;
  uint32_t MaxSlot = 0;
  uint32_t OpsRecorded = 0;
  /// Root recordings: the recording took the exit of its loop's test
  /// (recordBranch), so it leaves the loop with no body op recorded.
  bool LeftAtLoopTest = false;
};

} // namespace tracejit

#endif // TRACEJIT_TRACE_RECORDER_H

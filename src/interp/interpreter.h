//===- interpreter.h - Boxed-value bytecode interpreter --------------------===//
//
// The baseline execution engine: a stack-based bytecode interpreter over
// boxed, tag-dispatched values -- deliberately shaped like the SpiderMonkey
// interpreter the paper starts from. Every operator checks tags,
// dispatches, unboxes, computes, and reboxes; eliminating exactly these
// costs is what trace compilation is for.
//
// The interpreter exposes its frame/stack state to the trace monitor: the
// monitor reads it to build type maps and trace activation records, and
// writes it back when a compiled trace side-exits (paper §6.1).
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_INTERP_INTERPRETER_H
#define TRACEJIT_INTERP_INTERPRETER_H

#include <cstdint>
#include <vector>

#include "frontend/bytecode.h"
#include "interp/vmcontext.h"

namespace tracejit {

class TraceMonitor;

/// One interpreter call frame. Locals live in the shared value stack at
/// [Base, Base+NumLocals); the operand stack follows.
struct Frame {
  FunctionScript *Script = nullptr;
  uint32_t Base = 0;     ///< Value-stack index of local slot 0.
  uint32_t ReturnPc = 0; ///< Caller pc to resume at (pc after the call op).
};

class Interpreter {
public:
  explicit Interpreter(VMContext &C);
  ~Interpreter();

  /// Run a top-level script to completion. Errors land in Ctx.
  Value run(FunctionScript *Top);

  /// Call a callable value with boxed arguments (used by host natives that
  /// call back into script; never while a trace is live).
  Value callValue(Value Callee, Value ThisV, const Value *Args, uint32_t N);

  VMContext &context() { return Ctx; }

  // --- State access for the trace engine -----------------------------------
  std::vector<Frame> &frames() { return Frames; }
  Value *stackData() { return Stack.data(); }
  uint32_t stackTop() const { return Sp; }
  void setStackTop(uint32_t S) { Sp = S; }
  uint32_t currentPc() const { return Pc; }
  void setCurrentPc(uint32_t P) { Pc = P; }
  Frame &currentFrame() { return Frames.back(); }

  /// Value-stack slot index of operand-stack depth \p D in the top frame.
  uint32_t operandBase() const {
    const Frame &F = Frames.back();
    return F.Base + F.Script->NumLocals;
  }

  // --- Semantic helpers shared with the trace runtime ----------------------
  static double toNumber(const Value &V);
  static int32_t toInt32(double D);
  static int32_t valueToInt32(const Value &V) { return toInt32(toNumber(V)); }
  static bool looseEquals(const Value &A, const Value &B);
  static bool strictEquals(const Value &A, const Value &B);
  /// Numeric-or-string relational compare; returns <0, 0, >0, or 2 for
  /// unordered (NaN involved).
  static int compareValues(const Value &A, const Value &B);

  Value concatValues(const Value &A, const Value &B);

private:
  friend class TraceMonitor;
  friend class TraceRecorder;

  /// Dispatch until the frame stack shrinks back to \p StopDepth. The
  /// build picks one harness: threaded (computed goto, pc/sp in locals)
  /// when the compiler supports it (TRACEJIT_COMPUTED_GOTO), else a switch
  /// loop over the members. Both stamp out the same op bodies from
  /// interp/dispatch.inc.
  Value dispatchUntil(size_t StopDepth);

  /// Pop the frame dispatchUntil(StopDepth) was entered for, leaving Sp
  /// at the caller's stack top (the callee slot dropped). Returns from
  /// deeper frames are inline in the dispatch loop.
  void popReturnFrame();

  // Property inline caches (vm/ic.h). icGetProp/icSetProp are the probe
  // fast paths; the fill helpers run after a generic-path miss succeeded.
  bool icGetProp(PropertyIC &IC, const Value &B, Value &Out);
  void icFillGetProp(PropertyIC &IC, const Value &B, String *Name,
                     FunctionScript *Script, uint32_t Pc);
  bool icSetProp(PropertyIC &IC, Object *O, Value V);
  void icFillSetProp(PropertyIC &IC, Object *O, Shape *OldShape, String *Name,
                     FunctionScript *Script, uint32_t Pc);
  void icInsert(PropertyIC &IC, const ICEntry &E, FunctionScript *Script,
                uint32_t Pc);

  bool pushFrameForCall(Object *Callee, uint32_t ArgC);
  Value callNative(Object *Callee, Value ThisV, const Value *Args, uint32_t N);

  /// Property/element/call helpers (shared boxed semantics).
  Value getPropValue(const Value &Base, String *Name);
  Value getElemValue(const Value &Base, const Value &Index);
  bool setElemValue(const Value &Base, const Value &Index, const Value &V);
  Value callPropValue(Value Recv, String *Name, const Value *Args, uint32_t N);

  /// Raise a runtime error at the current pc (kind defaults to Runtime;
  /// pushFrameForCall raises StackOverflow). Source position comes from the
  /// current script's line notes.
  void rtError(const char *Msg);
  void rtError(ErrorKind Kind, const char *Msg);

  // The dispatch loop keeps pc and sp in locals; Pc and Sp are their spill
  // copies, current whenever the loop calls out (interp/dispatch.inc lists
  // the spill/reload points) and whenever no dispatch is running. They are
  // not adjacent on purpose: GCC's SLP vectorizer would otherwise pack every
  // spill pair into one vector store, shuffling both through an XMM register.
  VMContext &Ctx;
  uint32_t Sp = 0; ///< Next free value-stack slot.
  std::vector<Value> Stack;
  std::vector<Frame> Frames;
  uint32_t Pc = 0; ///< Current pc within Frames.back().

  static constexpr uint32_t StackSlots = 1 << 16;
};

} // namespace tracejit

#endif // TRACEJIT_INTERP_INTERPRETER_H

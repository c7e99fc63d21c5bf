//===- bytecode.h - Bytecode opcodes and compiled scripts -----------------===//
//
// A compact stack bytecode for the MiniJS subset. Design points taken from
// the paper:
//
//  * Loop headers are explicit no-op bytecodes ("We define an extra no-op
//    bytecode that indicates a loop header. The VM calls into the trace
//    monitor every time the interpreter executes a loop header no-op. To
//    blacklist a fragment, we simply replace the loop header no-op with a
//    regular no-op." §3.3). `LoopHeader` carries a loop id; blacklisting
//    patches the opcode byte to `Nop3`, which skips the same operand bytes.
//
//  * "A bytecode is a loop header iff it is the target of a backward
//    branch" -- the compiler guarantees every backward Jump targets a
//    LoopHeader.
//
//  * Unlike SpiderMonkey's fat bytecodes, ours are deliberately thin (§6.3
//    discusses why fat bytecodes complicate recording); each bytecode maps
//    to a small recording routine.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_FRONTEND_BYTECODE_H
#define TRACEJIT_FRONTEND_BYTECODE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vm/ic.h"
#include "vm/value.h"

namespace tracejit {

class String;
struct LoopState; // Owned by the trace monitor (hot counters, trees, ...).

enum class Op : uint8_t {
  Nop,
  /// Loop header no-op; operand: u16 loop id. The interpreter invokes the
  /// trace monitor when executing this (the loop edge hook).
  LoopHeader,
  /// Replacement for a blacklisted LoopHeader: same size, no monitor call.
  Nop3,

  PushConst, // u16 const-pool index
  PushUndefined,
  Pop,
  /// Pop like Pop, but also latch the value as the program result
  /// (VMContext::LastResult). Emitted only for top-level expression
  /// statements, so it never appears inside a traceable loop body.
  PopResult,
  Dup,
  Dup2, // duplicate the top two stack slots (member compound assignment)

  GetLocal, // u16 slot
  SetLocal, // u16 slot; stores stack top into the local, value stays pushed
  GetGlobal, // u16 slot
  SetGlobal, // u16 slot; peeks like SetLocal

  GetProp,  // u16 atom index, u16 IC index; obj -> value
  SetProp,  // u16 atom index, u16 IC index; obj value -> value
  InitProp, // u16 atom index; obj value -> obj (object literal init)
  GetElem,  // obj index -> value
  SetElem,  // obj index value -> value

  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Neg,
  BitAnd,
  BitOr,
  BitXor,
  Shl,
  Shr,
  Ushr,
  BitNot,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  StrictEq,
  StrictNe,
  LogicalNot,

  Jump,        // u32 absolute target
  JumpIfFalse, // u32 absolute target; pops condition
  JumpIfTrue,  // u32 absolute target; pops condition

  Call,     // u8 argc; callee arg0..argN-1 -> result
  CallProp, // u16 atom index, u8 argc; receiver arg0..argN-1 -> result

  Return,          // pops return value
  ReturnUndefined, // implicit return

  NewArray,  // u16 element count; pops elements
  NewObject, // pushes empty object

  NumOps
};

/// Static metadata about an opcode.
struct OpInfo {
  const char *Name;
  uint8_t OperandBytes;
};
const OpInfo &opInfo(Op O);

// CFG-shape predicates: the analysis pass (analysis/analysis.h) builds
// basic blocks from these, so they are the single source of truth for
// "which ops redirect or end control flow".

/// Ops carrying a u32 absolute branch target at Pc+1.
inline bool opIsJump(Op O) {
  return O == Op::Jump || O == Op::JumpIfFalse || O == Op::JumpIfTrue;
}

/// Ops after which execution never falls through to the next pc.
inline bool opIsTerminator(Op O) {
  return O == Op::Jump || O == Op::Return || O == Op::ReturnUndefined;
}

/// Static description of one loop in a script: the header pc and the
/// half-open pc range of the loop body (header included). Used by the
/// monitor to decide whether a pc is still inside the loop being recorded
/// (nesting, §4.1: "given two loop edges, the system can easily determine
/// whether they are nested and which is the inner loop").
struct LoopRecord {
  uint32_t HeaderPc = 0;
  uint32_t EndPc = 0; ///< First pc after the loop (exclusive).
  LoopState *State = nullptr;
  /// One byte per local of the script: live at the header (some path from
  /// it reads the local before writing it). Filled on first use by
  /// loopLiveLocals (analysis/analysis.h); empty until then.
  std::vector<uint8_t> LiveLocals;
};

/// Sparse pc -> source position note. The parser records one note per
/// bytecode whose position differs from the previous note's, so runtime
/// errors (stack overflow, type errors) can report where they happened.
struct LineNote {
  uint32_t Pc = 0;
  uint32_t Line = 0; ///< 1-based.
  uint32_t Col = 0;  ///< 1-based.
};

/// A compiled function (or the top-level script).
struct FunctionScript {
  uint32_t Id = 0;
  std::string Name;
  uint32_t Arity = 0;
  uint32_t NumLocals = 0; ///< Includes parameters (slots [0, Arity)).
  uint32_t MaxStack = 0;
  std::vector<uint8_t> Code;
  std::vector<Value> Consts;
  std::vector<String *> Atoms;
  std::vector<LoopRecord> Loops;
  /// Property inline caches, one per GetProp/SetProp site (indexed by the
  /// bytecode's second u16 operand). Mutable execution state, not code:
  /// reset wholesale by VMContext::invalidateAllICs().
  std::vector<PropertyIC> ICs;
  /// Sparse source positions, ascending by Pc (see LineNote).
  std::vector<LineNote> LineNotes;

  Op opAt(uint32_t Pc) const { return (Op)Code[Pc]; }
  uint16_t u16At(uint32_t Pc) const {
    return (uint16_t)(Code[Pc] | (Code[Pc + 1] << 8));
  }
  uint32_t u32At(uint32_t Pc) const {
    return (uint32_t)Code[Pc] | ((uint32_t)Code[Pc + 1] << 8) |
           ((uint32_t)Code[Pc + 2] << 16) | ((uint32_t)Code[Pc + 3] << 24);
  }

  /// Total slots an interpreter frame needs.
  uint32_t frameSlots() const { return NumLocals + MaxStack; }

  /// Source position of the bytecode at \p Pc: the last LineNote at or
  /// before it. {0, 0, 0} when no notes cover the pc.
  LineNote lineAt(uint32_t Pc) const {
    LineNote Best;
    size_t Lo = 0, Hi = LineNotes.size();
    while (Lo < Hi) {
      size_t Mid = Lo + (Hi - Lo) / 2;
      if (LineNotes[Mid].Pc <= Pc) {
        Best = LineNotes[Mid];
        Lo = Mid + 1;
      } else {
        Hi = Mid;
      }
    }
    return Best;
  }

  /// Human-readable disassembly (tests and diagnostics).
  std::string disassemble() const;
};

} // namespace tracejit

#endif // TRACEJIT_FRONTEND_BYTECODE_H

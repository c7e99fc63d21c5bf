//===- lir.h - Trace-flavored SSA LIR ---------------------------------------===//
//
// "In TraceMonkey, traces are recorded in trace-flavored SSA LIR (low-level
// intermediate representation)... The important LIR primitives are constant
// values, memory loads and stores (by address and offset), integer
// operators, floating-point operators, function calls, and conditional
// exits." (§3.1)
//
// Because a trace has no control-flow joins, the IR is a straight line of
// instructions in SSA form; the only control transfers are guards (exits),
// the closing Loop back edge, calls to nested trace trees, and tail jumps
// to peer fragments.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_LIR_LIR_H
#define TRACEJIT_LIR_LIR_H

#include <cstdint>
#include <string>
#include <vector>

#include "support/arena.h"

namespace tracejit {

class Fragment;
struct ExitDescriptor;

/// Value types carried by LIR instructions.
enum class LTy : uint8_t {
  Void,
  I32, ///< 32-bit integer (also booleans 0/1)
  Q,   ///< 64-bit integer / pointer
  D,   ///< IEEE double
};

enum class LOp : uint8_t {
  // Entry.
  ParamTar, ///< The TAR base pointer (Q).

  // Constants.
  ImmI,
  ImmQ,
  ImmD,

  // Memory. A = base (Q), Disp = byte offset. LdUB zero-extends a byte.
  LdI,
  LdQ,
  LdD,
  LdUB,
  // Stores: A = value, B = base, Disp = byte offset.
  StI,
  StQ,
  StD,

  // 32-bit integer ALU.
  AddI,
  SubI,
  MulI,
  AndI,
  OrI,
  XorI,
  ShlI,
  ShrI,  ///< arithmetic shift right
  UshrI, ///< logical shift right
  // Overflow-checked (guards attached; exit on signed overflow).
  AddOvI,
  SubOvI,
  MulOvI,

  // 64-bit ALU (tag manipulation, address arithmetic).
  AddQ,
  AndQ,
  OrQ,
  ShlQ, ///< shift by immediate count (B = ImmI)
  ShrQ, ///< logical; shift by immediate count
  SarQ, ///< arithmetic; shift by immediate count
  Q2I,  ///< truncate to low 32 bits
  UI2Q, ///< zero-extend int32 to 64-bit

  // Integer comparisons -> I32 0/1.
  EqI,
  NeI,
  LtI,
  LeI,
  GtI,
  GeI,
  LtUI, ///< unsigned < (bounds checks)
  // Pointer comparison.
  EqQ,

  // Double arithmetic.
  AddD,
  SubD,
  MulD,
  DivD,
  NegD,
  // Double comparisons -> I32 0/1; NaN compares false (JS semantics).
  EqD,
  NeD, ///< true iff ordered-and-unequal OR unordered (JS !=)
  LtD,
  LeD,
  GtD,
  GeD,

  // Conversions.
  I2D,
  UI2D, ///< uint32 -> double (>>> results)
  D2I,  ///< truncating; pair with an exactness guard where needed

  // Calls to C helpers / typed natives.
  Call,

  // Guards: A = I32 condition; Exit attached. GuardT exits if A is FALSE
  // (the condition must hold to stay on trace); GuardF exits if A is TRUE.
  GuardT,
  GuardF,

  // Unconditional transfer off-trace (trace tail that cannot loop back).
  Exit,

  // Call a nested trace tree (Target fragment); exits through the attached
  // descriptor if the inner tree does not return through ExpectedExit.
  TreeCall,

  // Close the loop: jump back to this fragment's entry.
  Loop,

  // Tail-jump to another fragment (branch trace -> tree anchor; linked
  // type-unstable peers).
  JmpFrag,

  NumOps
};

/// Signature and properties of a callable helper.
struct CallInfo {
  void *Addr = nullptr;
  const char *Name = "?";
  LTy Ret = LTy::Void;
  uint8_t NArgs = 0;
  LTy Args[6] = {};
  bool Pure = false; ///< No side effects; CSE/DCE may touch it.
  /// Portable entry for the LIR executor backend: dispatches to Addr with
  /// args as raw 64-bit words (doubles bit-cast); returns a raw word.
  uint64_t (*Shim)(void *Addr, const uint64_t *A) = nullptr;
};

/// One LIR instruction. Arena-allocated; identity is the pointer.
struct LIns {
  LOp Op = LOp::ImmI;
  LTy Ty = LTy::Void;
  uint32_t Id = 0;   ///< Dense numbering for printing / side tables.
  int32_t Disp = 0;  ///< Loads/stores: byte offset.
  LIns *A = nullptr; ///< First operand.
  LIns *B = nullptr; ///< Second operand.

  union {
    int32_t ImmI32;
    int64_t ImmQ64;
    double ImmDbl;
  } Imm = {0};

  // Calls.
  const CallInfo *CI = nullptr;
  LIns **CallArgs = nullptr;
  uint8_t NCallArgs = 0;

  // Guards / exits / transfers.
  ExitDescriptor *Exit = nullptr;
  Fragment *Target = nullptr;        ///< TreeCall / JmpFrag target.
  ExitDescriptor *ExpectedExit = nullptr; ///< TreeCall expected return.

  bool isGuard() const {
    return Op == LOp::GuardT || Op == LOp::GuardF || Op == LOp::AddOvI ||
           Op == LOp::SubOvI || Op == LOp::MulOvI || Op == LOp::TreeCall;
  }
  bool isLoad() const {
    return Op == LOp::LdI || Op == LOp::LdQ || Op == LOp::LdD ||
           Op == LOp::LdUB;
  }
  bool isStore() const {
    return Op == LOp::StI || Op == LOp::StQ || Op == LOp::StD;
  }
  bool isImm() const {
    return Op == LOp::ImmI || Op == LOp::ImmQ || Op == LOp::ImmD;
  }
};

const char *lopName(LOp Op);

/// Streaming writer interface: the recorder emits into the head of a filter
/// pipeline ("Every time the trace recorder emits a LIR instruction, the
/// instruction is immediately passed to the first filter in the forward
/// pipeline", §5.1). Each filter may pass an instruction through, replace
/// it, or swallow it (returning an equivalent existing value).
class LirWriter {
public:
  explicit LirWriter(LirWriter *Downstream) : Out(Downstream) {}
  virtual ~LirWriter() = default;

  virtual LIns *ins0(LOp Op);
  virtual LIns *ins1(LOp Op, LIns *A);
  virtual LIns *ins2(LOp Op, LIns *A, LIns *B);
  virtual LIns *insImmI(int32_t V);
  virtual LIns *insImmQ(int64_t V);
  virtual LIns *insImmD(double V);
  virtual LIns *insLoad(LOp Op, LIns *Base, int32_t Disp);
  virtual LIns *insStore(LOp Op, LIns *Val, LIns *Base, int32_t Disp);
  virtual LIns *insCall(const CallInfo *CI, LIns **Args, uint32_t N);
  virtual LIns *insGuard(LOp Op, LIns *Cond, ExitDescriptor *Exit);
  /// Overflow-checked arithmetic (guard fused into the op).
  virtual LIns *insOvf(LOp Op, LIns *A, LIns *B, ExitDescriptor *Exit);
  virtual LIns *insExit(ExitDescriptor *Exit);
  virtual LIns *insTreeCall(Fragment *Inner, ExitDescriptor *Expected,
                            ExitDescriptor *MismatchExit);
  virtual LIns *insLoop();
  virtual LIns *insJmpFrag(Fragment *Target);

protected:
  LirWriter *Out;
};

/// Pipeline tail: materializes instructions into a buffer.
class LirBuffer : public LirWriter {
public:
  explicit LirBuffer(Arena &A) : LirWriter(nullptr), TheArena(A) {}

  LIns *ins0(LOp Op) override;
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
  LIns *insExit(ExitDescriptor *Exit) override;
  LIns *insTreeCall(Fragment *Inner, ExitDescriptor *Expected,
                    ExitDescriptor *MismatchExit) override;
  LIns *insLoop() override;
  LIns *insJmpFrag(Fragment *Target) override;

  std::vector<LIns *> &instructions() { return Body; }
  uint32_t size() const { return (uint32_t)Body.size(); }
  Arena &arena() { return TheArena; }

private:
  LIns *append(LIns *I) {
    I->Id = NextId++;
    Body.push_back(I);
    return I;
  }
  LIns *fresh() { return TheArena.make<LIns>(); }

  Arena &TheArena;
  std::vector<LIns *> Body;
  uint32_t NextId = 0;
};

/// Result type of an opcode given the IR's typing rules.
LTy resultType(LOp Op);

/// Render one instruction / a whole body for diagnostics and tests. The
/// PrologueEnd overload brackets a loop-optimized body with "-- prologue --"
/// and "-- loop --" markers (see lir/opt.h).
std::string formatIns(const LIns *I);
std::string formatBody(const std::vector<LIns *> &Body);
std::string formatBody(const std::vector<LIns *> &Body, uint32_t PrologueEnd);

/// Debug consistency check: operand types match opcode signatures, SSA
/// ordering holds (operands defined before uses). Returns an empty string
/// on success, else a description of the first problem.
std::string typecheckBody(const std::vector<LIns *> &Body);

} // namespace tracejit

#endif // TRACEJIT_LIR_LIR_H

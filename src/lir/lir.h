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

/// Flags of an opcode (LirOpInfo::Flags).
enum LirOpFlag : uint8_t {
  /// A value op: no side effect, no trap, the result depends only on the
  /// operands. CSE, hoisting and DCE may move or drop it freely.
  OpPure = 1 << 0,
  OpLoad = 1 << 1,
  OpStore = 1 << 2,
  /// Carries an exit descriptor it may leave the trace through.
  OpGuard = 1 << 3,
  /// Ends the trace; the verifier requires exactly one, last.
  OpTerm = 1 << 4,
  OpImm = 1 << 5,
  /// ExprFilter folds it when every operand is an immediate (evalLir).
  OpFold = 1 << 6,
};

// clang-format off
/// Every LIR opcode, described once (nanojit's LIRopcode.tbl). Each row is
///   X(Op, mnemonic, result, operand A, operand B, flags, mirror, negation)
/// An operand typed Void is absent or typed elsewhere (a call's arguments
/// by its CallInfo, which also gives the call's result). For stores, A is
/// the value and B the base. For compares, the mirror is the relation with
/// the operands swapped and the negation the relation that holds exactly
/// when this one does not; NumOps means there is none.
#define TRACEJIT_LIR_OPS(X)                                                    \
  /* Entry: the TAR base pointer. */                                           \
  X(ParamTar, "param.tar", Q,    Void, Void, 0,              NumOps, NumOps)   \
  /* Constants. */                                                             \
  X(ImmI,     "immi",      I32,  Void, Void, OpImm,          NumOps, NumOps)   \
  X(ImmQ,     "immq",      Q,    Void, Void, OpImm,          NumOps, NumOps)   \
  X(ImmD,     "immd",      D,    Void, Void, OpImm,          NumOps, NumOps)   \
  /* Memory: A = base, Disp = byte offset. LdUB zero-extends a byte. */        \
  X(LdI,      "ldi",       I32,  Q,    Void, OpLoad,         NumOps, NumOps)   \
  X(LdQ,      "ldq",       Q,    Q,    Void, OpLoad,         NumOps, NumOps)   \
  X(LdD,      "ldd",       D,    Q,    Void, OpLoad,         NumOps, NumOps)   \
  X(LdUB,     "ldub",      I32,  Q,    Void, OpLoad,         NumOps, NumOps)   \
  X(StI,      "sti",       Void, I32,  Q,    OpStore,        NumOps, NumOps)   \
  X(StQ,      "stq",       Void, Q,    Q,    OpStore,        NumOps, NumOps)   \
  X(StD,      "std",       Void, D,    Q,    OpStore,        NumOps, NumOps)   \
  /* 32-bit integer ALU; ShrI is arithmetic, UshrI logical. */                 \
  X(AddI,     "addi",      I32,  I32,  I32,  OpPure|OpFold,  NumOps, NumOps)   \
  X(SubI,     "subi",      I32,  I32,  I32,  OpPure|OpFold,  NumOps, NumOps)   \
  X(MulI,     "muli",      I32,  I32,  I32,  OpPure|OpFold,  NumOps, NumOps)   \
  X(AndI,     "andi",      I32,  I32,  I32,  OpPure|OpFold,  NumOps, NumOps)   \
  X(OrI,      "ori",       I32,  I32,  I32,  OpPure|OpFold,  NumOps, NumOps)   \
  X(XorI,     "xori",      I32,  I32,  I32,  OpPure|OpFold,  NumOps, NumOps)   \
  X(ShlI,     "shli",      I32,  I32,  I32,  OpPure|OpFold,  NumOps, NumOps)   \
  X(ShrI,     "shri",      I32,  I32,  I32,  OpPure|OpFold,  NumOps, NumOps)   \
  X(UshrI,    "ushri",     I32,  I32,  I32,  OpPure|OpFold,  NumOps, NumOps)   \
  /* Overflow-checked: exit on signed overflow. */                             \
  X(AddOvI,   "addov",     I32,  I32,  I32,  OpGuard|OpFold, NumOps, NumOps)   \
  X(SubOvI,   "subov",     I32,  I32,  I32,  OpGuard|OpFold, NumOps, NumOps)   \
  X(MulOvI,   "mulov",     I32,  I32,  I32,  OpGuard|OpFold, NumOps, NumOps)   \
  /* 64-bit ALU (tags, addresses); shift counts are immediates. ShrQ is */     \
  /* logical, SarQ arithmetic; Q2I truncates, UI2Q zero-extends. */            \
  X(AddQ,     "addq",      Q,    Q,    Q,    OpPure,         NumOps, NumOps)   \
  X(AndQ,     "andq",      Q,    Q,    Q,    OpPure,         NumOps, NumOps)   \
  X(OrQ,      "orq",       Q,    Q,    Q,    OpPure,         NumOps, NumOps)   \
  X(ShlQ,     "shlq",      Q,    Q,    I32,  OpPure,         NumOps, NumOps)   \
  X(ShrQ,     "shrq",      Q,    Q,    I32,  OpPure,         NumOps, NumOps)   \
  X(SarQ,     "sarq",      Q,    Q,    I32,  OpPure,         NumOps, NumOps)   \
  X(Q2I,      "q2i",       I32,  Q,    Void, OpPure|OpFold,  NumOps, NumOps)   \
  X(UI2Q,     "ui2q",      Q,    I32,  Void, OpPure|OpFold,  NumOps, NumOps)   \
  /* Integer compares -> 0/1; LtUI is unsigned (bounds checks). */             \
  X(EqI,      "eqi",       I32,  I32,  I32,  OpPure|OpFold,  EqI,    NeI)      \
  X(NeI,      "nei",       I32,  I32,  I32,  OpPure|OpFold,  NeI,    EqI)      \
  X(LtI,      "lti",       I32,  I32,  I32,  OpPure|OpFold,  GtI,    GeI)      \
  X(LeI,      "lei",       I32,  I32,  I32,  OpPure|OpFold,  GeI,    GtI)      \
  X(GtI,      "gti",       I32,  I32,  I32,  OpPure|OpFold,  LtI,    LeI)      \
  X(GeI,      "gei",       I32,  I32,  I32,  OpPure|OpFold,  LeI,    LtI)      \
  X(LtUI,     "ltui",      I32,  I32,  I32,  OpPure|OpFold,  NumOps, NumOps)   \
  X(EqQ,      "eqq",       I32,  Q,    Q,    OpPure|OpFold,  EqQ,    NumOps)   \
  /* Double arithmetic. */                                                     \
  X(AddD,     "addd",      D,    D,    D,    OpPure|OpFold,  NumOps, NumOps)   \
  X(SubD,     "subd",      D,    D,    D,    OpPure|OpFold,  NumOps, NumOps)   \
  X(MulD,     "muld",      D,    D,    D,    OpPure|OpFold,  NumOps, NumOps)   \
  X(DivD,     "divd",      D,    D,    D,    OpPure|OpFold,  NumOps, NumOps)   \
  X(NegD,     "negd",      D,    D,    Void, OpPure|OpFold,  NumOps, NumOps)   \
  /* Double compares -> 0/1. NaN compares false, except NeD (JS !=): */        \
  /* only EqD and NeD negate each other. */                                    \
  X(EqD,      "eqd",       I32,  D,    D,    OpPure|OpFold,  EqD,    NeD)      \
  X(NeD,      "ned",       I32,  D,    D,    OpPure|OpFold,  NeD,    EqD)      \
  X(LtD,      "ltd",       I32,  D,    D,    OpPure|OpFold,  GtD,    NumOps)   \
  X(LeD,      "led",       I32,  D,    D,    OpPure|OpFold,  GeD,    NumOps)   \
  X(GtD,      "gtd",       I32,  D,    D,    OpPure|OpFold,  LtD,    NumOps)   \
  X(GeD,      "ged",       I32,  D,    D,    OpPure|OpFold,  LeD,    NumOps)   \
  /* Conversions. UI2D reads a uint32 (>>> results); D2I truncates as */       \
  /* cvttsd2si does, so pair it with an exactness guard where needed. */       \
  X(I2D,      "i2d",       D,    I32,  Void, OpPure|OpFold,  NumOps, NumOps)   \
  X(UI2D,     "ui2d",      D,    I32,  Void, OpPure|OpFold,  NumOps, NumOps)   \
  X(D2I,      "d2i",       I32,  D,    Void, OpPure|OpFold,  NumOps, NumOps)   \
  /* Calls to C helpers and typed natives (signature in the CallInfo). */      \
  X(Call,     "call",      Void, Void, Void, 0,              NumOps, NumOps)   \
  /* Guards: A = condition. GuardT exits if A is false (the paper's xf), */    \
  /* GuardF if it is true. */                                                  \
  X(GuardT,   "xf",        Void, I32,  Void, OpGuard,        NumOps, NumOps)   \
  X(GuardF,   "xt",        Void, I32,  Void, OpGuard,        NumOps, NumOps)   \
  /* Unconditional transfer off-trace. */                                      \
  X(Exit,     "exit",      Void, Void, Void, OpTerm,         NumOps, NumOps)   \
  /* Call a nested tree (Target); exits through the attached descriptor */     \
  /* unless the inner tree returns through ExpectedExit. */                    \
  X(TreeCall, "treecall",  Void, Void, Void, OpGuard,        NumOps, NumOps)   \
  /* Close the loop: jump back to this fragment's entry. */                    \
  X(Loop,     "loop",      Void, Void, Void, OpTerm,         NumOps, NumOps)   \
  /* Tail-jump to another fragment (branch -> anchor, linked peers). */        \
  X(JmpFrag,  "jmpfrag",   Void, Void, Void, OpTerm,         NumOps, NumOps)
// clang-format on

enum class LOp : uint8_t {
#define TRACEJIT_LOP_ENUM(Op, ...) Op,
  TRACEJIT_LIR_OPS(TRACEJIT_LOP_ENUM)
#undef TRACEJIT_LOP_ENUM
  NumOps
};

/// One row of TRACEJIT_LIR_OPS.
struct LirOpInfo {
  const char *Name;
  LTy Result, A, B;
  uint8_t Flags; ///< LirOpFlag bits.
  LOp Mirror, Negation;
};

inline constexpr LirOpInfo LirOpTable[] = {
#define TRACEJIT_LOP_INFO(Op, Name, R, A, B, Flags, Mirror, Negation)          \
  {Name, LTy::R, LTy::A, LTy::B, (uint8_t)(Flags), LOp::Mirror, LOp::Negation},
    TRACEJIT_LIR_OPS(TRACEJIT_LOP_INFO)
#undef TRACEJIT_LOP_INFO
};

constexpr const LirOpInfo &lirOp(LOp Op) { return LirOpTable[(size_t)Op]; }
constexpr bool lirOpHas(LOp Op, LirOpFlag F) { return lirOp(Op).Flags & F; }

/// Result type of an opcode; Void for a call, whose CallInfo gives it.
constexpr LTy resultType(LOp Op) { return lirOp(Op).Result; }

/// The constant semantics of every pure and overflow-checked opcode, over
/// raw TAR-layout words (an int32 zero-extended, a double's bits): sets
/// \p R to \p Op applied to \p A and \p B (ignored when unary). Returns
/// false, leaving \p R alone, when an overflow-checked op overflows. D2I is
/// cvttsd2si: INT32_MIN for NaN and out-of-range inputs. Shared by the
/// executor backend and ExprFilter's constant folds, so a folded constant
/// is what the reference backend computes.
bool evalLir(LOp Op, uint64_t A, uint64_t B, uint64_t &R);

/// A set of memory location classes (nanojit's AccSet). Every load and
/// store names the one class it touches; every CallInfo names the classes
/// its helper may write. No two classes alias, so CseFilter keeps a load
/// across any write whose set misses the load's class.
using AccSet = uint8_t;
namespace Acc {
constexpr AccSet None = 0;
/// The trace activation record (base ParamTar), tracked per slot.
constexpr AccSet Tar = 1 << 0;
/// Absolute VM words (base ImmQ): interpreter slots, the preempt flag,
/// published return pcs, stats counters. Volatile: never merged.
constexpr AccSet Vm = 1 << 1;
/// Object header: shape, kind, named-slot and element pointers, element
/// capacity, array length.
constexpr AccSet Header = 1 << 2;
/// Named-slot contents.
constexpr AccSet Slots = 1 << 3;
/// Array element contents.
constexpr AccSet Elems = 1 << 4;
/// Immutable cells: double-cell payloads, string length and bytes.
constexpr AccSet ReadOnly = 1 << 5;
/// What a helper that may change any object writes.
constexpr AccSet Heap = Header | Slots | Elems;
constexpr AccSet All = Tar | Vm | Heap | ReadOnly;
} // namespace Acc

/// Printable name of a one-class set ("tar", "hdr", ...), or "?".
const char *accName(AccSet A);

/// Signature and properties of a callable helper.
struct CallInfo {
  void *Addr = nullptr;
  const char *Name = "?";
  LTy Ret = LTy::Void;
  uint8_t NArgs = 0;
  LTy Args[6] = {};
  bool Pure = false; ///< No side effects; CSE/DCE may touch it.
  /// Location classes the helper may write; read for impure helpers only.
  /// Allocation writes nothing a trace has loaded: a new cell has a new
  /// address.
  AccSet Writes = Acc::Heap;
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
  AccSet Loc = Acc::None; ///< Loads/stores: the location class touched.
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

  bool isGuard() const { return lirOpHas(Op, OpGuard); }
  bool isLoad() const { return lirOpHas(Op, OpLoad); }
  bool isStore() const { return lirOpHas(Op, OpStore); }
  bool isImm() const { return lirOpHas(Op, OpImm); }
  bool isTerminator() const { return lirOpHas(Op, OpTerm); }
  /// The raw TAR-layout word of an immediate (see evalLir).
  uint64_t immWord() const;
};

/// Mnemonic of \p Op, or "?" out of range.
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
  virtual LIns *insLoad(LOp Op, LIns *Base, int32_t Disp, AccSet Loc);
  virtual LIns *insStore(LOp Op, LIns *Val, LIns *Base, int32_t Disp,
                         AccSet Loc);
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
  LIns *insLoad(LOp Op, LIns *Base, int32_t Disp, AccSet Loc) override;
  LIns *insStore(LOp Op, LIns *Val, LIns *Base, int32_t Disp,
                 AccSet Loc) override;
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
  /// Append a new \p Op, typed by the opcode table, over \p A and \p B.
  LIns *make(LOp Op, LIns *A = nullptr, LIns *B = nullptr);

  Arena &TheArena;
  std::vector<LIns *> Body;
  uint32_t NextId = 0;
};

/// Render one instruction / a whole body for diagnostics and tests. The
/// PrologueEnd overload brackets a loop-optimized body with "-- prologue --"
/// and "-- loop --" markers (see lir/opt.h).
std::string formatIns(const LIns *I);
std::string formatBody(const std::vector<LIns *> &Body);
std::string formatBody(const std::vector<LIns *> &Body, uint32_t PrologueEnd);

} // namespace tracejit

#endif // TRACEJIT_LIR_LIR_H

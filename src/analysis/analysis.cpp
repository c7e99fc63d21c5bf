//===- analysis.cpp - Bytecode abstract interpreter -------------------------===//
//
// Implementation notes.
//
// The abstract domain per state slot is a product of:
//   * a type mask (one bit per runtime representation, join = OR);
//   * an int32 interval, meaningful only while the mask stays within
//     Int/Bool (booleans live as 0/1 so truthiness shares the machinery);
//   * provenance: which state slot the value aliases (so a branch on
//     `GetLocal x` can refine x itself), and -- for compare results --
//     the relation plus both operands' compare-time ranges.
//
// The state vector is [globals | locals | operand stack]. Globals are
// tracked flow-sensitively inside one script but start at top and are
// clobbered back to top at every Call/CallProp, which is what makes the
// facts invariants over arbitrary interleavings with other scripts,
// callees, recursion, and natives. Locals of a frame cannot be rebound by
// a callee, so they survive calls.
//
// Widening: every cycle in the bytecode runs through a LoopHeader (the
// parser emits one per source loop), so blocks that begin with
// LoopHeader/Nop3 are the widening points -- any interval bound that grew
// since the last visit is snapped to the next script literal or the int32
// extreme. Masks live in a finite lattice and need no widening.
// A per-analysis visit budget backstops convergence; exceeding it
// publishes no facts (Converged = false), which is always sound.
//
//===----------------------------------------------------------------------===//

#include "analysis/analysis.h"

#include "vm/gc.h" // Value::numberValue is defined with DoubleCell in view

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <set>

namespace tracejit {

TypeMask maskOfValue(const Value &V) {
  if (V.isInt())
    return MaskInt;
  if (V.isDoubleCell())
    return MaskDouble;
  if (V.isBoolean())
    return MaskBool;
  if (V.isString())
    return MaskString;
  if (V.isObject())
    return MaskObject;
  if (V.isNull())
    return MaskNull;
  return MaskUndefined;
}

namespace {

// --- Abstract values -------------------------------------------------------

enum class CmpRel : uint8_t { None, Lt, Le, Gt, Ge, Eq, Ne };

CmpRel negateRel(CmpRel R) {
  switch (R) {
  case CmpRel::Lt:
    return CmpRel::Ge;
  case CmpRel::Le:
    return CmpRel::Gt;
  case CmpRel::Gt:
    return CmpRel::Le;
  case CmpRel::Ge:
    return CmpRel::Lt;
  case CmpRel::Eq:
    return CmpRel::Ne;
  case CmpRel::Ne:
    return CmpRel::Eq;
  case CmpRel::None:
    break;
  }
  return CmpRel::None;
}

struct AbstractValue {
  TypeMask Mask = MaskTop;
  int32_t Lo = INT32_MIN; ///< Interval; meaningful when Mask subset of Int|Bool.
  int32_t Hi = INT32_MAX;
  bool Frac = false;    ///< Certainly a double with a nonzero fractional
                        ///< part (survives +/- with int-valued operands, so
                        ///< boxNumber can never renormalize it to Int).
  bool OvfD = false;    ///< The Double bit of Mask is present only because
                        ///< int arithmetic might overflow (or multiply
                        ///< to -0) -- no genuine
                        ///< double source reaches this value. Demotion
                        ///< facts ignore such slots: seeding them would
                        ///< pessimize loops that never overflow at runtime.
  int32_t RefSlot = -1; ///< State slot this value aliases, or -1.
  CmpRel Rel = CmpRel::None; ///< Compare provenance (value is `A Rel B`).
  int32_t CmpA = -1, CmpB = -1;
  int32_t ALo = INT32_MIN, AHi = INT32_MAX; ///< Operand ranges at compare time.
  int32_t BLo = INT32_MIN, BHi = INT32_MAX;

  bool rangeMeaningful() const {
    return Mask != 0 && !(Mask & ~(MaskInt | MaskBool));
  }
  void clearRange() {
    Lo = INT32_MIN;
    Hi = INT32_MAX;
  }
  void clearProvenance() {
    RefSlot = -1;
    Rel = CmpRel::None;
    CmpA = CmpB = -1;
  }

  static AbstractValue top() { return AbstractValue(); }
  static AbstractValue ofMask(TypeMask M) {
    AbstractValue V;
    V.Mask = M;
    if (!V.rangeMeaningful())
      V.clearRange();
    return V;
  }
  static AbstractValue intRange(int32_t Lo, int32_t Hi) {
    AbstractValue V;
    V.Mask = MaskInt;
    V.Lo = Lo;
    V.Hi = Hi;
    return V;
  }
  static AbstractValue boolVal(int Truth /* 0, 1, or -1 unknown */) {
    AbstractValue V;
    V.Mask = MaskBool;
    V.Lo = Truth < 0 ? 0 : Truth;
    V.Hi = Truth < 0 ? 1 : Truth;
    return V;
  }

  void join(const AbstractValue &O) {
    bool Genuine = ((Mask & MaskDouble) && !OvfD) ||
                   ((O.Mask & MaskDouble) && !O.OvfD);
    Mask |= O.Mask;
    OvfD = (Mask & MaskDouble) != 0 && !Genuine;
    Lo = std::min(Lo, O.Lo);
    Hi = std::max(Hi, O.Hi);
    if (!rangeMeaningful())
      clearRange();
    Frac = Frac && O.Frac;
    if (RefSlot != O.RefSlot)
      RefSlot = -1;
    if (Rel != O.Rel || CmpA != O.CmpA || CmpB != O.CmpB) {
      Rel = CmpRel::None;
      CmpA = CmpB = -1;
    } else if (Rel != CmpRel::None) {
      ALo = std::min(ALo, O.ALo);
      AHi = std::max(AHi, O.AHi);
      BLo = std::min(BLo, O.BLo);
      BHi = std::max(BHi, O.BHi);
    }
  }

  bool operator==(const AbstractValue &O) const {
    return Mask == O.Mask && Lo == O.Lo && Hi == O.Hi && Frac == O.Frac &&
           OvfD == O.OvfD && RefSlot == O.RefSlot && Rel == O.Rel &&
           CmpA == O.CmpA && CmpB == O.CmpB && ALo == O.ALo && AHi == O.AHi &&
           BLo == O.BLo && BHi == O.BHi;
  }
};

/// Truthiness of an abstract value: 1 definitely true, 0 definitely false,
/// -1 unknown. Mirrors Value::truthy: null/undefined false, objects true,
/// ints/bools by value; doubles (NaN, 0.0) and strings ("") stay unknown.
int truthiness(const AbstractValue &V) {
  TypeMask M = V.Mask;
  if (M == 0)
    return -1;
  if (!(M & ~(MaskNull | MaskUndefined)))
    return 0;
  if (!(M & ~MaskObject))
    return 1;
  if (!(M & ~(MaskInt | MaskBool))) {
    if (V.Lo > 0 || V.Hi < 0)
      return 1;
    if (V.Lo == 0 && V.Hi == 0)
      return 0;
  }
  return -1;
}

// --- Abstract state --------------------------------------------------------

struct AbsState {
  std::vector<AbstractValue> Slots; ///< [globals | locals | stack]
  uint32_t Sp = 0;                  ///< Live operand-stack depth.

  bool operator==(const AbsState &O) const {
    return Sp == O.Sp && Slots == O.Slots;
  }
};

// --- The analyzer ----------------------------------------------------------

class Analyzer {
public:
  Analyzer(const FunctionScript &S, uint32_t NumGlobals)
      : S(S), NumGlobals(NumGlobals), LocalBase(NumGlobals),
        StackBase(NumGlobals + S.NumLocals) {
    // Widening thresholds: the int literals of the script. A loop bound
    // almost always appears as a compare constant, so snapping a growing
    // range to the next literal (instead of straight to infinity) keeps
    // induction variables finite and their increments overflow-free.
    for (const Value &C : S.Consts)
      if (C.isInt())
        Thresholds.push_back(C.toInt());
    std::sort(Thresholds.begin(), Thresholds.end());
    Thresholds.erase(std::unique(Thresholds.begin(), Thresholds.end()),
                     Thresholds.end());
  }

  std::unique_ptr<ScriptAnalysis> run();

private:
  const FunctionScript &S;
  uint32_t NumGlobals;
  uint32_t LocalBase;
  uint32_t StackBase;

  struct Block {
    uint32_t Start = 0;
    uint32_t End = 0; ///< Exclusive; one past the last op's bytes.
    uint32_t Visits = 0;
    uint32_t GrowJoins = 0; ///< Joins that changed this block's in-state.
  };
  std::vector<Block> Blocks;
  std::map<uint32_t, uint32_t> BlockAt; ///< Start pc -> block index.
  std::vector<std::optional<AbsState>> In;
  /// Per header block: slots observed carrying a genuine (non-overflow)
  /// double on some backedge into it. A slot whose double-ness arrives
  /// only through the preheader -- a one-time double initializer that the
  /// loop immediately overwrites with ints -- must not seed a demotion,
  /// or the specialized loop runs permanently double-boxed for a value
  /// that is int from the second iteration on.
  std::vector<std::vector<uint8_t>> BackDouble;
  std::vector<int32_t> Thresholds; ///< Sorted int literals; widening landmarks.

  /// Smallest threshold >= \p V, or INT32_MAX when none exists.
  int32_t snapHi(int32_t V) const {
    auto It = std::lower_bound(Thresholds.begin(), Thresholds.end(), V);
    return It != Thresholds.end() ? *It : INT32_MAX;
  }
  /// Largest threshold <= \p V, or INT32_MIN when none exists.
  int32_t snapLo(int32_t V) const {
    auto It = std::upper_bound(Thresholds.begin(), Thresholds.end(), V);
    return It != Thresholds.begin() ? *(It - 1) : INT32_MIN;
  }

  std::unique_ptr<ScriptAnalysis> A;
  bool Failed = false;

  // -- helpers --
  uint32_t opLen(uint32_t Pc) const {
    return 1 + opInfo(S.opAt(Pc)).OperandBytes;
  }
  bool isHeaderBlock(const Block &B) const {
    Op O = S.opAt(B.Start);
    return O == Op::LoopHeader || O == Op::Nop3;
  }
  AbstractValue &stackTop(AbsState &St, uint32_t Depth = 0) {
    return St.Slots[StackBase + St.Sp - 1 - Depth];
  }
  void push(AbsState &St, AbstractValue V) {
    if (StackBase + St.Sp >= St.Slots.size()) {
      Failed = true;
      St.Sp = 0;
      return;
    }
    St.Slots[StackBase + St.Sp++] = std::move(V);
  }
  AbstractValue pop(AbsState &St) {
    if (St.Sp == 0) {
      Failed = true;
      return AbstractValue::top();
    }
    return St.Slots[StackBase + --St.Sp];
  }
  /// A state slot is being overwritten: any value whose provenance points
  /// at it would otherwise refine/alias a stale binding.
  void invalidateRefsTo(AbsState &St, int32_t Slot) {
    for (auto &V : St.Slots) {
      if (V.RefSlot == Slot)
        V.RefSlot = -1;
      if (V.Rel != CmpRel::None && (V.CmpA == Slot || V.CmpB == Slot)) {
        V.Rel = CmpRel::None;
        V.CmpA = V.CmpB = -1;
      }
    }
  }
  void clobberGlobals(AbsState &St) {
    for (uint32_t G = 0; G < NumGlobals; ++G) {
      invalidateRefsTo(St, (int32_t)G);
      St.Slots[G] = AbstractValue::top();
    }
  }

  void buildCfg();
  AbsState entryState() const;
  bool joinInto(uint32_t BlockIdx, const AbsState &New, bool Widen);
  /// Interpret one block from its in-state; successor edges are reported
  /// through \p Edge. When \p Collect is set, facts are recorded into the
  /// result (the post-fixpoint replay).
  template <typename EdgeFn>
  void stepBlock(uint32_t BlockIdx, AbsState St, bool Collect, EdgeFn Edge);

  void refineEdge(AbsState &St, const AbstractValue &Cond, bool CondTruthy,
                  bool &Feasible);
  void collectHeaderFacts();
};

void Analyzer::buildCfg() {
  std::vector<uint32_t> Starts;
  if (!blockStarts(S, Starts)) {
    Failed = true;
    return;
  }
  for (size_t I = 0; I < Starts.size(); ++I) {
    Block B;
    B.Start = Starts[I];
    B.End = I + 1 < Starts.size() ? Starts[I + 1] : (uint32_t)S.Code.size();
    BlockAt[B.Start] = (uint32_t)Blocks.size();
    Blocks.push_back(B);
  }
  In.resize(Blocks.size());
  BackDouble.resize(Blocks.size());
}

AbsState Analyzer::entryState() const {
  AbsState St;
  St.Slots.resize(StackBase + S.MaxStack);
  for (uint32_t G = 0; G < NumGlobals; ++G)
    St.Slots[G] = AbstractValue::top();
  for (uint32_t L = 0; L < S.NumLocals; ++L) {
    if (L < S.Arity) {
      St.Slots[LocalBase + L] = AbstractValue::top();
    } else {
      St.Slots[LocalBase + L] = AbstractValue::ofMask(MaskUndefined);
    }
  }
  return St;
}

bool Analyzer::joinInto(uint32_t BlockIdx, const AbsState &New, bool Widen) {
  auto &Slot = In[BlockIdx];
  if (!Slot) {
    Slot = New;
    return true;
  }
  AbsState &Old = *Slot;
  if (Old.Sp != New.Sp) {
    // Stack-unbalanced join: the parser never emits this; bail soundly.
    Failed = true;
    return false;
  }
  AbsState Joined = Old;
  uint32_t Live = StackBase + Old.Sp;
  for (uint32_t I = 0; I < Live; ++I)
    Joined.Slots[I].join(New.Slots[I]);
  // Delayed widening: let the first couple of changing joins stay precise
  // so a bound established outside this loop (an outer induction variable
  // reaching an inner header, say) settles at its real range instead of
  // snapping on first contact. Once the delay is spent a growing bound
  // jumps to the next script literal (widening with thresholds) -- a loop
  // bound nearly always appears as a compare constant, so an induction
  // variable lands on its true bound and its increment stays provably
  // overflow-free -- and to infinity when no literal covers it. The
  // threshold ladder is finite, so termination is untouched, and the
  // visit budget backstops pathological shapes.
  if (Widen && Blocks[BlockIdx].GrowJoins >= 2) {
    for (uint32_t I = 0; I < Live; ++I) {
      AbstractValue &J = Joined.Slots[I];
      const AbstractValue &O = Old.Slots[I];
      if (!J.rangeMeaningful())
        continue;
      if (J.Lo < O.Lo)
        J.Lo = snapLo(J.Lo);
      if (J.Hi > O.Hi)
        J.Hi = snapHi(J.Hi);
    }
  }
  if (Joined == Old)
    return false;
  ++Blocks[BlockIdx].GrowJoins;
  Old = std::move(Joined);
  return true;
}

/// Range refinement for `A Rel B` known to hold, where \p V is the state
/// slot holding A and [OLo,OHi] is B's compare-time range (swap the
/// relation to refine B). Returns false when the refined range is empty,
/// i.e. the edge is infeasible.
static bool refineByRel(AbstractValue &V, CmpRel Rel, int32_t OLo,
                        int32_t OHi) {
  if (!V.rangeMeaningful() || (V.Mask & ~MaskInt))
    return true; // only refine proven-int slots
  switch (Rel) {
  case CmpRel::Lt:
    if (OHi > INT32_MIN)
      V.Hi = std::min(V.Hi, OHi - 1);
    break;
  case CmpRel::Le:
    V.Hi = std::min(V.Hi, OHi);
    break;
  case CmpRel::Gt:
    if (OLo < INT32_MAX)
      V.Lo = std::max(V.Lo, OLo + 1);
    break;
  case CmpRel::Ge:
    V.Lo = std::max(V.Lo, OLo);
    break;
  case CmpRel::Eq:
    V.Lo = std::max(V.Lo, OLo);
    V.Hi = std::min(V.Hi, OHi);
    break;
  case CmpRel::Ne:
    if (OLo == OHi && V.Lo == V.Hi && V.Lo == OLo)
      return false;
    break;
  case CmpRel::None:
    break;
  }
  return V.Lo <= V.Hi;
}

static CmpRel swapRel(CmpRel R) {
  switch (R) {
  case CmpRel::Lt:
    return CmpRel::Gt;
  case CmpRel::Le:
    return CmpRel::Ge;
  case CmpRel::Gt:
    return CmpRel::Lt;
  case CmpRel::Ge:
    return CmpRel::Le;
  default:
    return R;
  }
}

void Analyzer::refineEdge(AbsState &St, const AbstractValue &Cond,
                          bool CondTruthy, bool &Feasible) {
  Feasible = true;
  // Truthy refinement on the aliased slot.
  if (Cond.RefSlot >= 0) {
    AbstractValue &T = St.Slots[Cond.RefSlot];
    if (CondTruthy) {
      T.Mask &= ~(MaskNull | MaskUndefined);
      if (T.rangeMeaningful()) {
        if (T.Lo == 0 && T.Hi == 0) {
          Feasible = false;
          return;
        }
        if (T.Lo == 0)
          T.Lo = 1;
        if (T.Hi == 0)
          T.Hi = -1;
      }
      if (T.Mask == 0) {
        Feasible = false;
        return;
      }
    } else {
      T.Mask &= ~MaskObject;
      if (T.rangeMeaningful()) {
        if (T.Lo > 0 || T.Hi < 0) {
          Feasible = false;
          return;
        }
        T.Lo = T.Hi = 0;
      }
      if (T.Mask == 0) {
        Feasible = false;
        return;
      }
    }
  }
  // Relational refinement from compare provenance.
  if (Cond.Rel != CmpRel::None) {
    CmpRel R = CondTruthy ? Cond.Rel : negateRel(Cond.Rel);
    if (Cond.CmpA >= 0) {
      if (!refineByRel(St.Slots[Cond.CmpA], R, Cond.BLo, Cond.BHi)) {
        Feasible = false;
        return;
      }
    }
    if (Cond.CmpB >= 0) {
      if (!refineByRel(St.Slots[Cond.CmpB], swapRel(R), Cond.ALo, Cond.AHi)) {
        Feasible = false;
        return;
      }
    }
  }
}

template <typename EdgeFn>
void Analyzer::stepBlock(uint32_t BlockIdx, AbsState St, bool Collect,
                         EdgeFn Edge) {
  const Block &B = Blocks[BlockIdx];
  uint32_t Pc = B.Start;
  bool FallsThrough = true;
  while (Pc < B.End && !Failed) {
    Op O = S.opAt(Pc);
    uint32_t Next = Pc + opLen(Pc);
    switch (O) {
    case Op::Nop:
    case Op::LoopHeader:
    case Op::Nop3:
      break;
    case Op::PushConst: {
      const Value &C = S.Consts[S.u16At(Pc + 1)];
      AbstractValue V = AbstractValue::ofMask(maskOfValue(C));
      if (C.isInt())
        V.Lo = V.Hi = C.toInt();
      else if (C.isBoolean())
        V.Lo = V.Hi = C.truthy() ? 1 : 0;
      else if (C.isDoubleCell()) {
        double D = C.numberValue();
        V.Frac = D == D && D != std::floor(D);
      }
      push(St, std::move(V));
      break;
    }
    case Op::PushUndefined:
      push(St, AbstractValue::ofMask(MaskUndefined));
      break;
    case Op::Pop:
    case Op::PopResult:
      pop(St);
      break;
    case Op::Dup:
      push(St, stackTop(St));
      break;
    case Op::Dup2: {
      AbstractValue A2 = stackTop(St, 1), A1 = stackTop(St);
      push(St, A2);
      push(St, A1);
      break;
    }
    case Op::GetLocal: {
      uint32_t L = S.u16At(Pc + 1);
      AbstractValue V = St.Slots[LocalBase + L];
      V.RefSlot = (int32_t)(LocalBase + L);
      push(St, std::move(V));
      break;
    }
    case Op::SetLocal: {
      uint32_t L = S.u16At(Pc + 1);
      int32_t Slot = (int32_t)(LocalBase + L);
      invalidateRefsTo(St, Slot);
      AbstractValue V = stackTop(St); // store peeks; value stays pushed
      V.clearProvenance();
      St.Slots[Slot] = std::move(V);
      stackTop(St).RefSlot = Slot;
      break;
    }
    case Op::GetGlobal: {
      uint32_t G = S.u16At(Pc + 1);
      AbstractValue V =
          G < NumGlobals ? St.Slots[G] : AbstractValue::top();
      if (G < NumGlobals)
        V.RefSlot = (int32_t)G;
      push(St, std::move(V));
      break;
    }
    case Op::SetGlobal: {
      uint32_t G = S.u16At(Pc + 1);
      if (G < NumGlobals) {
        invalidateRefsTo(St, (int32_t)G);
        AbstractValue V = stackTop(St);
        V.clearProvenance();
        St.Slots[G] = std::move(V);
        stackTop(St).RefSlot = (int32_t)G;
      }
      break;
    }
    case Op::GetProp:
      pop(St);
      push(St, AbstractValue::top());
      break;
    case Op::SetProp: {
      AbstractValue V = pop(St);
      pop(St); // receiver
      V.clearProvenance();
      push(St, std::move(V)); // the stored value is the expression result
      break;
    }
    case Op::InitProp:
      pop(St); // object literal element; object stays
      break;
    case Op::GetElem:
      pop(St); // index
      pop(St); // base
      push(St, AbstractValue::top());
      break;
    case Op::SetElem: {
      AbstractValue V = pop(St);
      pop(St); // index
      pop(St); // base
      V.clearProvenance();
      push(St, std::move(V));
      break;
    }
    case Op::Add:
    case Op::Sub:
    case Op::Mul: {
      AbstractValue Rhs = pop(St);
      AbstractValue Lhs = pop(St);
      bool MayString =
          O == Op::Add && ((Lhs.Mask | Rhs.Mask) & MaskString) != 0;
      bool BothInt = Lhs.Mask == MaskInt && Rhs.Mask == MaskInt;
      if (BothInt) {
        int64_t Cands[4];
        int64_t R0, R1;
        if (O == Op::Add) {
          R0 = (int64_t)Lhs.Lo + Rhs.Lo;
          R1 = (int64_t)Lhs.Hi + Rhs.Hi;
        } else if (O == Op::Sub) {
          R0 = (int64_t)Lhs.Lo - Rhs.Hi;
          R1 = (int64_t)Lhs.Hi - Rhs.Lo;
        } else {
          Cands[0] = (int64_t)Lhs.Lo * Rhs.Lo;
          Cands[1] = (int64_t)Lhs.Lo * Rhs.Hi;
          Cands[2] = (int64_t)Lhs.Hi * Rhs.Lo;
          Cands[3] = (int64_t)Lhs.Hi * Rhs.Hi;
          R0 = *std::min_element(Cands, Cands + 4);
          R1 = *std::max_element(Cands, Cands + 4);
        }
        // A 0 product with a negative operand is -0, a double. A square
        // (both operands read one state slot) is 0 only for 0, as the
        // recorder's guardNotNegZero also assumes.
        auto SpansZero = [](const AbstractValue &V) {
          return V.Lo <= 0 && V.Hi >= 0;
        };
        bool Square = Lhs.RefSlot >= 0 && Lhs.RefSlot == Rhs.RefSlot;
        bool MayNegZero = O == Op::Mul && !Square &&
                          ((Lhs.Lo < 0 && SpansZero(Rhs)) ||
                           (Rhs.Lo < 0 && SpansZero(Lhs)));
        if (R0 >= INT32_MIN && R1 <= INT32_MAX) {
          if (Collect)
            A->NoOverflow.insert(Pc);
          if (!MayNegZero) {
            push(St, AbstractValue::intRange((int32_t)R0, (int32_t)R1));
            break;
          }
        }
        AbstractValue V = AbstractValue::ofMask(MaskNumber);
        V.OvfD = true; // the only double source here is int overflow or -0
        push(St, std::move(V));
        break;
      }
      if (MayString) {
        bool CertainString =
            !(Lhs.Mask & ~MaskString) || !(Rhs.Mask & ~MaskString);
        push(St, AbstractValue::ofMask(CertainString
                                           ? MaskString
                                           : (MaskString | MaskNumber)));
        break;
      }
      if (O != Op::Mul) {
        // An int-valued operand plus/minus a fractional double keeps the
        // fraction, so boxNumber cannot renormalize the result: certainly
        // Double. This is what lets `x = x + 0.5` publish a demotion fact.
        auto IntValued = [](const AbstractValue &V) {
          return V.Mask != 0 && !(V.Mask & ~(MaskInt | MaskBool));
        };
        if ((IntValued(Lhs) && Rhs.Frac) || (IntValued(Rhs) && Lhs.Frac)) {
          AbstractValue V = AbstractValue::ofMask(MaskDouble);
          V.Frac = true;
          push(St, std::move(V));
          break;
        }
      }
      // toNumber never throws (objects/strings become NaN), and boxNumber
      // re-normalizes integral doubles, so the result is int-or-double.
      {
        // The result can only be a genuine (non-overflow) double if some
        // operand brings one: a genuine Double bit, or a non-numeric type
        // whose toNumber may be fractional/NaN.
        auto OvfOnlySource = [](const AbstractValue &V) {
          if (V.Mask & ~(MaskInt | MaskBool | MaskDouble))
            return false;
          return (V.Mask & MaskDouble) ? V.OvfD : true;
        };
        AbstractValue V = AbstractValue::ofMask(MaskNumber);
        V.OvfD = OvfOnlySource(Lhs) && OvfOnlySource(Rhs);
        push(St, std::move(V));
      }
      break;
    }
    case Op::Div:
      pop(St);
      pop(St);
      push(St, AbstractValue::ofMask(MaskNumber));
      break;
    case Op::Mod: {
      AbstractValue Rhs = pop(St);
      AbstractValue Lhs = pop(St);
      if (Lhs.Mask == MaskInt && Rhs.Mask == MaskInt && Lhs.Lo >= 0 &&
          Rhs.Lo > 0) {
        push(St, AbstractValue::intRange(0, Rhs.Hi - 1));
        break;
      }
      push(St, AbstractValue::ofMask(MaskNumber));
      break;
    }
    case Op::Neg: {
      AbstractValue V = pop(St);
      if (V.Mask == MaskInt && (V.Lo > 0 || V.Hi < 0) && V.Lo > INT32_MIN) {
        push(St, AbstractValue::intRange(-V.Hi, -V.Lo));
        break;
      }
      push(St, AbstractValue::ofMask(MaskNumber));
      break;
    }
    case Op::BitAnd:
    case Op::BitOr:
    case Op::BitXor:
    case Op::Shl:
    case Op::Shr:
      pop(St);
      pop(St);
      push(St, AbstractValue::ofMask(MaskInt));
      break;
    case Op::BitNot:
      pop(St);
      push(St, AbstractValue::ofMask(MaskInt));
      break;
    case Op::Ushr:
      pop(St);
      pop(St);
      // Result is in [0, 2^32): ints when <= INT32_MAX, doubles above.
      push(St, AbstractValue::ofMask(MaskNumber));
      break;
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
    case Op::Eq:
    case Op::Ne:
    case Op::StrictEq:
    case Op::StrictNe: {
      AbstractValue Rhs = pop(St);
      AbstractValue Lhs = pop(St);
      bool BothInt = Lhs.Mask == MaskInt && Rhs.Mask == MaskInt;
      int Truth = -1;
      CmpRel Rel = CmpRel::None;
      if (BothInt) {
        switch (O) {
        case Op::Lt:
          Rel = CmpRel::Lt;
          if (Lhs.Hi < Rhs.Lo)
            Truth = 1;
          else if (Lhs.Lo >= Rhs.Hi)
            Truth = 0;
          break;
        case Op::Le:
          Rel = CmpRel::Le;
          if (Lhs.Hi <= Rhs.Lo)
            Truth = 1;
          else if (Lhs.Lo > Rhs.Hi)
            Truth = 0;
          break;
        case Op::Gt:
          Rel = CmpRel::Gt;
          if (Lhs.Lo > Rhs.Hi)
            Truth = 1;
          else if (Lhs.Hi <= Rhs.Lo)
            Truth = 0;
          break;
        case Op::Ge:
          Rel = CmpRel::Ge;
          if (Lhs.Lo >= Rhs.Hi)
            Truth = 1;
          else if (Lhs.Hi < Rhs.Lo)
            Truth = 0;
          break;
        case Op::Eq:
        case Op::StrictEq:
          Rel = CmpRel::Eq;
          if (Lhs.Lo == Lhs.Hi && Rhs.Lo == Rhs.Hi && Lhs.Lo == Rhs.Lo)
            Truth = 1;
          else if (Lhs.Hi < Rhs.Lo || Lhs.Lo > Rhs.Hi)
            Truth = 0;
          break;
        case Op::Ne:
        case Op::StrictNe:
          Rel = CmpRel::Ne;
          if (Lhs.Hi < Rhs.Lo || Lhs.Lo > Rhs.Hi)
            Truth = 1;
          else if (Lhs.Lo == Lhs.Hi && Rhs.Lo == Rhs.Hi && Lhs.Lo == Rhs.Lo)
            Truth = 0;
          break;
        default:
          break;
        }
      }
      AbstractValue V = AbstractValue::boolVal(Truth);
      if (BothInt && Rel != CmpRel::None) {
        V.Rel = Rel;
        V.CmpA = Lhs.RefSlot;
        V.CmpB = Rhs.RefSlot;
        V.ALo = Lhs.Lo;
        V.AHi = Lhs.Hi;
        V.BLo = Rhs.Lo;
        V.BHi = Rhs.Hi;
      }
      push(St, std::move(V));
      break;
    }
    case Op::LogicalNot: {
      AbstractValue V = pop(St);
      int T = truthiness(V);
      push(St, AbstractValue::boolVal(T < 0 ? -1 : (T ? 0 : 1)));
      break;
    }
    case Op::Jump:
      Edge(S.u32At(Pc + 1), St);
      FallsThrough = false;
      Pc = Next;
      continue;
    case Op::JumpIfFalse:
    case Op::JumpIfTrue: {
      AbstractValue Cond = pop(St);
      int T = truthiness(Cond);
      uint32_t Target = S.u32At(Pc + 1);
      bool TakenWhenTruthy = O == Op::JumpIfTrue;
      // Truthy direction.
      if (T != 0) {
        AbsState SN = St;
        bool Feasible = true;
        refineEdge(SN, Cond, /*CondTruthy=*/true, Feasible);
        if (Feasible)
          Edge(TakenWhenTruthy ? Target : Next, SN);
      }
      // Falsy direction.
      if (T != 1) {
        AbsState SN = std::move(St);
        bool Feasible = true;
        refineEdge(SN, Cond, /*CondTruthy=*/false, Feasible);
        if (Feasible)
          Edge(TakenWhenTruthy ? Next : Target, SN);
      }
      FallsThrough = false;
      Pc = Next;
      continue;
    }
    case Op::Call:
    case Op::CallProp: {
      uint32_t Argc = S.Code[Pc + (O == Op::Call ? 1 : 3)];
      for (uint32_t I = 0; I <= Argc; ++I)
        pop(St);
      clobberGlobals(St);
      push(St, AbstractValue::top());
      break;
    }
    case Op::Return:
      pop(St);
      FallsThrough = false;
      Pc = Next;
      continue;
    case Op::ReturnUndefined:
      FallsThrough = false;
      Pc = Next;
      continue;
    case Op::NewArray: {
      uint32_t N = S.u16At(Pc + 1);
      for (uint32_t I = 0; I < N; ++I)
        pop(St);
      push(St, AbstractValue::ofMask(MaskObject));
      break;
    }
    case Op::NewObject:
      push(St, AbstractValue::ofMask(MaskObject));
      break;
    default:
      // Unknown opcode: give up on this script rather than guess.
      Failed = true;
      return;
    }
    if (Failed)
      return;
    Pc = Next;
  }
  if (FallsThrough && Pc < (uint32_t)S.Code.size())
    Edge(Pc, St);
}

void Analyzer::collectHeaderFacts() {
  // A trace drops a local that is dead at a header instead of writing it
  // back, so there the interpreter may hold a stale value of any type: the
  // header publishes no fact for it (MaskTop), and it seeds no demotion.
  std::vector<std::vector<uint8_t>> Live;
  computeLoopLiveness(S, Live);
  std::map<uint32_t, const std::vector<uint8_t> *> LiveAt;
  for (size_t I = 0; I < S.Loops.size(); ++I)
    LiveAt[S.Loops[I].HeaderPc] = &Live[I];
  std::set<uint32_t> DemoteG, DemoteL;
  for (uint32_t BI = 0; BI < Blocks.size(); ++BI) {
    if (!In[BI] || !isHeaderBlock(Blocks[BI]))
      continue;
    const AbsState &St = *In[BI];
    ScriptAnalysis::HeaderFacts HF;
    HF.Globals.resize(NumGlobals);
    HF.Locals.resize(S.NumLocals);
    // Demote only slots a genuine double reaches around the loop: an
    // Int|Double mask whose Double bit exists purely because of possible
    // int overflow would demote (and so pessimize) loops that never
    // overflow, and a double that arrives only from the preheader (a
    // one-time initializer the first iteration replaces with an int)
    // describes a loop that is int in steady state.
    const std::vector<uint8_t> &BD = BackDouble[BI];
    auto RecursDouble = [&](uint32_t Slot) {
      return Slot < BD.size() && BD[Slot];
    };
    for (uint32_t G = 0; G < NumGlobals; ++G) {
      HF.Globals[G] = St.Slots[G].Mask;
      if (St.Slots[G].Mask == MaskNumber && !St.Slots[G].OvfD &&
          RecursDouble(G))
        DemoteG.insert(G);
    }
    auto LiveIt = LiveAt.find(Blocks[BI].Start);
    for (uint32_t L = 0; L < S.NumLocals; ++L) {
      if (LiveIt != LiveAt.end() && !(*LiveIt->second)[L]) {
        HF.Locals[L] = MaskTop;
        continue;
      }
      HF.Locals[L] = St.Slots[LocalBase + L].Mask;
      if (St.Slots[LocalBase + L].Mask == MaskNumber &&
          !St.Slots[LocalBase + L].OvfD && RecursDouble(LocalBase + L))
        DemoteL.insert(L);
    }
    A->Headers.emplace(Blocks[BI].Start, std::move(HF));
  }
  A->DemoteGlobals.assign(DemoteG.begin(), DemoteG.end());
  A->DemoteLocals.assign(DemoteL.begin(), DemoteL.end());
}

std::unique_ptr<ScriptAnalysis> Analyzer::run() {
  A = std::make_unique<ScriptAnalysis>();
  A->ScriptId = S.Id;
  A->NumGlobals = NumGlobals;
  if (S.Code.empty())
    return std::move(A);

  buildCfg();

  // Fixpoint.
  std::deque<uint32_t> Work;
  if (!Failed) {
    In[0] = entryState();
    Work.push_back(0);
  }
  const uint32_t VisitBudget = (uint32_t)Blocks.size() * 96 + 256;
  uint32_t Visits = 0;
  while (!Work.empty() && !Failed) {
    uint32_t BI = Work.front();
    Work.pop_front();
    if (++Visits > VisitBudget) {
      Failed = true;
      break;
    }
    stepBlock(BI, *In[BI], /*Collect=*/false,
              [&](uint32_t TargetPc, const AbsState &Out) {
                auto It = BlockAt.find(TargetPc);
                if (It == BlockAt.end()) {
                  Failed = true;
                  return;
                }
                uint32_t TBI = It->second;
                bool Widen = isHeaderBlock(Blocks[TBI]);
                // A backward edge into a loop header: remember which slots
                // carry a genuine double around the loop. (Intermediate
                // fixpoint states only grow toward the final ones, so
                // accumulating across iterations over-approximates the
                // settled backedge state -- fine for a demotion hint.)
                if (Widen && Blocks[BI].Start >= TargetPc) {
                  auto &BD = BackDouble[TBI];
                  if (BD.size() < Out.Slots.size())
                    BD.resize(Out.Slots.size(), 0);
                  for (size_t K = 0; K < Out.Slots.size(); ++K)
                    if ((Out.Slots[K].Mask & MaskDouble) && !Out.Slots[K].OvfD)
                      BD[K] = 1;
                }
                if (joinInto(TBI, Out, Widen))
                  if (std::find(Work.begin(), Work.end(), TBI) == Work.end())
                    Work.push_back(TBI);
              });
  }

  if (Failed) {
    auto Empty = std::make_unique<ScriptAnalysis>();
    Empty->ScriptId = S.Id;
    Empty->NumGlobals = NumGlobals;
    Empty->Converged = false;
    return Empty;
  }

  // Post-fixpoint replay over reachable blocks: collect the published
  // facts from the settled in-states.
  for (uint32_t BI = 0; BI < Blocks.size(); ++BI) {
    if (!In[BI])
      continue;
    stepBlock(BI, *In[BI], /*Collect=*/true,
              [](uint32_t, const AbsState &) {});
  }
  collectHeaderFacts();
  return std::move(A);
}

} // namespace

bool blockStarts(const FunctionScript &S, std::vector<uint32_t> &Starts) {
  Starts.clear();
  const uint32_t Size = (uint32_t)S.Code.size();
  std::vector<uint8_t> Leader(Size + 1, 0), IsOp(Size, 0);
  std::vector<uint32_t> Targets;
  Leader[0] = 1;
  for (uint32_t Pc = 0; Pc < Size;) {
    if (S.Code[Pc] >= (uint8_t)Op::NumOps)
      return false;
    Op O = S.opAt(Pc);
    uint32_t Next = Pc + 1 + opInfo(O).OperandBytes;
    if (Next > Size)
      return false;
    IsOp[Pc] = 1;
    if (opIsJump(O))
      Targets.push_back(S.u32At(Pc + 1));
    if (opIsJump(O) || opIsTerminator(O))
      Leader[Next] = 1;
    if (O == Op::LoopHeader || O == Op::Nop3)
      Leader[Pc] = 1; // widening point: always its own block
    Pc = Next;
  }
  for (uint32_t T : Targets) {
    if (T >= Size || !IsOp[T])
      return false;
    Leader[T] = 1;
  }
  for (uint32_t Pc = 0; Pc < Size; ++Pc)
    if (Leader[Pc])
      Starts.push_back(Pc);
  return true;
}

std::unique_ptr<ScriptAnalysis> analyzeScript(const FunctionScript &S,
                                              uint32_t NumGlobals) {
  return Analyzer(S, NumGlobals).run();
}

void validateHeaderFacts(const ScriptAnalysis &A, const Value *Globals,
                         uint32_t NumGlobals, const Value *Locals,
                         uint32_t NumLocals, uint32_t Pc, uint64_t &Checks,
                         uint64_t &Contradictions) {
  auto It = A.Headers.find(Pc);
  if (It == A.Headers.end())
    return;
  const ScriptAnalysis::HeaderFacts &HF = It->second;
  uint32_t NG = std::min((uint32_t)HF.Globals.size(), NumGlobals);
  for (uint32_t G = 0; G < NG; ++G) {
    ++Checks;
    if (!(maskOfValue(Globals[G]) & HF.Globals[G]))
      ++Contradictions;
  }
  uint32_t NL = std::min((uint32_t)HF.Locals.size(), NumLocals);
  for (uint32_t L = 0; L < NL; ++L) {
    ++Checks;
    if (!(maskOfValue(Locals[L]) & HF.Locals[L]))
      ++Contradictions;
  }
}

} // namespace tracejit

//===- opt.cpp - LIR loop optimizer: indvars, hoisting ----------------------===//
//
// Soundness notes common to all passes. A trace is straight-line SSA, so:
//  * "dominates" is simply "appears earlier in the body";
//  * an SSA value never changes, so a fact established by a passed guard
//    (GuardT(c) implies c != 0 downstream) holds for the rest of the trace
//    and is never invalidated;
//  * memory is the only mutable state, split into the disjoint location
//    classes the recorder puts on every load and store (LIns::Loc and
//    Acc, lir.h). A class changes only through a store of that class, an
//    impure call whose CallInfo::Writes names it, or a TreeCall (every
//    class); VM words are volatile and never move.
//
//===----------------------------------------------------------------------===//

#include "lir/opt.h"

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "jit/fragment.h"
#include "lir/backward.h"
#include "support/stats.h"

namespace tracejit {

namespace {

// --- Induction-variable recognition -----------------------------------------
//
// Range facts come from passed guards over integer comparisons: after
// GuardT(LtI(x, n)) the rest of the trace knows x < n. An overflow-checked
// constant step dominated by a suitable bound cannot overflow and folds to
// the plain op. Bounds-checked array indexing (x <u cap, with cap a loaded
// capacity) additionally proves 0 <= x < 2^31 -- the VM never creates a
// container with more than 2^31-1 elements, so capacity loads are
// non-negative int32s -- which both folds +/-1 steps and licenses
// strength-reducing the address chain base + 8*(x+c) into addr(x) + 8c.

struct IndVarResult {
  uint32_t Folded = 0;
  uint32_t Reduced = 0;
};

IndVarResult runIndVar(Fragment &F, std::vector<LIns *> &Body) {
  IndVarResult R;
  using Fact = std::pair<LOp, const LIns *>;
  std::unordered_map<const LIns *, std::vector<Fact>> Facts;

  auto AddFact = [&](LOp Rel, const LIns *L, const LIns *RHS) {
    Facts[L].push_back({Rel, RHS});
    // a < b == b > a; LtUI has no mirror (no GtUI).
    if (LOp Sw = lirOp(Rel).Mirror; Sw != LOp::NumOps)
      Facts[RHS].push_back({Sw, L});
  };

  auto HasFact = [&](const LIns *L, LOp Rel, auto Pred) -> bool {
    auto It = Facts.find(L);
    if (It == Facts.end())
      return false;
    for (const Fact &Fc : It->second)
      if (Fc.first == Rel && Pred(Fc.second))
        return true;
    return false;
  };
  auto Any = [](const LIns *) { return true; };
  // x <u cap implies 0 <= x < 2^31 when cap is a loaded capacity (VM
  // invariant) or a non-negative immediate.
  auto IsCap = [](const LIns *RHS) {
    return RHS->isLoad() || (RHS->Op == LOp::ImmI && RHS->Imm.ImmI32 >= 0);
  };

  // Can x + c (c > 0) overflow given the facts?
  auto FoldableAdd = [&](const LIns *X, int64_t C) {
    if (C == 1 && HasFact(X, LOp::LtI, Any))
      return true; // x < anything keeps x <= INT32_MAX - 1
    if (HasFact(X, LOp::LtI, [&](const LIns *RHS) {
          return RHS->Op == LOp::ImmI &&
                 (int64_t)RHS->Imm.ImmI32 - 1 + C <= INT32_MAX;
        }))
      return true;
    if (HasFact(X, LOp::LeI, [&](const LIns *RHS) {
          return RHS->Op == LOp::ImmI &&
                 (int64_t)RHS->Imm.ImmI32 + C <= INT32_MAX;
        }))
      return true;
    if (C == 1 && HasFact(X, LOp::LtUI, IsCap))
      return true; // x < cap < 2^31
    if (HasFact(X, LOp::LtUI, [&](const LIns *RHS) {
          return RHS->Op == LOp::ImmI && RHS->Imm.ImmI32 >= 0 &&
                 (int64_t)RHS->Imm.ImmI32 - 1 + C <= INT32_MAX;
        }))
      return true;
    return false;
  };
  // Can x - c (c > 0) underflow given the facts?
  auto FoldableSub = [&](const LIns *X, int64_t C) {
    if (C == 1 && HasFact(X, LOp::GtI, Any))
      return true; // x > anything keeps x >= INT32_MIN + 1
    if (HasFact(X, LOp::GtI, [&](const LIns *RHS) {
          return RHS->Op == LOp::ImmI &&
                 (int64_t)RHS->Imm.ImmI32 + 1 - C >= INT32_MIN;
        }))
      return true;
    if (HasFact(X, LOp::GeI, [&](const LIns *RHS) {
          return RHS->Op == LOp::ImmI &&
                 (int64_t)RHS->Imm.ImmI32 - C >= INT32_MIN;
        }))
      return true;
    if (HasFact(X, LOp::LtUI, IsCap))
      return true; // x >= 0, so x - c > INT32_MIN for int32 c
    return false;
  };

  // Match addr = data + (UI2Q(idx) << 3); out-params are the data pointer
  // and the I32 index value.
  auto MatchAddr = [](LIns *Addr, const LIns *&Data, LIns *&Idx) {
    if (Addr->Op != LOp::AddQ)
      return false;
    for (int Side = 0; Side < 2; ++Side) {
      LIns *Sh = Side ? Addr->B : Addr->A;
      const LIns *Dt = Side ? Addr->A : Addr->B;
      if (Sh->Op == LOp::ShlQ && Sh->B->Op == LOp::ImmI &&
          Sh->B->Imm.ImmI32 == 3 && Sh->A->Op == LOp::UI2Q) {
        Data = Dt;
        Idx = Sh->A->A;
        return true;
      }
    }
    return false;
  };
  // Both idx and idx' bounds-checked (<u) against the same capacity load?
  auto SameCapBound = [&](const LIns *X, const LIns *J) {
    auto ItX = Facts.find(X);
    auto ItJ = Facts.find(J);
    if (ItX == Facts.end() || ItJ == Facts.end())
      return false;
    for (const Fact &FX : ItX->second) {
      if (FX.first != LOp::LtUI || !FX.second->isLoad())
        continue;
      for (const Fact &FJ : ItJ->second)
        if (FJ.first == LOp::LtUI && FJ.second == FX.second)
          return true;
    }
    return false;
  };

  uint32_t MaxId = 0;
  for (const LIns *I : Body)
    if (I->Id > MaxId)
      MaxId = I->Id;

  // (data pointer, index value) -> address instruction already in the body.
  std::map<std::pair<const LIns *, const LIns *>, LIns *> Addrs;

  std::vector<LIns *> Out;
  Out.reserve(Body.size() + 8);
  for (LIns *I : Body) {
    if (I->Op == LOp::GuardT || I->Op == LOp::GuardF) {
      const LIns *C = I->A;
      // A passed GuardF establishes the negation.
      LOp Rel = I->Op == LOp::GuardF ? lirOp(C->Op).Negation : C->Op;
      switch (Rel) {
      case LOp::LtI:
      case LOp::LeI:
      case LOp::GtI:
      case LOp::GeI:
      case LOp::LtUI:
        AddFact(Rel, C->A, C->B);
        break;
      default:
        break;
      }
      Out.push_back(I);
      continue;
    }

    if (I->Op == LOp::AddOvI || I->Op == LOp::SubOvI) {
      const LIns *X = nullptr;
      int64_t C = 0;
      if (I->B->Op == LOp::ImmI) {
        X = I->A;
        C = I->B->Imm.ImmI32;
      } else if (I->A->Op == LOp::ImmI && I->Op == LOp::AddOvI) {
        X = I->B;
        C = I->A->Imm.ImmI32;
      }
      bool Fold = false;
      if (X && C != 0 && C != INT32_MIN) {
        bool IsAdd = (I->Op == LOp::AddOvI) == (C > 0);
        int64_t Mag = C > 0 ? C : -C;
        Fold = IsAdd ? FoldableAdd(X, Mag) : FoldableSub(X, Mag);
      }
      if (Fold) {
        I->Op = I->Op == LOp::AddOvI ? LOp::AddI : LOp::SubI;
        I->Exit = nullptr;
        ++R.Folded;
      }
      Out.push_back(I);
      continue;
    }

    const LIns *Data = nullptr;
    LIns *Idx = nullptr;
    if (MatchAddr(I, Data, Idx)) {
      // data + 8*(x+c)  ->  addr(x) + 8c, when addr(x) = data + 8*x exists
      // earlier and both x and x+c are checked against the same capacity
      // (so x+c cannot wrap and the shifts agree exactly).
      const LIns *X = nullptr;
      int64_t C = 0;
      if (Idx->Op == LOp::AddI || Idx->Op == LOp::AddOvI) {
        if (Idx->B->Op == LOp::ImmI) {
          X = Idx->A;
          C = Idx->B->Imm.ImmI32;
        } else if (Idx->A->Op == LOp::ImmI) {
          X = Idx->B;
          C = Idx->A->Imm.ImmI32;
        }
      }
      if (X && C > 0 && SameCapBound(X, Idx)) {
        auto It = Addrs.find({Data, X});
        if (It != Addrs.end()) {
          LIns *Off = F.LirArena->make<LIns>();
          Off->Op = LOp::ImmQ;
          Off->Ty = LTy::Q;
          Off->Id = ++MaxId;
          Off->Imm.ImmQ64 = 8 * C;
          Out.push_back(Off);
          I->A = It->second;
          I->B = Off;
          ++R.Reduced;
        }
      }
      Addrs[{Data, Idx}] = I; // post-rewrite it still computes data + 8*idx
    }
    Out.push_back(I);
  }
  Body.swap(Out);
  return R;
}

// --- Loop-invariant code and guard hoisting ---------------------------------
//
// Build an operand-closed, order-preserving set of invariant instructions
// and move it to the front of the body; Fragment::PrologueEnd marks the
// boundary and the Loop back edge re-enters after it. Rules:
//  * ParamTar and immediates are trivially invariant (imms move only when a
//    hoisted instruction uses them, to preserve define-before-use).
//  * A pure op / pure call is invariant iff all operands are.
//  * A load is invariant iff its base is, nothing in the whole trace writes
//    its location class (for the TAR: its slot; for the heap: any heap
//    class), it is not a VM load, and no unhoisted guard precedes it -- a load must not move above a
//    guard that stays in the loop, because that guard may be what proves
//    the access safe.
//  * A guard (or overflow op) hoists iff its condition/operands do; its
//    exit is rewired to Fragment::EntryExit, the Deopt snapshot of the
//    entry state. Moving a guard earlier only strengthens it, and failing
//    at entry is sound because the prologue executes no side effects:
//    "pretend we never entered" and let the interpreter run the iteration.
//  * Stores, impure calls, TreeCall and terminators never hoist.

struct HoistResult {
  uint32_t Ins = 0;
  uint32_t Guards = 0;
};

HoistResult runHoist(Fragment &F) {
  HoistResult R;
  std::vector<LIns *> &Body = F.Body;
  if (F.Kind != FragmentKind::Root || !F.EntryExit || Body.empty() ||
      Body.back()->Op != LOp::Loop)
    return R;

  // Whole-trace clobber summary: the classes written anywhere, and the TAR
  // slots stored (Written holds Acc::Tar only after a tree call, which
  // writes every slot of the shared TAR).
  std::unordered_set<int32_t> TarStored;
  AccSet Written = Acc::None;
  for (const LIns *I : Body) {
    if (I->isStore() && I->Loc == Acc::Tar)
      TarStored.insert(I->Disp / 8);
    else if (I->isStore())
      Written |= I->Loc;
    else if (I->Op == LOp::Call && !I->CI->Pure)
      Written |= I->CI->Writes;
    else if (I->Op == LOp::TreeCall)
      Written |= Acc::All;
  }
  // A heap load hoists only when the trace writes no heap class at all.
  // Hoisting past writes to other classes would be sound, but the values
  // then stay live across the loop and spill: sunspider's code grew by 1%
  // with no speed to show for it.
  if (Written & Acc::Heap)
    Written |= Acc::Heap | Acc::ReadOnly;

  std::unordered_set<const LIns *> Avail;   // usable as hoisted operands
  std::unordered_set<const LIns *> Hoisted; // instructions that move
  bool SeenUnhoistedGuard = false;
  auto IsAvail = [&](const LIns *V) { return !V || Avail.count(V) != 0; };
  // Only guards that inspect pointer-typed data (type/shape checks) can
  // establish memory-layout facts a later load's safety depends on; when
  // such a guard stays in the loop, loads must not float above it. An i32
  // compare (loop condition, bounds check) cannot strand a hoisted load:
  // under class-granularity clobbering, any load it protects shares its
  // condition's dataflow, so the load only becomes available when the
  // guard hoists with it (and the rebuild preserves their order).
  auto GuardsMemoryLayout = [](const LIns *Cond) {
    if (!Cond)
      return true; // be conservative about malformed conds
    const LIns *Ops[2] = {Cond->A, Cond->B};
    for (const LIns *V : Ops)
      if (V && V->Ty == LTy::Q)
        return true;
    return false;
  };

  for (size_t P = 0; P + 1 < Body.size(); ++P) { // terminator never moves
    LIns *I = Body[P];
    switch (I->Op) {
    case LOp::ParamTar:
      Avail.insert(I);
      Hoisted.insert(I);
      break;
    case LOp::ImmI:
    case LOp::ImmQ:
    case LOp::ImmD:
      Avail.insert(I);
      break;
    case LOp::GuardT:
    case LOp::GuardF:
      if (IsAvail(I->A))
        Hoisted.insert(I);
      else if (GuardsMemoryLayout(I->A))
        SeenUnhoistedGuard = true;
      break;
    case LOp::AddOvI:
    case LOp::SubOvI:
    case LOp::MulOvI:
      if (IsAvail(I->A) && IsAvail(I->B)) {
        Avail.insert(I);
        Hoisted.insert(I);
      }
      // An unhoisted overflow check guards i32 arithmetic, never memory
      // layout; it does not block later loads.
      break;
    case LOp::TreeCall:
      SeenUnhoistedGuard = true;
      break;
    case LOp::Call: {
      bool Ok = I->CI->Pure; // pure helpers (sin, floor, ...) cannot trap
      for (uint32_t K = 0; Ok && K < I->NCallArgs; ++K)
        Ok = IsAvail(I->CallArgs[K]);
      if (Ok) {
        Avail.insert(I);
        Hoisted.insert(I);
      }
      break;
    }
    case LOp::LdI:
    case LOp::LdQ:
    case LOp::LdD:
    case LOp::LdUB: {
      bool Ok = IsAvail(I->A) && !SeenUnhoistedGuard &&
                I->Loc != Acc::Vm && !(Written & I->Loc) &&
                !(I->Loc == Acc::Tar && TarStored.count(I->Disp / 8));
      if (Ok) {
        Avail.insert(I);
        Hoisted.insert(I);
      }
      break;
    }
    default:
      if (lirOpHas(I->Op, OpPure) && IsAvail(I->A) && IsAvail(I->B)) {
        Avail.insert(I);
        Hoisted.insert(I);
      }
      break;
    }
  }

  uint32_t Meaningful = 0;
  for (const LIns *I : Hoisted)
    if (I->Op != LOp::ParamTar)
      ++Meaningful;
  if (Meaningful == 0)
    return R; // nothing worth a prologue

  // Immediates referenced by hoisted instructions must move too, or the
  // prologue would use values defined after it.
  std::unordered_set<const LIns *> NeededImms;
  auto NeedImm = [&](const LIns *V) {
    if (V && V->isImm())
      NeededImms.insert(V);
  };
  for (const LIns *I : Hoisted) {
    NeedImm(I->A);
    NeedImm(I->B);
    for (uint32_t K = 0; K < I->NCallArgs; ++K)
      NeedImm(I->CallArgs[K]);
  }

  auto Moves = [&](const LIns *I) {
    return Hoisted.count(I) != 0 || (I->isImm() && NeededImms.count(I) != 0);
  };
  std::vector<LIns *> NewBody;
  NewBody.reserve(Body.size());
  for (LIns *I : Body)
    if (Moves(I))
      NewBody.push_back(I);
  F.PrologueEnd = (uint32_t)NewBody.size();
  for (LIns *I : Body)
    if (!Moves(I))
      NewBody.push_back(I);
  Body.swap(NewBody);

  for (uint32_t P = 0; P < F.PrologueEnd; ++P) {
    LIns *I = Body[P];
    if (I->Op == LOp::ParamTar || I->isImm())
      continue;
    ++R.Ins;
    if (I->isGuard()) {
      I->Exit = F.EntryExit; // fail at entry = never entered
      ++R.Guards;
    }
  }
  return R;
}

} // namespace

OptResult optimizeTrace(Fragment &F, const OptPipeline &Passes,
                        uint32_t NumGlobals, VMStats *Stats) {
  OptResult R;

  // The paper's §5.1 backward filters, unchanged (the -O0 pipeline).
  if (Passes.has(OptPass::DeadStore))
    eliminateDeadStores(F.Body, NumGlobals, &F.EntryTypes);
  if (Stats)
    Stats->LirAfterForwardFilters += F.Body.size();
  if (Passes.has(OptPass::Dce))
    eliminateDeadCode(F.Body);

  bool RanLoopOpt = false;
  if (Passes.has(OptPass::IndVar)) {
    IndVarResult IV = runIndVar(F, F.Body);
    R.OvfChecksFolded = IV.Folded;
    R.IdxStrengthReduced = IV.Reduced;
    RanLoopOpt = true;
  }
  if (Passes.has(OptPass::Hoist)) {
    HoistResult H = runHoist(F);
    R.InsHoisted = H.Ins;
    R.GuardsHoisted = H.Guards;
    RanLoopOpt = true;
    // A hoisted guard now fails through the entry snapshot, which sees no
    // slot above the entry Sp: stores kept only for its old exit (a pushed
    // callee before its identity guard) are dead now.
    if (H.Guards && Passes.has(OptPass::DeadStore))
      eliminateDeadStores(F.Body, NumGlobals, &F.EntryTypes);
  }

  // The loop passes orphan values (bypassed address chains); clean up, keeping the prologue boundary consistent.
  if (RanLoopOpt && Passes.has(OptPass::Dce)) {
    if (F.PrologueEnd) {
      std::unordered_set<const LIns *> Pro(F.Body.begin(),
                                           F.Body.begin() + F.PrologueEnd);
      eliminateDeadCode(F.Body);
      uint32_t End = 0; // survivors keep their order: prologue is a prefix
      while (End < F.Body.size() && Pro.count(F.Body[End]))
        ++End;
      F.PrologueEnd = End;
    } else {
      eliminateDeadCode(F.Body);
    }
  }

  if (Stats) {
    Stats->LirAfterBackwardFilters += F.Body.size();
    Stats->OverflowChecksFolded += R.OvfChecksFolded;
    Stats->IdxStrengthReduced += R.IdxStrengthReduced;
    Stats->InsHoisted += R.InsHoisted;
    Stats->GuardsHoisted += R.GuardsHoisted;
    if (F.PrologueEnd)
      ++Stats->LoopsWithPrologue;
  }
  return R;
}

} // namespace tracejit

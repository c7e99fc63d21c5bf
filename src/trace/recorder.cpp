//===- recorder.cpp - The trace recorder ----------------------------------------===//

#include "trace/recorder.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "analysis/analysis.h"
#include "interp/natives.h"
#include "trace/helpers.h"
#include "trace/monitor.h"
#include "vm/object.h"
#include "vm/string.h"

namespace tracejit {

/// Mark in \p Slots (indexed by slot) every slot the bytecode of loop \p L
/// of \p S names: its frame's locals (frame base \p Base) through
/// GetLocal/SetLocal -- only those \p Live marks, when given -- and globals
/// through GetGlobal/SetGlobal. Returns whether the loop body calls a
/// function, which may name any global.
static bool markLoopSlots(const FunctionScript *S, const LoopRecord *L,
                          uint32_t NumGlobals, uint32_t Base,
                          std::vector<uint8_t> &Slots,
                          const std::vector<uint8_t> *Live = nullptr) {
  bool Calls = false;
  auto Mark = [&](uint32_t Slot) {
    if (Slot < Slots.size())
      Slots[Slot] = 1;
  };
  for (uint32_t Pc = L->HeaderPc; Pc < L->EndPc;
       Pc += 1 + opInfo(S->opAt(Pc)).OperandBytes) {
    switch (S->opAt(Pc)) {
    case Op::GetLocal:
    case Op::SetLocal: {
      uint32_t K = S->u16At(Pc + 1);
      if (!Live || (*Live)[K])
        Mark(NumGlobals + Base + K);
      break;
    }
    case Op::GetGlobal:
    case Op::SetGlobal:
      Mark(S->u16At(Pc + 1));
      break;
    case Op::Call:
    case Op::CallProp:
      Calls = true;
      break;
    default:
      break;
    }
  }
  return Calls;
}

TraceRecorder::TraceRecorder(VMContext &C, Interpreter &I, TraceMonitor &M,
                             Fragment *Frag, Mode Md, LoopRecord *L,
                             ExitDescriptor *AExit)
    : Ctx(C), Interp(I), Monitor(M), F(Frag), RecMode(Md), Loop(L),
      AnchorExit(AExit) {
  // Mirror the live interpreter state.
  for (const Frame &Fr : Interp.frames())
    VFrames.push_back({Fr.Script, Fr.Base, Fr.ReturnPc});
  VSp = Interp.stackTop();
  // A trace may not pop below the depth its tree is anchored at. Branch
  // traces can start deeper (at an exit inside an inlined call) but still
  // close at the root's loop header, so their floor is the root's depth.
  EntryFrameDepth = RecMode == Mode::Branch ? Frag->Root->EntryFrameCount
                                            : VFrames.size();
  FallbackTypes = F->EntryTypes.Types;
  ExitPc = F->AnchorPc;
  if (RecMode == Mode::Root) {
    // The tree specializes on every slot its loop's code names, whether or
    // not this recording's path reaches it: the branches grown later run
    // the other paths, and find those slots typed in the TAR. A local dead
    // at the header is the exception: no path reads its entry value, so
    // the tree never specializes on it (rootEntryMap). Every other slot
    // starts open.
    uint32_t N = F->EntryTypes.size();
    EntryRead.assign(N, 0);
    Dead.assign(N, 0);
    if (L) {
      const std::vector<uint8_t> &Live = loopLiveLocals(*F->AnchorScript, *L);
      uint32_t Base = numGlobals() + VFrames.back().Base;
      markLoopSlots(F->AnchorScript, L, numGlobals(), VFrames.back().Base,
                    EntryRead, &Live);
      for (uint32_t K = 0; K < Live.size(); ++K)
        Dead[Base + K] = !Live[K];
    }
    Open.resize(N);
    for (uint32_t S = 0; S < N; ++S)
      Open[S] = !EntryRead[S];
    EntryBoxed.assign(N, 0);
    OpenUntil.assign(N, UINT32_MAX);
  }
  noteSlot(numGlobals() + VSp);

  // Build the filter pipeline (§5.1): recorder -> ExprFilter -> CseFilter
  // -> buffer. Filters are toggled for the ablation benchmarks. LIR lands
  // in the fragment's own arena so the trace is self-contained when it
  // travels to the background compiler.
  Buffer = std::make_unique<LirBuffer>(*Frag->LirArena);
  LirWriter *Head = Buffer.get();
  if (Ctx.Opts.Passes.has(OptPass::Cse)) {
    Cse = std::make_unique<CseFilter>(Head);
    Head = Cse.get();
  }
  if (Ctx.Opts.Passes.has(OptPass::ExprSimp)) {
    Expr = std::make_unique<ExprFilter>(Head, &helperCalls().ToInt32D);
    Head = Expr.get();
  }
  if (Ctx.Opts.VerifyLir) {
    // Verifier at the very head: it sees each instruction exactly as the
    // recorder emitted it, before any filter rewrites it.
    Verify = std::make_unique<VerifyWriter>(Head, *Buffer, numGlobals(),
                                            &Ctx.Stats);
    Head = Verify.get();
  }
  W = Head;
  ParamTar = W->ins0(LOp::ParamTar);
  if (AnchorExit)
    importExitConsts(AnchorExit);

  // Entry-state snapshot for hoisted guards (lir/opt.h): taken before any
  // other LIR exists, so a guard moved into the prologue can fail through
  // it as "we never entered" and the interpreter re-runs the iteration.
  // Only root recordings can gain a prologue, and only when the Hoist pass
  // is on: without it the snapshot would be an exit no guard takes.
  if (RecMode == Mode::Root && Ctx.Opts.Passes.has(OptPass::Hoist))
    F->EntryExit = snapshot(ExitKind::Deopt, F->AnchorPc);

  // Figure 11 instrumentation: count one iteration per pass through the
  // fragment entry.
  if (Ctx.Opts.CollectStats) {
    LIns *CtrBase = immQ((int64_t)(intptr_t)&F->Iterations);
    LIns *Ctr = W->insLoad(LOp::LdQ, CtrBase, 0, Acc::Vm);
    LIns *Inc = W->ins2(LOp::AddQ, Ctr, immQ(1));
    W->insStore(LOp::StQ, Inc, CtrBase, 0, Acc::Vm);
  }
}

TraceRecorder::~TraceRecorder() = default;

FunctionScript *TraceRecorder::script() const {
  return VFrames.back().Script;
}

Value TraceRecorder::peekStack(uint32_t DepthFromTop) {
  return Interp.stackData()[Interp.stackTop() - 1 - DepthFromTop];
}

void TraceRecorder::abort(AbortReason Why) {
  if (St == Status::Recording) {
    St = Status::Aborted;
    AbortCause = Why;
  }
}

bool TraceRecorder::verifyFailed() {
  if (!Verify || !Verify->failed())
    return false;
  fprintf(stderr, "tracejit: LIR verify failed while recording: %s\n",
          Verify->error().describe().c_str());
  abort(AbortReason::VerifyFailed);
  return true;
}

bool TraceRecorder::atAnchor(uint32_t Pc) const {
  if (VFrames.size() != EntryFrameDepth)
    return false;
  if (RecMode == Mode::Root)
    return F->AnchorScript == VFrames.back().Script && Pc == F->AnchorPc;
  // Branch traces close at the root tree's anchor.
  Fragment *Root = F->Root;
  return Root->AnchorScript == VFrames.back().Script && Pc == Root->AnchorPc;
}

// --- Slot tracking -------------------------------------------------------------------

LIns *TraceRecorder::ldSlot(TraceType T, uint32_t Slot) {
  int32_t Disp = tarOffsetOfSlot(Slot);
  switch (T) {
  case TraceType::Int:
  case TraceType::Boolean:
    return W->insLoad(LOp::LdI, ParamTar, Disp, Acc::Tar);
  case TraceType::Double:
    return W->insLoad(LOp::LdD, ParamTar, Disp, Acc::Tar);
  case TraceType::Object:
  case TraceType::String:
    return W->insLoad(LOp::LdQ, ParamTar, Disp, Acc::Tar);
  case TraceType::Null:
  case TraceType::Undefined:
    return nullptr;
  case TraceType::Boxed:
    break; // a map type only: no value is ever Boxed on trace
  }
  assert(false && "TAR load of a Boxed slot");
  return nullptr;
}

void TraceRecorder::stSlot(uint32_t Slot, LIns *V, TraceType T) {
  int32_t Disp = tarOffsetOfSlot(Slot);
  switch (T) {
  case TraceType::Int:
  case TraceType::Boolean:
    W->insStore(LOp::StI, V, ParamTar, Disp, Acc::Tar);
    return;
  case TraceType::Double:
    W->insStore(LOp::StD, V, ParamTar, Disp, Acc::Tar);
    return;
  case TraceType::Object:
  case TraceType::String:
    W->insStore(LOp::StQ, V, ParamTar, Disp, Acc::Tar);
    return;
  case TraceType::Null:
  case TraceType::Undefined:
    return; // the type carries the whole value
  case TraceType::Boxed:
    break;
  }
  assert(false && "TAR store of a Boxed value");
}

Value *TraceRecorder::interpSlot(uint32_t Slot) {
  if (Slot < numGlobals())
    return &Ctx.Globals.Values[Slot];
  return Interp.stackData() + (Slot - numGlobals());
}

void TraceRecorder::track(uint32_t Slot, const Tracked &V) {
  if (isOpen(Slot))
    closeOpen(Slot);
  Tracker[Slot] = V;
}

TraceRecorder::Tracked TraceRecorder::importBoxed(uint32_t Slot) {
  TraceType T = traceTypeOf(*interpSlot(Slot));
  LIns *Word = W->insLoad(LOp::LdQ, immQ((int64_t)(intptr_t)interpSlot(Slot)),
                          0, Acc::Vm);
  return {unboxGuarded(Word, T, ExitPc), T, /*InTar=*/false};
}

TraceRecorder::Tracked TraceRecorder::readSlot(uint32_t Slot) {
  noteSlot(Slot + 1);
  auto It = Tracker.find(Slot);
  if (It != Tracker.end())
    return It->second;
  if (Slot >= FallbackTypes.size()) {
    abort(AbortReason::UntrackedSlot);
    return {};
  }
  TraceType T = FallbackTypes[Slot];
  Tracked V;
  if (T == TraceType::Boxed) {
    V = importBoxed(Slot);
  } else {
    // Lazy import: "the trace imports local and global variables by
    // unboxing them and copying them to its activation record" (§3.1) --
    // the unboxed copy was made by the monitor on entry; here we just load
    // it typed.
    V = {ldSlot(T, Slot), T};
    if (isOpen(Slot))
      EntryRead[Slot] = 1;
  }
  track(Slot, V);
  return V;
}

void TraceRecorder::writeSlot(uint32_t Slot, LIns *V, TraceType T) {
  noteSlot(Slot + 1);
  stSlot(Slot, V, T);
  track(Slot, Tracked{V, T});
}

TraceType TraceRecorder::valueTypeOf(uint32_t Slot) {
  auto It = Tracker.find(Slot);
  if (It != Tracker.end())
    return It->second.Ty;
  TraceType T =
      Slot < FallbackTypes.size() ? FallbackTypes[Slot] : TraceType::Undefined;
  return T == TraceType::Boxed ? traceTypeOf(*interpSlot(Slot)) : T;
}

void TraceRecorder::dropSlot(uint32_t Slot) {
  auto It = Tracker.find(Slot);
  if (It != Tracker.end()) {
    It->second.InTar = false;
    return;
  }
  if (Slot >= FallbackTypes.size() || FallbackTypes[Slot] == TraceType::Boxed)
    return;
  if (isOpen(Slot)) {
    EntryBoxed[Slot] = 1;
    closeOpen(Slot);
  }
  FallbackTypes[Slot] = TraceType::Boxed;
}

void TraceRecorder::dropDeadLocals(const Fragment &Tree) {
  if (!Tree.Loop)
    return;
  const std::vector<uint8_t> &Live =
      loopLiveLocals(*Tree.AnchorScript, *Tree.Loop);
  uint32_t Base = numGlobals() + VFrames.back().Base;
  for (uint32_t K = 0; K < Live.size(); ++K)
    if (!Live[K])
      dropSlot(Base + K);
}

void TraceRecorder::flushSlot(uint32_t Slot) {
  Tracked V;
  auto It = Tracker.find(Slot);
  if (It != Tracker.end()) {
    if (!It->second.InTar)
      return; // the interpreter holds it already
    V = It->second;
  } else {
    TraceType T = FallbackTypes[Slot];
    if (T == TraceType::Boxed)
      return;
    if (isOpen(Slot)) {
      // Still at its entry value, which the tree need not specialize on:
      // leave the slot Boxed in the entry map, and the interpreter holds it.
      EntryBoxed[Slot] = 1;
      FallbackTypes[Slot] = TraceType::Boxed;
      closeOpen(Slot);
      return;
    }
    V = {ldSlot(T, Slot), T};
  }
  W->insStore(LOp::StQ, boxValue(V.Ins, V.Ty),
              immQ((int64_t)(intptr_t)interpSlot(Slot)), 0, Acc::Vm);
  V.InTar = false;
  track(Slot, V);
}

TypeMap TraceRecorder::currentTypeMap() {
  TypeMap M;
  M.NumGlobals = numGlobals();
  uint32_t N = numGlobals() + VSp;
  M.Types.resize(N, TraceType::Undefined);
  for (uint32_t S = 0; S < N; ++S) {
    auto It = Tracker.find(S);
    if (It != Tracker.end())
      M.Types[S] = It->second.InTar ? It->second.Ty : TraceType::Boxed;
    else if (S < FallbackTypes.size())
      M.Types[S] = FallbackTypes[S];
  }
  return M;
}

TypeMap TraceRecorder::rootEntryMap() {
  // The live map from recording start, with Boxed for every slot the tree
  // need not specialize on. A slot is typed when the recording read its
  // entry value from the TAR, or holds it typed in the TAR at the loop
  // edge (so the back edge leaves it there instead of boxing it every
  // iteration); a tree call may have left an unread slot Boxed. A local
  // dead at the header is Boxed even if read: the TAR never holds its
  // entry value, so a read of it (a liveness bug) fails the verifier's
  // untyped-tar-slot rule instead of computing with a stale value.
  TypeMap E = F->EntryTypes;
  for (uint32_t S = 0; S < E.size(); ++S) {
    if (Dead[S]) {
      E.Types[S] = TraceType::Boxed;
      continue;
    }
    if (EntryRead[S])
      continue;
    bool Typed = false;
    if (!EntryBoxed[S] && !Open[S]) {
      auto It = Tracker.find(S);
      if (It != Tracker.end())
        Typed = It->second.InTar;
      else
        Typed = FallbackTypes[S] != TraceType::Boxed;
    }
    if (!Typed)
      E.Types[S] = TraceType::Boxed;
  }
  return E;
}

void TraceRecorder::finishRootEntry() {
  TypeMap E = rootEntryMap();
  // An exit snapshotted while a slot was open typed it by its entry
  // value; where the tree leaves that slot Boxed, the interpreter still
  // holds the value, so the exit leaves it there too.
  for (uint32_t K = 0; K < F->Exits.size(); ++K) {
    TypeMap &M = F->Exits[K]->Types;
    for (uint32_t S = 0; S < E.size() && S < M.size(); ++S)
      if (!E.typed(S) && OpenUntil[S] > K)
        M.Types[S] = TraceType::Boxed;
  }
  F->EntryTypes = std::move(E);
}

// --- Exits ------------------------------------------------------------------------------

ExitDescriptor *TraceRecorder::snapshot(ExitKind Kind, uint32_t Pc) {
  ExitDescriptor *E = F->makeExit();
  E->Kind = Kind;
  E->Pc = Pc;
  E->Sp = VSp;
  for (const RecFrame &Fr : VFrames)
    E->Frames.push_back({Fr.Script, Fr.Base, Fr.ReturnPc});
  E->Types = currentTypeMap();
  // Slots above the tree's entry Sp are observable only through exits, so
  // a constant there lives in the descriptor instead of a TAR store.
  uint32_t Floor = (uint32_t)F->Root->EntryTypes.size();
  for (uint32_t S = Floor; S < numGlobals() + VSp; ++S) {
    auto It = Tracker.find(S);
    if (It != Tracker.end() && It->second.InTar && It->second.Ins &&
        It->second.Ins->isImm())
      E->ConstSlots.push_back({S, It->second.Ins->immWord()});
  }
  return E;
}

void TraceRecorder::importConst(const ExitConstSlot &C, TraceType T) {
  LIns *V;
  switch (T) {
  case TraceType::Int:
  case TraceType::Boolean:
    V = immI((int32_t)(uint32_t)C.Word);
    break;
  case TraceType::Double: {
    double D;
    __builtin_memcpy(&D, &C.Word, 8);
    V = immD(D);
    break;
  }
  default:
    // An object or string: the fragment that recorded the constant roots
    // it, and fragments are only freed together, by a cache flush.
    V = immQ((int64_t)C.Word);
    break;
  }
  // Stored like any other write: an exit restores the slot from its own
  // constants (so the filters drop the store), but a nested tree called
  // later reads its entry slots from the TAR.
  writeSlot(C.Slot, V, T);
}

void TraceRecorder::importExitConsts(const ExitDescriptor *E) {
  for (const ExitConstSlot &C : E->ConstSlots)
    importConst(C, E->Types.Types[C.Slot]);
}

// --- Boxing / unboxing ----------------------------------------------------------------------

LIns *TraceRecorder::unboxGuarded(LIns *Word, TraceType Expect, uint32_t Pc) {
  ExitDescriptor *E = snapshot(ExitKind::Type, Pc);
  switch (Expect) {
  case TraceType::Int: {
    LIns *Tag = W->ins2(LOp::AndQ, Word, immQ(1));
    W->insGuard(LOp::GuardT, W->ins2(LOp::EqQ, Tag, immQ(1)), E);
    return W->ins1(LOp::Q2I, W->ins2(LOp::SarQ, Word, immI(32)));
  }
  case TraceType::Double: {
    LIns *Tag = W->ins2(LOp::AndQ, Word, immQ(7));
    W->insGuard(LOp::GuardT, W->ins2(LOp::EqQ, Tag, immQ(TagDouble)), E);
    LIns *Ptr = W->ins2(LOp::AndQ, Word, immQ(~(int64_t)7));
    return W->insLoad(LOp::LdD, Ptr, DoubleCell::valueOffset(), Acc::ReadOnly);
  }
  case TraceType::Object: {
    LIns *Tag = W->ins2(LOp::AndQ, Word, immQ(7));
    W->insGuard(LOp::GuardT, W->ins2(LOp::EqQ, Tag, immQ(TagObject)), E);
    return Word; // tag 000: the word is the pointer
  }
  case TraceType::String: {
    LIns *Tag = W->ins2(LOp::AndQ, Word, immQ(7));
    W->insGuard(LOp::GuardT, W->ins2(LOp::EqQ, Tag, immQ(TagString)), E);
    return W->ins2(LOp::AndQ, Word, immQ(~(int64_t)7));
  }
  case TraceType::Boolean: {
    LIns *Tag = W->ins2(LOp::AndQ, Word, immQ(7));
    W->insGuard(LOp::GuardT, W->ins2(LOp::EqQ, Tag, immQ(TagSpecial)), E);
    LIns *Payload = W->ins1(LOp::Q2I, W->ins2(LOp::ShrQ, Word, immI(3)));
    W->insGuard(LOp::GuardT, W->ins2(LOp::LtUI, Payload, immI(2)), E);
    return Payload;
  }
  case TraceType::Null:
    W->insGuard(LOp::GuardT,
                W->ins2(LOp::EqQ, Word, immQ((int64_t)Value::null().bits())),
                E);
    return nullptr;
  case TraceType::Undefined:
    W->insGuard(
        LOp::GuardT,
        W->ins2(LOp::EqQ, Word, immQ((int64_t)Value::undefined().bits())), E);
    return nullptr;
  case TraceType::Boxed:
    break; // traceTypeOf never yields it
  }
  assert(false && "unbox to Boxed");
  return nullptr;
}

LIns *TraceRecorder::boxValue(LIns *V, TraceType T) {
  switch (T) {
  case TraceType::Int: {
    LIns *Wide = W->ins1(LOp::UI2Q, V);
    return W->ins2(LOp::OrQ, W->ins2(LOp::ShlQ, Wide, immI(32)), immQ(1));
  }
  case TraceType::Double: {
    LIns *Args[2] = {immQ((int64_t)(intptr_t)&Ctx), V};
    return W->insCall(&helperCalls().BoxDouble, Args, 2);
  }
  case TraceType::Object:
    return V;
  case TraceType::String:
    return W->ins2(LOp::OrQ, V, immQ(TagString));
  case TraceType::Boolean: {
    LIns *Wide = W->ins1(LOp::UI2Q, V);
    return W->ins2(LOp::OrQ, W->ins2(LOp::ShlQ, Wide, immI(3)),
                   immQ(TagSpecial));
  }
  case TraceType::Null:
    return immQ((int64_t)Value::null().bits());
  case TraceType::Undefined:
    return immQ((int64_t)Value::undefined().bits());
  case TraceType::Boxed:
    break;
  }
  assert(false && "box of a Boxed value");
  return nullptr;
}

LIns *TraceRecorder::promoteToD(const Tracked &V) {
  if (V.Ty == TraceType::Double)
    return V.Ins;
  return W->ins1(LOp::I2D, V.Ins); // Int and Boolean are i32 0/1
}

LIns *TraceRecorder::asInt32(const Tracked &V) {
  if (isIntLike(V.Ty))
    return V.Ins;
  assert(V.Ty == TraceType::Double);
  LIns *Args[1] = {V.Ins};
  return W->insCall(&helperCalls().ToInt32D, Args, 1);
}

LIns *TraceRecorder::truthyIns(const Tracked &V) {
  switch (V.Ty) {
  case TraceType::Int:
  case TraceType::Boolean:
    return W->ins2(LOp::NeI, V.Ins, immI(0));
  case TraceType::Double: {
    LIns *Args[1] = {V.Ins};
    return W->insCall(&helperCalls().TruthyD, Args, 1);
  }
  case TraceType::String: {
    LIns *Len = W->insLoad(LOp::LdI, V.Ins, String::lengthOffset(),
                           Acc::ReadOnly);
    return W->ins2(LOp::NeI, Len, immI(0));
  }
  case TraceType::Object:
    return immI(1);
  case TraceType::Null:
  case TraceType::Undefined:
    return immI(0);
  case TraceType::Boxed:
    break;
  }
  assert(false && "truthiness of a Boxed value");
  return immI(0);
}

void TraceRecorder::guardShape(LIns *Obj, Shape *S, uint32_t Pc) {
  ExitDescriptor *E = snapshot(ExitKind::Type, Pc);
  LIns *Ld = W->insLoad(LOp::LdQ, Obj, Object::shapeOffset(), Acc::Header);
  W->insGuard(LOp::GuardT,
              W->ins2(LOp::EqQ, Ld, immQ((int64_t)(intptr_t)S)), E);
}

void TraceRecorder::guardIsArray(LIns *Obj, uint32_t Pc) {
  ExitDescriptor *E = snapshot(ExitKind::Type, Pc);
  LIns *K = W->insLoad(LOp::LdUB, Obj, Object::kindOffset(), Acc::Header);
  W->insGuard(LOp::GuardT,
              W->ins2(LOp::EqI, K, immI((int32_t)ObjectKind::Array)), E);
}

void TraceRecorder::guardShapeMulti(LIns *Obj, Shape *const *Shapes, size_t N,
                                    uint32_t Pc) {
  if (N == 1) {
    guardShape(Obj, Shapes[0], Pc);
    return;
  }
  ExitDescriptor *E = snapshot(ExitKind::Type, Pc);
  LIns *Ld = W->insLoad(LOp::LdQ, Obj, Object::shapeOffset(), Acc::Header);
  LIns *Match = W->ins2(LOp::EqQ, Ld, immQ((int64_t)(intptr_t)Shapes[0]));
  for (size_t I = 1; I < N; ++I)
    Match = W->ins2(LOp::OrI, Match,
                    W->ins2(LOp::EqQ, Ld, immQ((int64_t)(intptr_t)Shapes[I])));
  W->insGuard(LOp::GuardT, Match, E);
}

bool TraceRecorder::icSiteMegamorphic(const PropertyIC &IC, uint32_t Pc) const {
  return IC.State == ICState::Mega ||
         Monitor.oracle().isMegamorphicSite(
             Oracle::propSiteKey(script()->Id, Pc));
}

void TraceRecorder::icShapeGuard(const PropertyIC &IC, Object *RO, LIns *Obj,
                                 uint32_t Slot, uint32_t Pc) {
  if (IC.State == ICState::Mono || IC.State == ICState::Poly) {
    Shape *Shapes[PropertyIC::MaxEntries];
    size_t N = 0;
    bool LiveCached = false;
    uint8_t K = (uint8_t)RO->kind();
    for (uint8_t I = 0; I < IC.N; ++I) {
      const ICEntry &E = IC.Entries[I];
      // Only same-kind entries that resolve the name to the same slot can
      // share this trace's slot load.
      if (E.Kind != ICEntryKind::Slot || E.KindGuard != K || E.Slot != Slot)
        continue;
      Shapes[N++] = E.ShapePtr;
      LiveCached |= E.ShapePtr == RO->shape();
    }
    if (LiveCached) {
      ++Ctx.Stats.IcRecorderHits;
      guardShapeMulti(Obj, Shapes, N, Pc);
      return;
    }
  }
  guardShape(Obj, RO->shape(), Pc);
}

// --- Arithmetic / comparison / bit ops ------------------------------------------------------

void TraceRecorder::guardNotNegZero(LIns *R, LIns *A, LIns *B,
                                    ExitDescriptor *E, uint32_t Pc) {
  // An int product is 0 with a negative operand exactly when JavaScript's
  // product is -0, which the int cannot hold: exit there, and the
  // interpreter computes the double. A positive constant operand rules
  // the case out, and so does a square (x * x is 0 only for x = 0).
  auto PositiveImm = [](const LIns *X) {
    return X->Op == LOp::ImmI && X->Imm.ImmI32 > 0;
  };
  if (A == B || PositiveImm(A) || PositiveImm(B))
    return;
  // R <u ((A | B) >>> 31): the sign bit of A | B is 1 and R is 0. One
  // compare, fused into the guard's branch.
  LIns *NegOperand = W->ins2(LOp::UshrI, W->ins2(LOp::OrI, A, B), immI(31));
  W->insGuard(LOp::GuardF, W->ins2(LOp::LtUI, R, NegOperand),
              E ? E : snapshot(ExitKind::Overflow, Pc));
}

void TraceRecorder::recordArith(Op O, uint32_t Pc) {
  if (O == Op::Neg) {
    Tracked A = top();
    if (!isNumericType(A.Ty)) {
      abort(AbortReason::NonNumericArith);
      return;
    }
    Value AV = peekStack(0);
    if (isIntLike(A.Ty) && AV.isInt() && AV.toInt() != 0 &&
        AV.toInt() != INT32_MIN) {
      ExitDescriptor *E = snapshot(ExitKind::Overflow, Pc);
      W->insGuard(LOp::GuardT, W->ins2(LOp::NeI, A.Ins, immI(0)), E);
      LIns *R = W->insOvf(LOp::SubOvI, immI(0), A.Ins,
                          snapshot(ExitKind::Overflow, Pc));
      --VSp;
      push(R, TraceType::Int);
    } else {
      LIns *R = W->ins1(LOp::NegD, promoteToD(A));
      --VSp;
      push(R, TraceType::Double);
    }
    return;
  }

  Tracked B = top(0);
  Tracked A = top(1);

  if (O == Op::Add && (A.Ty == TraceType::String || B.Ty == TraceType::String)) {
    LIns *R;
    if (A.Ty == TraceType::String && B.Ty == TraceType::String) {
      LIns *Args[3] = {immQ((int64_t)(intptr_t)&Ctx), A.Ins, B.Ins};
      R = W->insCall(&helperCalls().ConcatSS, Args, 3);
    } else {
      bool NumFirst = B.Ty == TraceType::String;
      const Tracked &Str = NumFirst ? B : A;
      const Tracked &Num = NumFirst ? A : B;
      if (Num.Ty != TraceType::Int && Num.Ty != TraceType::Double) {
        abort(AbortReason::MixedConcat);
        return;
      }
      LIns *Args[4] = {immQ((int64_t)(intptr_t)&Ctx), Str.Ins, promoteToD(Num),
                       immI(NumFirst)};
      R = W->insCall(&helperCalls().ConcatSN, Args, 4);
    }
    VSp -= 2;
    push(R, TraceType::String);
    return;
  }

  if (!isNumericType(A.Ty) || !isNumericType(B.Ty)) {
    abort(AbortReason::NonNumericArith);
    return;
  }

  bool IntPath = isIntLike(A.Ty) && isIntLike(B.Ty);
  switch (O) {
  case Op::Add:
  case Op::Sub:
  case Op::Mul: {
    bool Overflows = false;
    if (IntPath) {
      // Peek the live operands: if this very execution overflows int32,
      // specialize to the double path instead of recording an
      // always-failing overflow guard.
      int64_t X = (int64_t)Interpreter::toNumber(peekStack(1));
      int64_t Y = (int64_t)Interpreter::toNumber(peekStack(0));
      int64_t R = O == Op::Add ? X + Y : O == Op::Sub ? X - Y : X * Y;
      Overflows = R < INT32_MIN || R > INT32_MAX;
      // Likewise a product that is JavaScript's -0, which no int holds.
      bool NegZero = O == Op::Mul && R == 0 && (X < 0 || Y < 0);
      IntPath = !Overflows && !NegZero;
    }
    if (IntPath) {
      // Interval analysis may have proven the int32 result cannot overflow
      // on any execution reaching this pc; then the checked form is pure
      // overhead.
      const ScriptAnalysis *SA = Ctx.analysisOf(script());
      if (SA && SA->NoOverflow.count(Pc)) {
        LOp Plain = O == Op::Add   ? LOp::AddI
                    : O == Op::Sub ? LOp::SubI
                                   : LOp::MulI;
        LIns *R = W->ins2(Plain, A.Ins, B.Ins);
        ++Ctx.Stats.StaticGuardsElided;
        if (O == Op::Mul)
          guardNotNegZero(R, A.Ins, B.Ins, nullptr, Pc);
        VSp -= 2;
        push(R, TraceType::Int);
        return;
      }
      LOp Ov = O == Op::Add   ? LOp::AddOvI
               : O == Op::Sub ? LOp::SubOvI
                              : LOp::MulOvI;
      ExitDescriptor *E = snapshot(ExitKind::Overflow, Pc);
      LIns *R = W->insOvf(Ov, A.Ins, B.Ins, E);
      if (O == Op::Mul)
        guardNotNegZero(R, A.Ins, B.Ins, E, Pc);
      VSp -= 2;
      push(R, TraceType::Int);
    } else {
      // A NoOverflow fact with a live overflowing execution means the
      // analysis is wrong; surface it rather than silently diverge.
      if (const ScriptAnalysis *SA = Ctx.analysisOf(script()))
        if (Overflows && SA->NoOverflow.count(Pc))
          ++Ctx.Stats.StaticFactContradictions;
      LOp Dop = O == Op::Add   ? LOp::AddD
                : O == Op::Sub ? LOp::SubD
                               : LOp::MulD;
      LIns *R = W->ins2(Dop, promoteToD(A), promoteToD(B));
      VSp -= 2;
      push(R, TraceType::Double);
    }
    return;
  }
  case Op::Div: {
    LIns *R = W->ins2(LOp::DivD, promoteToD(A), promoteToD(B));
    VSp -= 2;
    push(R, TraceType::Double);
    return;
  }
  case Op::Mod: {
    Value AV = peekStack(1), BV = peekStack(0);
    if (IntPath && AV.isInt() && BV.isInt() && AV.toInt() >= 0 &&
        BV.toInt() > 0) {
      // Specialize to integer modulus under non-negativity guards, exactly
      // the interpreter's int fast path.
      ExitDescriptor *E = snapshot(ExitKind::Overflow, Pc);
      W->insGuard(LOp::GuardT, W->ins2(LOp::GeI, A.Ins, immI(0)), E);
      W->insGuard(LOp::GuardT, W->ins2(LOp::GtI, B.Ins, immI(0)), E);
      LIns *Args[2] = {A.Ins, B.Ins};
      LIns *R = W->insCall(&helperCalls().ModI, Args, 2);
      VSp -= 2;
      push(R, TraceType::Int);
    } else {
      LIns *Args[2] = {promoteToD(A), promoteToD(B)};
      LIns *R = W->insCall(&helperCalls().ModD, Args, 2);
      VSp -= 2;
      push(R, TraceType::Double);
    }
    return;
  }
  default:
    abort(AbortReason::UnsupportedBytecode);
  }
}

void TraceRecorder::recordCompare(Op O, uint32_t Pc) {
  Tracked B = top(0);
  Tracked A = top(1);

  auto Push = [&](LIns *R) {
    VSp -= 2;
    push(R, TraceType::Boolean);
  };

  bool Loose = O == Op::Eq || O == Op::Ne;
  bool Equality = Loose || O == Op::StrictEq || O == Op::StrictNe;
  bool Negate = O == Op::Ne || O == Op::StrictNe;

  if (isNumericType(A.Ty) && isNumericType(B.Ty)) {
    if (isIntLike(A.Ty) && isIntLike(B.Ty)) {
      LOp IOp;
      switch (O) {
      case Op::Lt:
        IOp = LOp::LtI;
        break;
      case Op::Le:
        IOp = LOp::LeI;
        break;
      case Op::Gt:
        IOp = LOp::GtI;
        break;
      case Op::Ge:
        IOp = LOp::GeI;
        break;
      default:
        IOp = LOp::EqI;
        break;
      }
      LIns *R = W->ins2(IOp, A.Ins, B.Ins);
      if (Equality && Negate)
        R = W->ins2(LOp::XorI, R, immI(1));
      Push(R);
      return;
    }
    LOp Dop;
    switch (O) {
    case Op::Lt:
      Dop = LOp::LtD;
      break;
    case Op::Le:
      Dop = LOp::LeD;
      break;
    case Op::Gt:
      Dop = LOp::GtD;
      break;
    case Op::Ge:
      Dop = LOp::GeD;
      break;
    default:
      Dop = Negate ? LOp::NeD : LOp::EqD;
      break;
    }
    Push(W->ins2(Dop, promoteToD(A), promoteToD(B)));
    return;
  }

  if (Equality) {
    if (A.Ty == TraceType::String && B.Ty == TraceType::String) {
      LIns *Args[2] = {A.Ins, B.Ins};
      LIns *R = W->insCall(&helperCalls().EqSS, Args, 2);
      if (Negate)
        R = W->ins2(LOp::XorI, R, immI(1));
      Push(R);
      return;
    }
    if (A.Ty == TraceType::Object && B.Ty == TraceType::Object) {
      LIns *R = W->ins2(LOp::EqQ, A.Ins, B.Ins);
      if (Negate)
        R = W->ins2(LOp::XorI, R, immI(1));
      Push(R);
      return;
    }
    bool ANully = A.Ty == TraceType::Null || A.Ty == TraceType::Undefined;
    bool BNully = B.Ty == TraceType::Null || B.Ty == TraceType::Undefined;
    if (ANully || BNully) {
      // Types are static facts on trace: fold the comparison.
      bool EqResult;
      if (Loose)
        EqResult = ANully && BNully;
      else
        EqResult = A.Ty == B.Ty;
      Push(immI((EqResult != Negate) ? 1 : 0));
      return;
    }
    // Mixed types under strict equality are statically unequal.
    if (!Loose) {
      Push(immI(Negate ? 1 : 0));
      return;
    }
  }
  abort(AbortReason::UntraceableCompare);
  (void)Pc;
}

void TraceRecorder::recordBitop(Op O, uint32_t Pc) {
  if (O == Op::BitNot) {
    Tracked A = top();
    if (!isNumericType(A.Ty)) {
      abort(AbortReason::NonNumericBitop);
      return;
    }
    LIns *R = W->ins2(LOp::XorI, asInt32(A), immI(-1));
    --VSp;
    push(R, TraceType::Int);
    return;
  }

  Tracked B = top(0);
  Tracked A = top(1);
  if (!isNumericType(A.Ty) || !isNumericType(B.Ty)) {
    abort(AbortReason::NonNumericBitop);
    return;
  }
  LIns *X = asInt32(A);
  LIns *Y = asInt32(B);

  switch (O) {
  case Op::BitAnd:
  case Op::BitOr:
  case Op::BitXor:
  case Op::Shl:
  case Op::Shr: {
    LOp L = O == Op::BitAnd  ? LOp::AndI
            : O == Op::BitOr ? LOp::OrI
            : O == Op::BitXor ? LOp::XorI
            : O == Op::Shl    ? LOp::ShlI
                              : LOp::ShrI;
    LIns *R = W->ins2(L, X, Y);
    VSp -= 2;
    push(R, TraceType::Int);
    return;
  }
  case Op::Ushr: {
    LIns *R = W->ins2(LOp::UshrI, X, Y);
    // >>> produces uint32; specialize on the observed result: small
    // results stay Int under a sign guard, large ones become doubles.
    uint32_t Actual =
        (uint32_t)Interpreter::valueToInt32(peekStack(1)) >>
        (Interpreter::valueToInt32(peekStack(0)) & 31);
    if (Actual <= (uint32_t)INT32_MAX) {
      ExitDescriptor *E = snapshot(ExitKind::Overflow, Pc);
      W->insGuard(LOp::GuardT, W->ins2(LOp::GeI, R, immI(0)), E);
      VSp -= 2;
      push(R, TraceType::Int);
    } else {
      LIns *D = W->ins1(LOp::UI2D, R);
      VSp -= 2;
      push(D, TraceType::Double);
    }
    return;
  }
  default:
    abort(AbortReason::UnsupportedBytecode);
  }
}

// --- Control flow -----------------------------------------------------------------------------

void TraceRecorder::recordBranch(Op O, uint32_t Pc) {
  // A Branch exit snapshots before the virtual pop, so a failed guard
  // re-executes the branch with the condition still on the interpreter
  // stack.
  Tracked C = top();
  LIns *T = truthyIns(C);
  bool ActualTruthy = peekStack(0).truthy();
  --VSp;
  const bool Taken = ActualTruthy == (O == Op::JumpIfTrue);
  const uint32_t Target = script()->u32At(Pc + 1);
  auto OutsideLoop = [&](uint32_t P) {
    return P < Loop->HeaderPc || P >= Loop->EndPc;
  };
  const bool InAnchorFrame =
      Loop && VFrames.size() == EntryFrameDepth &&
      script() == (RecMode == Mode::Root ? F : F->Root)->AnchorScript;
  // A while or for loop's test is the only conditional jump in the loop's
  // code that targets past the loop (an if, a && or a do-while test jumps
  // within it; break is a plain Jump), and a root recording passes it
  // once, before any body op. Taking it leaves the loop with no body
  // recorded (endIfLeftLoop).
  if (RecMode == Mode::Root && InAnchorFrame && Taken && OutsideLoop(Target))
    LeftAtLoopTest = true;
  // The direction not taken resumes at the jump target or past the jump.
  // When that leaves the loop (a loop test, or a do-while's fall-through),
  // the guard's exit is the loop's own end: a LoopExit at the resume pc,
  // the condition popped. It grows no branch that would only leave the
  // loop again, and an outer recording can nest this tree at once, since
  // the tree leaves its loop through it (handleInnerLoopHeader).
  const uint32_t Resume = Taken ? Pc + 5 : Target;
  const bool GuardLeavesLoop = InAnchorFrame && OutsideLoop(Resume);
  if (T->Op == LOp::ImmI)
    return; // statically known: no divergence possible
  ExitDescriptor *E;
  if (GuardLeavesLoop) {
    E = snapshot(ExitKind::LoopExit, Resume);
  } else {
    VSp++; // restore for the snapshot
    E = snapshot(ExitKind::Branch, Pc);
    VSp--;
  }
  // Stay on trace only along the recorded direction.
  W->insGuard(ActualTruthy ? LOp::GuardT : LOp::GuardF, T, E);
}

// --- Property / element access ------------------------------------------------------------------

void TraceRecorder::recordGetProp(uint32_t Pc) {
  String *Name = script()->Atoms[script()->u16At(Pc + 1)];
  const PropertyIC &IC = script()->ICs[script()->u16At(Pc + 3)];
  Tracked Recv = top();
  Value RecvV = peekStack(0);

  if (Recv.Ty == TraceType::String) {
    if (Name->view() == "length") {
      LIns *Len = W->insLoad(LOp::LdI, Recv.Ins, String::lengthOffset(),
                             Acc::ReadOnly);
      --VSp;
      push(Len, TraceType::Int);
      return;
    }
    abort(AbortReason::UnknownStringProp);
    return;
  }
  if (Recv.Ty != TraceType::Object) {
    abort(AbortReason::PropOnPrimitive);
    return;
  }
  Object *RO = RecvV.toObject();

  if (RO->isArray() && Name->view() == "length") {
    guardIsArray(Recv.Ins, Pc);
    LIns *Len = W->insLoad(LOp::LdI, Recv.Ins, Object::arrayLenOffset(),
                           Acc::Header);
    --VSp;
    push(Len, TraceType::Int);
    return;
  }

  if (icSiteMegamorphic(IC, Pc)) {
    // A shape guard here would fail on most iterations. Call the generic
    // lookup instead and guard only the type of what it returns, so the
    // loop stays on trace whatever shape arrives.
    ++Ctx.Stats.IcRecorderGeneric;
    LIns *Args[2] = {Recv.Ins, immQ((int64_t)(intptr_t)Name)};
    LIns *Word = W->insCall(&helperCalls().GetPropGeneric, Args, 2);
    TraceType RTy = traceTypeOf(RO->readProperty(Name));
    LIns *V = unboxGuarded(Word, RTy, Pc);
    --VSp;
    push(V, RTy);
    return;
  }

  // "The recorder can generate LIR that reads o.x with just two or three
  // loads" (§3.1): guard the shape, then load the slot directly.
  int Slot = RO->slotOf(Name);
  if (Slot < 0) {
    guardShape(Recv.Ins, RO->shape(), Pc);
    --VSp;
    push(nullptr, TraceType::Undefined);
    return;
  }
  icShapeGuard(IC, RO, Recv.Ins, (uint32_t)Slot, Pc);
  LIns *Slots = W->insLoad(LOp::LdQ, Recv.Ins, Object::namedSlotsOffset(),
                           Acc::Header);
  LIns *Word = W->insLoad(LOp::LdQ, Slots, Slot * 8, Acc::Slots);
  TraceType RTy = traceTypeOf(RO->slotValue((uint32_t)Slot));
  LIns *V = unboxGuarded(Word, RTy, Pc);
  --VSp;
  push(V, RTy);
}

void TraceRecorder::recordSetProp(uint32_t Pc) {
  String *Name = script()->Atoms[script()->u16At(Pc + 1)];
  const PropertyIC &IC = script()->ICs[script()->u16At(Pc + 3)];
  Tracked Val = top(0);
  Tracked Recv = top(1);
  Value RecvV = peekStack(1);
  if (Recv.Ty != TraceType::Object) {
    abort(AbortReason::PropOnPrimitive);
    return;
  }
  if (icSiteMegamorphic(IC, Pc)) {
    // The generic store: Object::setProperty, which also transitions the
    // shape when the property is new. The call kills load CSE, so a later
    // shape guard on this object re-reads the shape.
    ++Ctx.Stats.IcRecorderGeneric;
    LIns *Args[4] = {immQ((int64_t)(intptr_t)&Ctx), Recv.Ins,
                     immQ((int64_t)(intptr_t)Name), boxValue(Val.Ins, Val.Ty)};
    W->insCall(&helperCalls().InitProp, Args, 4);
    VSp -= 2;
    push(Val.Ins, Val.Ty);
    return;
  }
  Object *RO = RecvV.toObject();
  int Slot = RO->slotOf(Name);
  if (Slot < 0) {
    // Adding a property transitions the shape every iteration; the shape
    // guard would never hold. Abort and let blacklisting sort it out.
    abort(AbortReason::PropAddsSlot);
    return;
  }
  icShapeGuard(IC, RO, Recv.Ins, (uint32_t)Slot, Pc);
  LIns *Slots = W->insLoad(LOp::LdQ, Recv.Ins, Object::namedSlotsOffset(),
                           Acc::Header);
  LIns *Boxed = boxValue(Val.Ins, Val.Ty);
  W->insStore(LOp::StQ, Boxed, Slots, Slot * 8, Acc::Slots);
  // obj value -> value
  VSp -= 2;
  push(Val.Ins, Val.Ty);
}

void TraceRecorder::recordGetElem(uint32_t Pc) {
  Tracked Idx = top(0);
  Tracked Recv = top(1);
  Value IdxV = peekStack(0);
  Value RecvV = peekStack(1);

  // Normalize the index to int32 (guarded exactness for doubles).
  LIns *IdxI = nullptr;
  if (Idx.Ty == TraceType::Int) {
    IdxI = Idx.Ins;
  } else if (Idx.Ty == TraceType::Double) {
    IdxI = W->ins1(LOp::D2I, Idx.Ins);
    ExitDescriptor *E = snapshot(ExitKind::Type, Pc);
    W->insGuard(LOp::GuardT,
                W->ins2(LOp::EqD, W->ins1(LOp::I2D, IdxI), Idx.Ins), E);
  } else {
    abort(AbortReason::NonNumericIndex);
    return;
  }

  if (Recv.Ty == TraceType::String) {
    String *S = RecvV.toString();
    double D = Interpreter::toNumber(IdxV);
    bool InBounds = D >= 0 && D < S->length() && D == std::floor(D);
    LIns *Len = W->insLoad(LOp::LdI, Recv.Ins, String::lengthOffset(),
                           Acc::ReadOnly);
    LIns *InB = W->ins2(LOp::LtUI, IdxI, Len);
    ExitDescriptor *E = snapshot(ExitKind::Branch, Pc);
    if (!InBounds) {
      W->insGuard(LOp::GuardF, InB, E);
      VSp -= 2;
      push(nullptr, TraceType::Undefined);
      return;
    }
    W->insGuard(LOp::GuardT, InB, E);
    LIns *Args[3] = {immQ((int64_t)(intptr_t)&Ctx), Recv.Ins, IdxI};
    LIns *R = W->insCall(&helperCalls().CharAt, Args, 3);
    VSp -= 2;
    push(R, TraceType::String);
    return;
  }

  if (Recv.Ty != TraceType::Object || !RecvV.toObject()->isArray()) {
    abort(AbortReason::ElemOnNonArray);
    return;
  }
  Object *RO = RecvV.toObject();
  guardIsArray(Recv.Ins, Pc);

  double D = Interpreter::toNumber(IdxV);
  bool InCapacity = D >= 0 && D < RO->elementsCapacity() && D == std::floor(D);
  LIns *Cap = W->insLoad(LOp::LdI, Recv.Ins, Object::elemCapacityOffset(),
                         Acc::Header);
  LIns *InB = W->ins2(LOp::LtUI, IdxI, Cap);
  ExitDescriptor *E = snapshot(ExitKind::Branch, Pc);
  if (!InCapacity) {
    // Reading a hole beyond the dense storage: undefined.
    W->insGuard(LOp::GuardF, InB, E);
    VSp -= 2;
    push(nullptr, TraceType::Undefined);
    return;
  }
  W->insGuard(LOp::GuardT, InB, E);
  LIns *Data = W->insLoad(LOp::LdQ, Recv.Ins, Object::elemDataOffset(),
                          Acc::Header);
  LIns *Addr = W->ins2(
      LOp::AddQ, Data, W->ins2(LOp::ShlQ, W->ins1(LOp::UI2Q, IdxI), immI(3)));
  LIns *Word = W->insLoad(LOp::LdQ, Addr, 0, Acc::Elems);
  TraceType ETy = traceTypeOf(RO->getElement((uint32_t)D));
  LIns *V = unboxGuarded(Word, ETy, Pc);
  VSp -= 2;
  push(V, ETy);
}

void TraceRecorder::recordSetElem(uint32_t Pc) {
  Tracked Val = top(0);
  Tracked Idx = top(1);
  Tracked Recv = top(2);
  Value IdxV = peekStack(1);
  Value RecvV = peekStack(2);

  if (Recv.Ty != TraceType::Object || !RecvV.toObject()->isArray()) {
    abort(AbortReason::ElemOnNonArray);
    return;
  }
  Object *RO = RecvV.toObject();

  LIns *IdxI = nullptr;
  if (Idx.Ty == TraceType::Int) {
    IdxI = Idx.Ins;
  } else if (Idx.Ty == TraceType::Double) {
    IdxI = W->ins1(LOp::D2I, Idx.Ins);
    ExitDescriptor *E = snapshot(ExitKind::Type, Pc);
    W->insGuard(LOp::GuardT,
                W->ins2(LOp::EqD, W->ins1(LOp::I2D, IdxI), Idx.Ins), E);
  } else {
    abort(AbortReason::NonNumericIndex);
    return;
  }

  guardIsArray(Recv.Ins, Pc);

  double D = Interpreter::toNumber(IdxV);
  bool InLen = D >= 0 && D < RO->arrayLength() && D == std::floor(D);

  if (Val.Ty == TraceType::Double) {
    // Doubles always go through the helper (it boxes a fresh double cell,
    // the same allocation the interpreter would perform).
    LIns *Args[4] = {immQ((int64_t)(intptr_t)&Ctx), Recv.Ins, IdxI, Val.Ins};
    LIns *Ok = W->insCall(&helperCalls().ArraySetD, Args, 4);
    ExitDescriptor *E = snapshot(ExitKind::Branch, Pc);
    W->insGuard(LOp::GuardT, Ok, E);
  } else if (InLen) {
    // In-bounds store: "js_Array_set" fast path as direct stores (Fig. 3's
    // slow path is the call below).
    LIns *Len = W->insLoad(LOp::LdI, Recv.Ins, Object::arrayLenOffset(),
                           Acc::Header);
    ExitDescriptor *E = snapshot(ExitKind::Branch, Pc);
    W->insGuard(LOp::GuardT, W->ins2(LOp::LtUI, IdxI, Len), E);
    LIns *Data = W->insLoad(LOp::LdQ, Recv.Ins, Object::elemDataOffset(),
                            Acc::Header);
    LIns *Addr = W->ins2(
        LOp::AddQ, Data,
        W->ins2(LOp::ShlQ, W->ins1(LOp::UI2Q, IdxI), immI(3)));
    W->insStore(LOp::StQ, boxValue(Val.Ins, Val.Ty), Addr, 0, Acc::Elems);
  } else {
    // Appending/growing store: call the runtime (paper Fig. 3).
    LIns *Args[4] = {immQ((int64_t)(intptr_t)&Ctx), Recv.Ins, IdxI,
                     boxValue(Val.Ins, Val.Ty)};
    LIns *Ok = W->insCall(&helperCalls().ArraySetV, Args, 4);
    ExitDescriptor *E = snapshot(ExitKind::Branch, Pc);
    W->insGuard(LOp::GuardT, Ok, E);
  }

  // obj idx value -> value
  VSp -= 3;
  push(Val.Ins, Val.Ty);
}

// --- Calls ------------------------------------------------------------------------------------------

bool TraceRecorder::recordTraceableNative(Object *Callee, uint32_t ArgC,
                                          uint32_t Pc) {
  const TraceableNative *TN = lookupTraceableNative(Callee->native());
  if (!TN)
    return false;
  const CallInfo *CI = Monitor.mathCallInfo(Callee->native());

  uint32_t Expected = TN->Sig == TraceableSig::D_DD  ? 2
                      : TN->Sig == TraceableSig::D_D ? 1
                                                     : 0;
  if (ArgC != Expected)
    return false;

  LIns *Args[2] = {nullptr, nullptr};
  for (uint32_t K = 0; K < Expected; ++K) {
    Tracked AK = top(Expected - 1 - K);
    if (!isNumericType(AK.Ty))
      return false;
    Args[K] = promoteToD(AK);
  }
  LIns *CtxArg = immQ((int64_t)(intptr_t)&Ctx);
  LIns *R;
  if (TN->Sig == TraceableSig::D_CTX) {
    LIns *A1[1] = {CtxArg};
    R = W->insCall(CI, A1, 1);
  } else {
    R = W->insCall(CI, Args, Expected);
  }
  VSp -= ArgC + 1;
  push(R, TraceType::Double);
  (void)Pc;
  return true;
}

void TraceRecorder::recordScriptedCall(Object *Callee, uint32_t ArgC,
                                       uint32_t ReturnPc, uint32_t Pc) {
  FunctionScript *S = Callee->script();
  // Recursion is not traced (matches TraceMonkey's published behavior).
  for (const RecFrame &Fr : VFrames) {
    if (Fr.Script == S) {
      abort(AbortReason::RecursiveCall);
      return;
    }
  }

  // Mirror Interpreter::pushFrameForCall exactly.
  while (ArgC < S->Arity) {
    push(nullptr, TraceType::Undefined);
    ++ArgC;
  }
  while (ArgC > S->Arity) {
    --VSp;
    --ArgC;
  }
  uint32_t Base = VSp - ArgC;
  for (uint32_t K = S->Arity; K < S->NumLocals; ++K)
    writeSlot(slotOfStack(Base + K), nullptr, TraceType::Undefined);
  // The return pc is static on this trace: exits carry it in their frame
  // chain, so nothing is stored at run time (see recordTreeCall).
  VFrames.push_back({S, Base, ReturnPc});
  VSp = Base + S->NumLocals;
  noteSlot(numGlobals() + VSp);
  (void)Pc;
}

void TraceRecorder::recordCall(uint32_t Pc) {
  uint32_t ArgC = script()->Code[Pc + 1];
  Tracked Callee = readStack(VSp - ArgC - 1);
  Value CalleeV = peekStack(ArgC);

  if (Callee.Ty != TraceType::Object || !CalleeV.isObject() ||
      !CalleeV.toObject()->isFunction()) {
    abort(AbortReason::CallOfNonFunction);
    return;
  }
  Object *FO = CalleeV.toObject();

  // Guard callee identity: one pointer compare covers both the type and
  // the target ("the recorder must also emit LIR to guard that the
  // function is the same", §3.1).
  ExitDescriptor *E = snapshot(ExitKind::Type, Pc);
  LIns *Pinned = immQ((int64_t)CalleeV.bits());
  W->insGuard(LOp::GuardT, W->ins2(LOp::EqQ, Callee.Ins, Pinned), E);
  F->EmbeddedRoots.push_back(CalleeV);

  if (FO->native()) {
    if (!recordTraceableNative(FO, ArgC, Pc))
      abort(AbortReason::UntraceableNative);
    return;
  }
  // Past the guard the callee is a constant: later exits restore it from
  // their descriptors, so its slot needs no store on their behalf.
  writeSlot(slotOfStack(VSp - ArgC - 1), Pinned, TraceType::Object);
  recordScriptedCall(FO, ArgC, Pc + 2, Pc);
}

void TraceRecorder::recordCallProp(uint32_t Pc) {
  String *Name = script()->Atoms[script()->u16At(Pc + 1)];
  uint32_t ArgC = script()->Code[Pc + 3];
  Tracked Recv = readStack(VSp - ArgC - 1);
  Value RecvV = peekStack(ArgC);

  if (Recv.Ty == TraceType::String) {
    if (Name->view() == "charCodeAt" && ArgC == 1) {
      Tracked Idx = top(0);
      Value IdxV = peekStack(0);
      LIns *IdxI;
      if (Idx.Ty == TraceType::Int) {
        IdxI = Idx.Ins;
      } else if (Idx.Ty == TraceType::Double) {
        IdxI = W->ins1(LOp::D2I, Idx.Ins);
        ExitDescriptor *E = snapshot(ExitKind::Type, Pc);
        W->insGuard(LOp::GuardT,
                    W->ins2(LOp::EqD, W->ins1(LOp::I2D, IdxI), Idx.Ins), E);
      } else {
        abort(AbortReason::UntraceableNative);
        return;
      }
      double D = Interpreter::toNumber(IdxV);
      String *S = RecvV.toString();
      if (!(D >= 0 && D < S->length())) {
        abort(AbortReason::UntraceableNative);
        return;
      }
      LIns *Len = W->insLoad(LOp::LdI, Recv.Ins, String::lengthOffset(),
                             Acc::ReadOnly);
      ExitDescriptor *E = snapshot(ExitKind::Branch, Pc);
      W->insGuard(LOp::GuardT, W->ins2(LOp::LtUI, IdxI, Len), E);
      LIns *Addr = W->ins2(LOp::AddQ, Recv.Ins, W->ins1(LOp::UI2Q, IdxI));
      LIns *Byte = W->insLoad(LOp::LdUB, Addr, String::dataOffset(),
                              Acc::ReadOnly);
      VSp -= 2;
      push(Byte, TraceType::Int);
      return;
    }
    if (Name->view() == "charAt" && ArgC == 1 &&
        top(0).Ty == TraceType::Int) {
      Tracked Idx = top(0);
      LIns *Args[3] = {immQ((int64_t)(intptr_t)&Ctx), Recv.Ins, Idx.Ins};
      LIns *R = W->insCall(&helperCalls().CharAt, Args, 3);
      VSp -= 2;
      push(R, TraceType::String);
      return;
    }
    abort(AbortReason::UntraceableNative);
    return;
  }

  if (Recv.Ty == TraceType::Object && RecvV.toObject()->isArray()) {
    Object *RO = RecvV.toObject();
    (void)RO;
    if (Name->view() == "push" && ArgC == 1) {
      guardIsArray(Recv.Ins, Pc);
      Tracked Arg = top(0);
      LIns *Args[3] = {immQ((int64_t)(intptr_t)&Ctx), Recv.Ins,
                       boxValue(Arg.Ins, Arg.Ty)};
      LIns *R = W->insCall(&helperCalls().ArrayPushV, Args, 3);
      VSp -= 2;
      push(R, TraceType::Int);
      return;
    }
    abort(AbortReason::UntraceableNative);
    return;
  }

  if (Recv.Ty == TraceType::Object) {
    Object *RO = RecvV.toObject();
    Value Method = RO->getProperty(Name);
    if (!Method.isObject() || !Method.toObject()->isFunction()) {
      abort(AbortReason::CallOfNonFunction);
      return;
    }
    Object *FO = Method.toObject();
    // Shape guard + slot load + identity guard on the method value.
    int Slot = RO->slotOf(Name);
    guardShape(Recv.Ins, RO->shape(), Pc);
    LIns *Slots = W->insLoad(LOp::LdQ, Recv.Ins, Object::namedSlotsOffset(),
                             Acc::Header);
    LIns *Word = W->insLoad(LOp::LdQ, Slots, Slot * 8, Acc::Slots);
    ExitDescriptor *E = snapshot(ExitKind::Type, Pc);
    LIns *Pinned = immQ((int64_t)Method.bits());
    W->insGuard(LOp::GuardT, W->ins2(LOp::EqQ, Word, Pinned), E);
    F->EmbeddedRoots.push_back(Method);

    if (FO->native()) {
      if (!recordTraceableNative(FO, ArgC, Pc))
        abort(AbortReason::UntraceableNative);
      return;
    }
    // The interpreter overwrites the receiver slot with the callee, which
    // the guard pinned to a constant.
    writeSlot(slotOfStack(VSp - ArgC - 1), Pinned, TraceType::Object);
    recordScriptedCall(FO, ArgC, Pc + 4, Pc);
    return;
  }

  abort(AbortReason::UnsupportedReceiver);
}

void TraceRecorder::recordReturn(Op O, uint32_t Pc) {
  if (VFrames.size() <= EntryFrameDepth) {
    abort(AbortReason::ReturnBelowEntryFrame);
    return;
  }
  Tracked R{nullptr, TraceType::Undefined};
  if (O == Op::Return) {
    R = top();
    --VSp;
  }
  RecFrame Done = VFrames.back();
  VFrames.pop_back();
  VSp = Done.Base - 1;
  push(R.Ins, R.Ty);
  (void)Pc;
}

// --- Tree calls (§4.1) ------------------------------------------------------------------------------

void TraceRecorder::recordTreeCall(Fragment *Inner, ExitDescriptor *Taken) {
  ExitDescriptor *Mismatch = snapshot(ExitKind::Nested, Inner->AnchorPc);
  // The inner tree's entry depth is this trace's current depth, so its
  // exits read the return pcs of every frame this trace inlined from the
  // call-stack area: publish them, the only place a trace stores them.
  for (size_t D = EntryFrameDepth; D < VFrames.size(); ++D)
    W->insStore(LOp::StI, immI((int32_t)VFrames[D].ReturnPc),
                immQ((int64_t)(intptr_t)&Ctx.FrameReturnPcs[D]), 0, Acc::Vm);
  Mismatch->Callee = Inner;
  W->insTreeCall(Inner, Taken, Mismatch);
  ++Ctx.Stats.TreeCalls;
  if (Ctx.EventListener) {
    JitEvent E;
    E.Kind = JitEventKind::TreeCall;
    E.FragmentId = Inner->Id;
    E.ScriptId = Inner->AnchorScript ? Inner->AnchorScript->Id : ~0u;
    E.Pc = Inner->AnchorPc;
    E.Arg0 = F->Id;
    Ctx.emitEvent(E);
  }

  // The inner tree rewrote the TAR; drop all cached knowledge and adopt
  // the exit state it returned through.
  // Frames live before the call keep this trace's return pcs: the inner
  // tree recorded its lower frames from whatever call site it was built
  // at, and only restores those from the call-stack area.
  Tracker.clear();
  VFrames.resize(std::min(VFrames.size(), Taken->Frames.size()));
  for (size_t D = VFrames.size(); D < Taken->Frames.size(); ++D) {
    const FrameEntry &Fr = Taken->Frames[D];
    VFrames.push_back({Fr.Script, Fr.Base, Fr.ReturnPc});
  }
  VSp = Taken->Sp;
  FallbackTypes = Taken->Types.Types;
  // A slot the inner tree leaves Boxed but cannot reach kept its call-site
  // state (coerceTo): its TAR word, its constant, or its entry value.
  const TypeMap &Site = Mismatch->Types;
  const TypeMap &In = Inner->EntryTypes;
  for (uint32_t S = 0; S < Site.size() && S < FallbackTypes.size(); ++S)
    if (!In.typed(S) && Site.typed(S))
      FallbackTypes[S] = Site.Types[S];
  for (const ExitConstSlot &C : Mismatch->ConstSlots)
    if (!In.typed(C.Slot))
      importConst(C, Site.Types[C.Slot]);
  importExitConsts(Taken);
  if (Inner->RequiredTarSlots > MaxSlot)
    MaxSlot = Inner->RequiredTarSlots;
  noteSlot(numGlobals() + VSp);
  verifyFailed(); // a bad stitch point aborts before recording continues
}

bool TraceRecorder::framesMatch(const std::vector<FrameEntry> &Entry) const {
  return tracejit::framesMatch(Entry, VFrames);
}

bool TraceRecorder::canCoerceTo(const TypeMap &Entry) {
  uint32_t N = numGlobals() + VSp;
  if (Entry.size() != N || Entry.NumGlobals != numGlobals())
    return false;
  for (uint32_t S = 0; S < N; ++S) {
    TraceType Want = Entry.Types[S];
    if (Want == TraceType::Boxed)
      continue; // any value boxes
    TraceType Have = valueTypeOf(S);
    if (Have != Want &&
        !(Have == TraceType::Int && Want == TraceType::Double))
      return false;
  }
  return true;
}

void TraceRecorder::coerceTo(const TypeMap &Entry, uint32_t Pc,
                             const Fragment *Callee) {
  ExitPc = Pc;
  std::vector<uint8_t> Reach;
  if (Callee) {
    // closeLoop dropped the locals dead at its own header; a tree call
    // drops those dead at the inner tree's.
    dropDeadLocals(*Callee);
    Reach = reachableSlots(Callee);
  }
  for (uint32_t S = 0; S < Entry.size(); ++S) {
    TraceType Want = Entry.Types[S];
    if (Want == TraceType::Boxed) {
      if (!Callee || Reach[S])
        flushSlot(S);
      continue;
    }
    if (!Tracker.count(S) && S < FallbackTypes.size() &&
        FallbackTypes[S] == Want) {
      // Already in the TAR with the wanted type.
      if (isOpen(S)) {
        EntryRead[S] = 1;
        closeOpen(S);
      }
      continue;
    }
    Tracked V = readSlot(S);
    if (V.Ty == TraceType::Int && Want == TraceType::Double)
      writeSlot(S, W->ins1(LOp::I2D, V.Ins), TraceType::Double);
    else if (!V.InTar)
      writeSlot(S, V.Ins, V.Ty);
  }
}

std::vector<uint8_t>
TraceRecorder::reachableSlots(const Fragment *Tree) const {
  // The tree is anchored in the top frame: a trace never returns below its
  // entry frame, so slots of the frames under it are out of reach, and so
  // are the top frame's locals its loop never names.
  uint32_t NG = numGlobals(), Base = VFrames.back().Base;
  std::vector<uint8_t> Reach(NG + VSp, 0);
  if (markLoopSlots(Tree->AnchorScript, Tree->Loop, NG, Base, Reach))
    std::fill(Reach.begin(), Reach.begin() + NG, 1); // a callee names any
  // An operand below the loop's stack: stay conservative.
  for (uint32_t I = Base + Tree->AnchorScript->NumLocals; I < VSp; ++I)
    Reach[NG + I] = 1;
  return Reach;
}

// --- Loop closing -----------------------------------------------------------------------------------

bool TraceRecorder::closeLoop(const std::vector<Fragment *> &Peers) {
  if (St != Status::Recording)
    return false;
  Fragment *Root = RecMode == Mode::Root ? F : F->Root;
  // Locals dead at the header are dropped, not boxed: no path from there
  // reads them before writing them, so the interpreter's stale copies are
  // never observed, and a dead double costs no BoxDouble call. The drop
  // comes before the preempt guard, whose exit resumes at the header too:
  // then no exit there and no back edge or JmpFrag reads them, and the
  // dead-store filter deletes the stores only those kept alive.
  dropDeadLocals(*Root);

  // Preempt/GC guard at the loop edge (§6.4).
  if (Ctx.Opts.EnablePreemptGuard) {
    LIns *Flag = W->insLoad(
        LOp::LdI, immQ((int64_t)(intptr_t)&Ctx.PreemptFlag), 0, Acc::Vm);
    ExitDescriptor *E = snapshot(ExitKind::Preempt,
                                 RecMode == Mode::Root ? F->AnchorPc
                                                       : F->Root->AnchorPc);
    W->insGuard(LOp::GuardT, W->ins2(LOp::EqI, Flag, immI(0)), E);
  }

  TypeMap Now = currentTypeMap();
  uint32_t Pc = Root->AnchorPc;
  TypeMap Entry;
  if (RecMode == Mode::Root) {
    Entry = rootEntryMap();
    // A slot still open at its entry value is Boxed: it stays with the
    // interpreter across the back edge.
    for (uint32_t S = 0; S < Entry.size(); ++S)
      if (isOpen(S))
        Now.Types[S] = TraceType::Boxed;
  }

  bool SelfLoop = RecMode == Mode::Root;
  if (SelfLoop && Now == Entry) {
    // Type-stable: close the loop onto ourselves.
    W->insLoop();
  } else if (SelfLoop && canCoerceTo(Entry)) {
    // Close onto ourselves by promoting Int slots to the Double our own
    // entry map (typically oracle-demoted) expects, re-importing slots a
    // tree call left with the interpreter, and boxing back slots the entry
    // map leaves Boxed.
    coerceTo(Entry, Pc);
    W->insLoop();
  } else {
    SelfLoop = false;
    // Look for a peer whose entry types match ours (Fig. 6: connect the
    // loop edges of complementary type-unstable traces). Int slots may be
    // promoted to Double to reach a peer.
    Fragment *Match = nullptr;
    for (Fragment *P : Peers) {
      if (P->EntryTypes == Now && framesMatch(P->EntryFrames)) {
        Match = P;
        break;
      }
    }
    if (!Match && RecMode == Mode::Branch && Root->EntryTypes == Now &&
        framesMatch(Root->EntryFrames))
      Match = Root;
    if (!Match) {
      for (Fragment *P : Peers) {
        if (!P->Body.empty() && canCoerceTo(P->EntryTypes) &&
            framesMatch(P->EntryFrames)) {
          Match = P;
          break;
        }
      }
      if (Match)
        coerceTo(Match->EntryTypes, Pc);
    }
    if (Match) {
      W->insJmpFrag(Match);
    } else {
      // Note integer mis-speculations in the oracle (§3.2) so the next
      // recording starts type-stable.
      const TypeMap &Ref = Root->EntryTypes;
      for (uint32_t S = 0; S < Now.size() && S < Ref.size(); ++S) {
        if (Now.Types[S] == TraceType::Double &&
            Ref.Types[S] == TraceType::Int) {
          std::vector<FrameEntry> Frames;
          for (const RecFrame &Fr : VFrames)
            Frames.push_back({Fr.Script, Fr.Base, Fr.ReturnPc});
          uint64_t Key = Monitor.oracleKeyForSlot(S, Frames);
          if (Key) {
            Monitor.oracle().markDemote(Key);
            ++Ctx.Stats.OracleDemotions;
          }
        }
      }
      W->insExit(snapshot(ExitKind::Unstable, Pc));
    }
  }

  if (verifyFailed())
    return false;
  finish();
  assert((!SelfLoop || F->EntryTypes == Entry) &&
         "a self-loop closes onto the entry map it was checked against");
  return true;
}

void TraceRecorder::finish() {
  if (RecMode == Mode::Root)
    finishRootEntry();
  F->Body = std::move(Buffer->instructions());
  F->LirRecorded = (uint32_t)F->Body.size();
  F->RequiredTarSlots = MaxSlot + 8;
  St = Status::Finished;
}

bool TraceRecorder::endIfLeftLoop(uint32_t Pc) {
  // Leaving the traced loop at the entry frame level ends the trace with a
  // plain exit to the monitor ("the VM simply ends the trace with an exit
  // to the trace monitor", §3.2) -- also when the next op is another
  // loop's header, so a tree's fragments run only its own loop's code (and
  // callees in deeper frames).
  Fragment *Root = RecMode == Mode::Root ? F : F->Root;
  if (VFrames.size() != EntryFrameDepth || script() != Root->AnchorScript ||
      !Loop || (Pc >= Loop->HeaderPc && Pc < Loop->EndPc))
    return false;
  if (LeftAtLoopTest && Loop->State &&
      TierPolicy::discardsExitOnly(Loop->State->Tier)) {
    // Recording began at the crossing where the loop ends. Such a trunk
    // only exits, and the body would grow as a branch off it, so the next
    // crossing records again; the policy bounds how often.
    abort(AbortReason::ExitOnlyCrossing);
    return true;
  }
  W->insExit(snapshot(ExitKind::LoopExit, Pc));
  if (!verifyFailed())
    finish();
  return true;
}

// --- Main dispatch ------------------------------------------------------------------------------------

/// Abort recording beyond this many recorded bytecodes (or four times as
/// many LIR instructions). Together with MaxFrames (the recorder only
/// inlines frames the interpreter pushed) this is also what bounds how deep
/// a trace inlines calls.
static constexpr uint32_t MaxTraceLength = 16384;

void TraceRecorder::recordOp(uint32_t Pc) {
  if (St != Status::Recording)
    return;

  // The previous bytecode's emissions (or the entry instrumentation) may
  // have tripped the streaming verifier; stop before recording on top of a
  // malformed trace.
  if (verifyFailed())
    return;

  assert(VSp == Interp.stackTop() && "recorder out of sync with interpreter");
  assert(VFrames.size() == Interp.frames().size());
  ExitPc = Pc;

  if (++OpsRecorded > MaxTraceLength ||
      Buffer->size() > MaxTraceLength * 4) {
    abort(AbortReason::TraceTooLong);
    return;
  }

  FunctionScript *S = script();
  Op O = S->opAt(Pc);

  if (endIfLeftLoop(Pc))
    return;

  ++F->BytecodesCovered;

  switch (O) {
  case Op::Nop:
  case Op::Nop3:
    return;
  case Op::LoopHeader:
    assert(false && "loop headers are handled by the monitor");
    return;

  case Op::PushConst: {
    Value V = S->Consts[S->u16At(Pc + 1)];
    if (V.isInt()) {
      push(immI(V.toInt()), TraceType::Int);
    } else if (V.isDoubleCell()) {
      push(immD(V.toDoubleCell()->Val), TraceType::Double);
    } else if (V.isString()) {
      push(immQ((int64_t)(intptr_t)V.toString()), TraceType::String);
      F->EmbeddedRoots.push_back(V);
    } else if (V.isBoolean()) {
      push(immI(V.toBoolean() ? 1 : 0), TraceType::Boolean);
    } else if (V.isNull()) {
      push(nullptr, TraceType::Null);
    } else {
      push(nullptr, TraceType::Undefined);
    }
    return;
  }
  case Op::PushUndefined:
    push(nullptr, TraceType::Undefined);
    return;
  case Op::Pop:
    --VSp;
    return;
  case Op::PopResult:
    // Emitted only for top-level statements, which sit outside any loop;
    // a trace should never reach one. Bail rather than lose the result.
    abort(AbortReason::UnsupportedBytecode);
    return;
  case Op::Dup: {
    Tracked T = top();
    push(T.Ins, T.Ty);
    return;
  }
  case Op::Dup2: {
    Tracked A = top(1), B = top(0);
    push(A.Ins, A.Ty);
    push(B.Ins, B.Ty);
    return;
  }

  case Op::GetLocal: {
    uint32_t SlotIdx = slotOfStack(VFrames.back().Base + S->u16At(Pc + 1));
    Tracked V = readSlot(SlotIdx);
    push(V.Ins, V.Ty);
    return;
  }
  case Op::SetLocal: {
    Tracked V = top();
    writeSlot(slotOfStack(VFrames.back().Base + S->u16At(Pc + 1)), V.Ins,
              V.Ty);
    return;
  }
  case Op::GetGlobal: {
    Tracked V = readSlot(slotOfGlobal(S->u16At(Pc + 1)));
    push(V.Ins, V.Ty);
    return;
  }
  case Op::SetGlobal: {
    Tracked V = top();
    writeSlot(slotOfGlobal(S->u16At(Pc + 1)), V.Ins, V.Ty);
    return;
  }

  case Op::GetProp:
    recordGetProp(Pc);
    return;
  case Op::SetProp:
    recordSetProp(Pc);
    return;
  case Op::InitProp: {
    Tracked V = top(0);
    Tracked O2 = top(1);
    if (O2.Ty != TraceType::Object) {
      abort(AbortReason::InitPropOnNonObject);
      return;
    }
    String *Name = S->Atoms[S->u16At(Pc + 1)];
    LIns *Args[4] = {immQ((int64_t)(intptr_t)&Ctx), O2.Ins,
                     immQ((int64_t)(intptr_t)Name), boxValue(V.Ins, V.Ty)};
    W->insCall(&helperCalls().InitProp, Args, 4);
    --VSp;
    return;
  }
  case Op::GetElem:
    recordGetElem(Pc);
    return;
  case Op::SetElem:
    recordSetElem(Pc);
    return;

  case Op::Add:
  case Op::Sub:
  case Op::Mul:
  case Op::Div:
  case Op::Mod:
  case Op::Neg:
    recordArith(O, Pc);
    return;

  case Op::BitAnd:
  case Op::BitOr:
  case Op::BitXor:
  case Op::Shl:
  case Op::Shr:
  case Op::Ushr:
  case Op::BitNot:
    recordBitop(O, Pc);
    return;

  case Op::Lt:
  case Op::Le:
  case Op::Gt:
  case Op::Ge:
  case Op::Eq:
  case Op::Ne:
  case Op::StrictEq:
  case Op::StrictNe:
    recordCompare(O, Pc);
    return;

  case Op::LogicalNot: {
    Tracked V = top();
    LIns *T = truthyIns(V);
    --VSp;
    push(W->ins2(LOp::XorI, T, immI(1)), TraceType::Boolean);
    return;
  }

  case Op::Jump:
    return;
  case Op::JumpIfFalse:
  case Op::JumpIfTrue:
    recordBranch(O, Pc);
    return;

  case Op::Call:
    recordCall(Pc);
    return;
  case Op::CallProp:
    recordCallProp(Pc);
    return;

  case Op::Return:
  case Op::ReturnUndefined:
    recordReturn(O, Pc);
    return;

  case Op::NewArray: {
    uint16_t N = S->u16At(Pc + 1);
    LIns *Args[2] = {immQ((int64_t)(intptr_t)&Ctx), immI(N)};
    LIns *Arr = W->insCall(&helperCalls().NewArray, Args, 2);
    for (uint16_t K = 0; K < N; ++K) {
      Tracked EV = top(N - 1 - K);
      LIns *SetArgs[4] = {immQ((int64_t)(intptr_t)&Ctx), Arr, immI(K),
                          boxValue(EV.Ins, EV.Ty)};
      W->insCall(&helperCalls().ArraySetV, SetArgs, 4);
    }
    VSp -= N;
    push(Arr, TraceType::Object);
    return;
  }
  case Op::NewObject: {
    LIns *Args[1] = {immQ((int64_t)(intptr_t)&Ctx)};
    LIns *Obj = W->insCall(&helperCalls().NewObject, Args, 1);
    push(Obj, TraceType::Object);
    return;
  }

  case Op::NumOps:
    abort(AbortReason::UnsupportedBytecode);
    return;
  }
}

} // namespace tracejit

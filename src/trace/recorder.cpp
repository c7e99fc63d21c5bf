//===- recorder.cpp - The trace recorder ----------------------------------------===//

#include "trace/recorder.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "interp/natives.h"
#include "trace/helpers.h"
#include "trace/monitor.h"
#include "vm/object.h"
#include "vm/string.h"

namespace tracejit {

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
    Expr = std::make_unique<ExprFilter>(Head);
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

  // Entry-state snapshot for hoisted guards (lir/opt.h): taken before any
  // other LIR exists, so a guard moved into the prologue can fail through
  // it as "we never entered" and the interpreter re-runs the iteration.
  // Only root recordings can gain a prologue, and only when the Hoist pass
  // is on -- keeping -O0/-O1 exit numbering bit-for-bit unchanged.
  if (RecMode == Mode::Root && Ctx.Opts.Passes.has(OptPass::Hoist))
    F->EntryExit = snapshot(ExitKind::Deopt, F->AnchorPc);

  // Figure 11 instrumentation: count one iteration per pass through the
  // fragment entry.
  if (Ctx.Opts.CollectStats) {
    LIns *CtrBase = immQ((int64_t)(intptr_t)&F->Iterations);
    LIns *Ctr = W->insLoad(LOp::LdQ, CtrBase, 0);
    LIns *Inc = W->ins2(LOp::AddQ, Ctr, immQ(1));
    W->insStore(LOp::StQ, Inc, CtrBase, 0);
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

TraceType TraceRecorder::fallbackTypeOf(uint32_t Slot) {
  assert(Slot < FallbackTypes.size() && "read of a never-written slot");
  return FallbackTypes[Slot];
}

LIns *TraceRecorder::ldSlot(TraceType T, uint32_t Slot) {
  int32_t Disp = tarOffsetOfSlot(Slot);
  switch (T) {
  case TraceType::Int:
  case TraceType::Boolean:
    return W->insLoad(LOp::LdI, ParamTar, Disp);
  case TraceType::Double:
    return W->insLoad(LOp::LdD, ParamTar, Disp);
  case TraceType::Object:
  case TraceType::String:
    return W->insLoad(LOp::LdQ, ParamTar, Disp);
  case TraceType::Null:
  case TraceType::Undefined:
    return nullptr;
  }
  return nullptr;
}

void TraceRecorder::stSlot(uint32_t Slot, LIns *V, TraceType T) {
  int32_t Disp = tarOffsetOfSlot(Slot);
  switch (T) {
  case TraceType::Int:
  case TraceType::Boolean:
    W->insStore(LOp::StI, V, ParamTar, Disp);
    return;
  case TraceType::Double:
    W->insStore(LOp::StD, V, ParamTar, Disp);
    return;
  case TraceType::Object:
  case TraceType::String:
    W->insStore(LOp::StQ, V, ParamTar, Disp);
    return;
  case TraceType::Null:
  case TraceType::Undefined:
    return; // the type carries the whole value
  }
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
  // Lazy import: "the trace imports local and global variables by unboxing
  // them and copying them to its activation record" (§3.1) -- the unboxed
  // copy was made by the monitor on entry; here we just load it typed.
  TraceType T = FallbackTypes[Slot];
  Tracked V{ldSlot(T, Slot), T};
  Tracker.emplace(Slot, V);
  return V;
}

void TraceRecorder::writeSlot(uint32_t Slot, LIns *V, TraceType T) {
  noteSlot(Slot + 1);
  stSlot(Slot, V, T);
  Tracker[Slot] = Tracked{V, T};
  if (Slot < numGlobals()) {
    // Null/Undefined writes emit no store but still change the exit's type
    // map, so they count as stores for the monitor's exit write-back.
    std::vector<uint32_t> &Stored = F->StoredGlobals;
    auto It = std::lower_bound(Stored.begin(), Stored.end(), Slot);
    if (It == Stored.end() || *It != Slot)
      Stored.insert(It, Slot);
  }
}

TypeMap TraceRecorder::currentTypeMap() {
  TypeMap M;
  M.NumGlobals = numGlobals();
  uint32_t N = numGlobals() + VSp;
  M.Types.resize(N, TraceType::Undefined);
  for (uint32_t S = 0; S < N; ++S) {
    auto It = Tracker.find(S);
    if (It != Tracker.end())
      M.Types[S] = It->second.Ty;
    else if (S < FallbackTypes.size())
      M.Types[S] = FallbackTypes[S];
  }
  return M;
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
  return E;
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
    return W->insLoad(LOp::LdD, Ptr, DoubleCell::valueOffset());
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
  }
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
  }
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
    LIns *Len = W->insLoad(LOp::LdI, V.Ins, String::lengthOffset());
    return W->ins2(LOp::NeI, Len, immI(0));
  }
  case TraceType::Object:
    return immI(1);
  case TraceType::Null:
  case TraceType::Undefined:
    return immI(0);
  }
  return immI(0);
}

void TraceRecorder::guardShape(LIns *Obj, Shape *S, uint32_t Pc) {
  ExitDescriptor *E = snapshot(ExitKind::Type, Pc);
  LIns *Ld = W->insLoad(LOp::LdQ, Obj, Object::shapeOffset());
  W->insGuard(LOp::GuardT,
              W->ins2(LOp::EqQ, Ld, immQ((int64_t)(intptr_t)S)), E);
}

void TraceRecorder::guardIsArray(LIns *Obj, uint32_t Pc) {
  ExitDescriptor *E = snapshot(ExitKind::Type, Pc);
  LIns *K = W->insLoad(LOp::LdUB, Obj, Object::kindOffset());
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
  LIns *Ld = W->insLoad(LOp::LdQ, Obj, Object::shapeOffset());
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

void TraceRecorder::icShapeGuard(const PropertyIC *IC, Object *RO, LIns *Obj,
                                 uint32_t Slot, uint32_t Pc) {
  if (IC && (IC->State == ICState::Mono || IC->State == ICState::Poly)) {
    Shape *Shapes[PropertyIC::MaxEntries];
    size_t N = 0;
    bool LiveCached = false;
    uint8_t K = (uint8_t)RO->kind();
    for (uint8_t I = 0; I < IC->N; ++I) {
      const ICEntry &E = IC->Entries[I];
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
    if (A.Ty != TraceType::String || B.Ty != TraceType::String) {
      abort(AbortReason::MixedConcat);
      return;
    }
    LIns *Args[3] = {immQ((int64_t)(intptr_t)&Ctx), A.Ins, B.Ins};
    LIns *R = W->insCall(&helperCalls().ConcatSS, Args, 3);
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
    if (IntPath) {
      // Peek the live operands: if this very execution overflows int32,
      // specialize to the double path instead of recording an
      // always-failing overflow guard.
      int64_t X = (int64_t)Interpreter::toNumber(peekStack(1));
      int64_t Y = (int64_t)Interpreter::toNumber(peekStack(0));
      int64_t R = O == Op::Add ? X + Y : O == Op::Sub ? X - Y : X * Y;
      if (R < INT32_MIN || R > INT32_MAX)
        IntPath = false;
    }
    if (IntPath) {
      bool ProvedNoOverflow = false;
      if (Ctx.Opts.StaticAnalysis) {
        // Interval analysis may have proven the int32 result cannot
        // overflow on any execution reaching this pc; then the checked
        // form is pure overhead.
        if (const ScriptAnalysis *SA = Ctx.analysisOf(script()))
          ProvedNoOverflow = SA->NoOverflow.count(Pc) != 0;
      }
      if (ProvedNoOverflow) {
        LOp Plain = O == Op::Add   ? LOp::AddI
                    : O == Op::Sub ? LOp::SubI
                                   : LOp::MulI;
        LIns *R = W->ins2(Plain, A.Ins, B.Ins);
        ++Ctx.Stats.StaticGuardsElided;
        VSp -= 2;
        push(R, TraceType::Int);
        return;
      }
      LOp Ov = O == Op::Add   ? LOp::AddOvI
               : O == Op::Sub ? LOp::SubOvI
                              : LOp::MulOvI;
      ExitDescriptor *E = snapshot(ExitKind::Overflow, Pc);
      LIns *R = W->insOvf(Ov, A.Ins, B.Ins, E);
      VSp -= 2;
      push(R, TraceType::Int);
    } else {
      if (Ctx.Opts.StaticAnalysis) {
        // A NoOverflow fact with a live overflowing execution means the
        // analysis is wrong; surface it rather than silently diverge.
        if (const ScriptAnalysis *SA = Ctx.analysisOf(script()))
          if (isIntLike(A.Ty) && isIntLike(B.Ty) && SA->NoOverflow.count(Pc))
            ++Ctx.Stats.StaticFactContradictions;
      }
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
  // Snapshot before the virtual pop so a failed guard re-executes the
  // branch with the condition still on the interpreter stack.
  Tracked C = top();
  LIns *T = truthyIns(C);
  bool ActualTruthy = peekStack(0).truthy();
  --VSp;
  if (T->Op == LOp::ImmI)
    return; // statically known: no divergence possible
  if (Ctx.Opts.StaticAnalysis) {
    // The abstract interpreter may have proven this branch single-sided
    // over every execution; if so the guard can never fire and is dead
    // weight on the trace.
    if (const ScriptAnalysis *A = Ctx.analysisOf(script())) {
      auto It = A->BranchConst.find(Pc);
      if (It != A->BranchConst.end()) {
        if (It->second == ActualTruthy) {
          ++Ctx.Stats.StaticGuardsElided;
          (void)O;
          return;
        }
        // Fact contradicts the live value: the fact is wrong. Record the
        // guard as usual; the validator counter makes the bug visible.
        ++Ctx.Stats.StaticFactContradictions;
      }
    }
  }
  VSp++; // restore for the snapshot
  ExitDescriptor *E = snapshot(ExitKind::Branch, Pc);
  VSp--;
  // Stay on trace only along the recorded direction.
  W->insGuard(ActualTruthy ? LOp::GuardT : LOp::GuardF, T, E);
  (void)O;
}

// --- Property / element access ------------------------------------------------------------------

void TraceRecorder::recordGetProp(uint32_t Pc) {
  String *Name = script()->Atoms[script()->u16At(Pc + 1)];
  const PropertyIC *IC =
      Ctx.Opts.EnableIC ? &script()->ICs[script()->u16At(Pc + 3)] : nullptr;
  Tracked Recv = top();
  Value RecvV = peekStack(0);

  if (Recv.Ty == TraceType::String) {
    if (Name->view() == "length") {
      LIns *Len = W->insLoad(LOp::LdI, Recv.Ins, String::lengthOffset());
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
    LIns *Len = W->insLoad(LOp::LdI, Recv.Ins, Object::arrayLenOffset());
    --VSp;
    push(Len, TraceType::Int);
    return;
  }

  if (IC && icSiteMegamorphic(*IC, Pc)) {
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
  LIns *Slots = W->insLoad(LOp::LdQ, Recv.Ins, Object::namedSlotsOffset());
  LIns *Word = W->insLoad(LOp::LdQ, Slots, Slot * 8);
  TraceType RTy = traceTypeOf(RO->slotValue((uint32_t)Slot));
  LIns *V = unboxGuarded(Word, RTy, Pc);
  --VSp;
  push(V, RTy);
}

void TraceRecorder::recordSetProp(uint32_t Pc) {
  String *Name = script()->Atoms[script()->u16At(Pc + 1)];
  const PropertyIC *IC =
      Ctx.Opts.EnableIC ? &script()->ICs[script()->u16At(Pc + 3)] : nullptr;
  Tracked Val = top(0);
  Tracked Recv = top(1);
  Value RecvV = peekStack(1);
  if (Recv.Ty != TraceType::Object) {
    abort(AbortReason::PropOnPrimitive);
    return;
  }
  if (IC && icSiteMegamorphic(*IC, Pc)) {
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
  LIns *Slots = W->insLoad(LOp::LdQ, Recv.Ins, Object::namedSlotsOffset());
  LIns *Boxed = boxValue(Val.Ins, Val.Ty);
  W->insStore(LOp::StQ, Boxed, Slots, Slot * 8);
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
    LIns *Len = W->insLoad(LOp::LdI, Recv.Ins, String::lengthOffset());
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
  LIns *Cap = W->insLoad(LOp::LdI, Recv.Ins, Object::elemCapacityOffset());
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
  LIns *Data = W->insLoad(LOp::LdQ, Recv.Ins, Object::elemDataOffset());
  LIns *Addr = W->ins2(
      LOp::AddQ, Data, W->ins2(LOp::ShlQ, W->ins1(LOp::UI2Q, IdxI), immI(3)));
  LIns *Word = W->insLoad(LOp::LdQ, Addr, 0);
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
    LIns *Len = W->insLoad(LOp::LdI, Recv.Ins, Object::arrayLenOffset());
    ExitDescriptor *E = snapshot(ExitKind::Branch, Pc);
    W->insGuard(LOp::GuardT, W->ins2(LOp::LtUI, IdxI, Len), E);
    LIns *Data = W->insLoad(LOp::LdQ, Recv.Ins, Object::elemDataOffset());
    LIns *Addr = W->ins2(
        LOp::AddQ, Data,
        W->ins2(LOp::ShlQ, W->ins1(LOp::UI2Q, IdxI), immI(3)));
    W->insStore(LOp::StQ, boxValue(Val.Ins, Val.Ty), Addr, 0);
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
  if (VFrames.size() - EntryFrameDepth >= Ctx.Opts.MaxInlineDepth) {
    abort(AbortReason::InlineDepthLimit);
    return;
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
  // Record this call site's return pc into the call-stack area: the same
  // tree may later be entered from a different call site, so return pcs
  // must be dynamic, not baked into exit descriptors.
  uint32_t Depth = (uint32_t)VFrames.size();
  W->insStore(LOp::StI, immI((int32_t)ReturnPc),
              immQ((int64_t)(intptr_t)&Ctx.FrameReturnPcs[Depth]), 0);
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
  W->insGuard(LOp::GuardT,
              W->ins2(LOp::EqQ, Callee.Ins,
                      immQ((int64_t)CalleeV.bits())),
              E);
  F->EmbeddedRoots.push_back(CalleeV);

  if (FO->native()) {
    if (!recordTraceableNative(FO, ArgC, Pc))
      abort(AbortReason::UntraceableNative);
    return;
  }
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
      LIns *Len = W->insLoad(LOp::LdI, Recv.Ins, String::lengthOffset());
      ExitDescriptor *E = snapshot(ExitKind::Branch, Pc);
      W->insGuard(LOp::GuardT, W->ins2(LOp::LtUI, IdxI, Len), E);
      LIns *Addr = W->ins2(LOp::AddQ, Recv.Ins, W->ins1(LOp::UI2Q, IdxI));
      LIns *Byte = W->insLoad(LOp::LdUB, Addr, String::dataOffset());
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
    LIns *Slots = W->insLoad(LOp::LdQ, Recv.Ins, Object::namedSlotsOffset());
    LIns *Word = W->insLoad(LOp::LdQ, Slots, Slot * 8);
    ExitDescriptor *E = snapshot(ExitKind::Type, Pc);
    W->insGuard(LOp::GuardT,
                W->ins2(LOp::EqQ, Word, immQ((int64_t)Method.bits())), E);
    F->EmbeddedRoots.push_back(Method);

    if (FO->native()) {
      if (!recordTraceableNative(FO, ArgC, Pc))
        abort(AbortReason::UntraceableNative);
      return;
    }
    // The interpreter overwrites the receiver slot with the callee.
    writeSlot(slotOfStack(VSp - ArgC - 1), Word, TraceType::Object);
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
  W->insTreeCall(Inner, Taken, Mismatch);
  F->CallsTree = true;
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
  Tracker.clear();
  VFrames.clear();
  for (const FrameEntry &Fr : Taken->Frames)
    VFrames.push_back({Fr.Script, Fr.Base, Fr.ReturnPc});
  VSp = Taken->Sp;
  FallbackTypes = Taken->Types.Types;
  if (Inner->RequiredTarSlots > MaxSlot)
    MaxSlot = Inner->RequiredTarSlots;
  noteSlot(numGlobals() + VSp);
  verifyFailed(); // a bad stitch point aborts before recording continues
}

bool TraceRecorder::framesMatch(const std::vector<FrameEntry> &Entry) const {
  if (Entry.size() != VFrames.size())
    return false;
  for (size_t D = 0; D < VFrames.size(); ++D)
    if (Entry[D].Script != VFrames[D].Script ||
        Entry[D].Base != VFrames[D].Base)
      return false;
  return true;
}

bool TraceRecorder::canCoerceTo(const TypeMap &Entry) {
  TypeMap Now = currentTypeMap();
  if (Now.size() != Entry.size() || Now.NumGlobals != Entry.NumGlobals)
    return false;
  for (uint32_t S = 0; S < Now.size(); ++S) {
    if (Now.Types[S] == Entry.Types[S])
      continue;
    if (Now.Types[S] == TraceType::Int &&
        Entry.Types[S] == TraceType::Double)
      continue; // promotable
    return false;
  }
  return true;
}

void TraceRecorder::coerceTo(const TypeMap &Entry) {
  TypeMap Now = currentTypeMap();
  for (uint32_t S = 0; S < Now.size(); ++S) {
    if (Now.Types[S] == TraceType::Int &&
        Entry.Types[S] == TraceType::Double) {
      Tracked V = readSlot(S);
      writeSlot(S, W->ins1(LOp::I2D, V.Ins), TraceType::Double);
    }
  }
}

// --- Loop closing -----------------------------------------------------------------------------------

bool TraceRecorder::closeLoop(const std::vector<Fragment *> &Peers) {
  if (St != Status::Recording)
    return false;

  // Preempt/GC guard at the loop edge (§6.4).
  if (Ctx.Opts.EnablePreemptGuard) {
    LIns *Flag = W->insLoad(
        LOp::LdI, immQ((int64_t)(intptr_t)&Ctx.PreemptFlag), 0);
    ExitDescriptor *E = snapshot(ExitKind::Preempt,
                                 RecMode == Mode::Root ? F->AnchorPc
                                                       : F->Root->AnchorPc);
    W->insGuard(LOp::GuardT, W->ins2(LOp::EqI, Flag, immI(0)), E);
  }

  TypeMap Now = currentTypeMap();
  Fragment *Root = RecMode == Mode::Root ? F : F->Root;

  if (RecMode == Mode::Root && Now == F->EntryTypes) {
    // Type-stable: close the loop onto ourselves.
    W->insLoop();
  } else if (RecMode == Mode::Root && canCoerceTo(F->EntryTypes)) {
    // Close onto ourselves by promoting Int slots to the Double our own
    // entry map (typically oracle-demoted) expects.
    coerceTo(F->EntryTypes);
    W->insLoop();
  } else {
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
        coerceTo(Match->EntryTypes);
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
      ExitDescriptor *E =
          snapshot(ExitKind::Unstable,
                   RecMode == Mode::Root ? F->AnchorPc : Root->AnchorPc);
      W->insExit(E);
    }
  }

  if (verifyFailed())
    return false;
  F->Body = std::move(Buffer->instructions());
  F->LirRecorded = (uint32_t)F->Body.size();
  F->RequiredTarSlots = MaxSlot + 8;
  St = Status::Finished;
  return true;
}

// --- Main dispatch ------------------------------------------------------------------------------------

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

  if (++OpsRecorded > Ctx.Opts.MaxTraceLength ||
      Buffer->size() > Ctx.Opts.MaxTraceLength * 4) {
    abort(AbortReason::TraceTooLong);
    return;
  }

  FunctionScript *S = script();
  Op O = S->opAt(Pc);

  // Leaving the traced loop at the entry frame level ends the trace with a
  // plain exit to the monitor ("the VM simply ends the trace with an exit
  // to the trace monitor", §3.2).
  Fragment *Root = RecMode == Mode::Root ? F : F->Root;
  if (VFrames.size() == EntryFrameDepth && S == Root->AnchorScript && Loop &&
      (Pc < Loop->HeaderPc || Pc >= Loop->EndPc)) {
    ExitDescriptor *E = snapshot(ExitKind::LoopExit, Pc);
    W->insExit(E);
    if (verifyFailed())
      return;
    F->Body = std::move(Buffer->instructions());
    F->LirRecorded = (uint32_t)F->Body.size();
    F->RequiredTarSlots = MaxSlot + 8;
    St = Status::Finished;
    return;
  }

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

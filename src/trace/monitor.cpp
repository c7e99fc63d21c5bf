//===- monitor.cpp - The trace monitor (Fig. 2 state machine) -------------------===//

#include "trace/monitor.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <iterator>

#include "api/engine.h"
#include "interp/natives.h"
#include "jit/executor.h"
#include "lir/opt.h"
#include "lir/verify.h"
#include "trace/helpers.h"

namespace tracejit {

TraceMonitor::TraceMonitor(VMContext &C, Interpreter &I)
    : Ctx(C), Interp(I), Policy(C.Opts) {
  if (Ctx.Opts.JitBackend == Backend::Native) {
    // Off-thread compilation needs the dual-mapped pool so the worker can
    // emit (write view) while this thread runs traces (exec view).
    bool OffThread = Ctx.Opts.OffThreadCompile;
    Native = std::make_unique<NativeBackend>(
        Ctx.Opts.CodeCacheBytes, &Ctx.Opts.FaultInjector, OffThread);
    if (!Native->valid()) {
      // Executable memory is unavailable (hardened kernel, no dual-map
      // support, or injected ExecMapFail): fall back to the LIR executor,
      // loudly.
      Native.reset();
      ++Ctx.Stats.BackendFallbacks;
      if (Ctx.EventListener) {
        JitEvent E;
        E.Kind = JitEventKind::BackendFallback;
        emitEvent(E);
      }
    } else if (OffThread) {
      uint32_t Depth = Ctx.Opts.CompileQueueDepth;
      if (Ctx.Opts.SharedCompileService) {
        Queue = Ctx.Opts.SharedCompileService->createClient(Depth);
      } else {
        OwnService = std::make_unique<CompileService>();
        Queue = OwnService->createClient(Depth);
      }
    }
  }
  // Root everything compiled traces point at (§6: the trace cache keeps
  // its embedded objects alive).
  Ctx.TheHeap.addRootProvider([this](Marker &M) {
    for (auto &F : Fragments)
      for (Value &V : F->EmbeddedRoots)
        M.markValue(V);
  });
}

TraceMonitor::~TraceMonitor() {
  // The client must die before the fragments and the backend a worker
  // compile could still be touching: its destructor pulls queued jobs and
  // waits out an in-flight one. Then the private service (if any) joins
  // its thread. Member destruction order would get this right too; being
  // explicit keeps the invariant visible and independent of declaration
  // shuffles.
  Queue.reset();
  OwnService.reset();
  Ctx.Recording = false; // the recorder dies with the monitor
}

VMStats &TraceMonitor::stats() { return Ctx.Stats; }

void TraceMonitor::emitEvent(const JitEvent &E) { Ctx.emitEvent(E); }

void TraceMonitor::collectFragmentProfiles(
    std::vector<FragmentProfile> &Out) const {
  Out.reserve(Out.size() + Fragments.size());
  for (const auto &F : Fragments) {
    if (F->CompilePending)
      continue; // the worker owns NativeSize/PatchAddrs right now
    FragmentProfile P;
    P.Id = F->Id;
    P.Generation = F->Generation;
    P.IsRoot = F->Kind == FragmentKind::Root;
    P.ScriptId = F->AnchorScript ? F->AnchorScript->Id : ~0u;
    P.AnchorPc = F->AnchorPc;
    P.Enters = F->Enters;
    P.Iterations = F->Iterations;
    P.BytecodesCovered = F->BytecodesCovered;
    P.LirRecorded = F->LirRecorded;
    P.LirAfterFilters = F->LirAfterFilters;
    P.NativeBytes = F->NativeSize;
    P.Guards.reserve(F->Exits.size());
    for (const auto &E : F->Exits) {
      GuardProfile G;
      G.ExitId = E->Id;
      G.ExitKindRaw = (uint8_t)E->Kind;
      G.ExitKindName = exitKindName(E->Kind);
      G.Pc = E->Pc;
      G.Hits = E->Hits;
      G.Stitched = E->Target != nullptr;
      P.Guards.push_back(G);
    }
    Out.push_back(std::move(P));
  }
}

Fragment *TraceMonitor::newFragment(FragmentKind K) {
  auto F = std::make_unique<Fragment>();
  F->Id = NextFragmentId++;
  F->Generation = CacheGeneration;
  F->Kind = K;
  // Per-fragment LIR arena: the buffer travels with the fragment (into a
  // compile job, off to the worker) and dies with it, so no global arena
  // reset can free LIR under an in-flight compile.
  F->LirArena = std::make_unique<Arena>();
  Fragment *P = F.get();
  Fragments.push_back(std::move(F));
  return P;
}

const CallInfo *TraceMonitor::mathCallInfo(NativeFn Boxed) {
  auto It = MathCIs.find(Boxed);
  if (It != MathCIs.end())
    return It->second.get();
  const TraceableNative *TN = lookupTraceableNative(Boxed);
  assert(TN && "not a traceable native");
  const CallInfo *Proto = TN->Sig == TraceableSig::D_D ? &helperCalls().MathD_D
                          : TN->Sig == TraceableSig::D_DD
                              ? &helperCalls().MathD_DD
                              : &helperCalls().MathD_CTX;
  auto CI = std::make_unique<CallInfo>(
      makeMathCallInfo(*Proto, TN->RawFn, TN->Name));
  const CallInfo *P = CI.get();
  MathCIs.emplace(Boxed, std::move(CI));
  return P;
}

LoopState *TraceMonitor::loopState(FunctionScript *S, uint16_t LoopId) {
  LoopRecord &L = S->Loops[LoopId];
  if (!L.State) {
    auto LS = std::make_unique<LoopState>();
    LS->Script = S;
    LS->Loop = &L;
    L.State = LS.get();
    LoopStates.push_back(std::move(LS));
  }
  return L.State;
}

/// Oracle key of value-stack slot \p StackIdx under \p Frames (interpreter
/// frames or recorded FrameEntries), or 0 for an operand-stack temporary.
template <typename FrameT>
static uint64_t stackSlotKey(uint32_t StackIdx,
                             const std::vector<FrameT> &Frames) {
  for (const FrameT &F : Frames)
    if (StackIdx >= F.Base && StackIdx < F.Base + F.Script->NumLocals)
      return Oracle::localKey(F.Script->Id, StackIdx - F.Base);
  return 0;
}

uint64_t TraceMonitor::oracleKeyForSlot(
    uint32_t Slot, const std::vector<FrameEntry> &Frames) {
  uint32_t NG = Ctx.Globals.size();
  if (Slot < NG)
    return Oracle::globalKey(Slot);
  return stackSlotKey(Slot - NG, Frames);
}

// --- Entry type maps and TAR transfer -----------------------------------------------

/// The §3.2 entry-typing rule for one live value: an int reads as Double
/// when the oracle demoted its variable. \p Probe is the oracle to consult,
/// or null when it holds no demotions; \p KeyOf (the variable's oracle
/// key, 0 for an untracked temporary) runs only for probed ints.
template <typename KeyFn>
static TraceType entryTypeOf(const Value &V, const Oracle *Probe,
                             KeyFn KeyOf) {
  TraceType T = traceTypeOf(V);
  if (!Probe || T != TraceType::Int)
    return T;
  uint64_t Key = KeyOf();
  return Key && Probe->isDemoted(Key) ? TraceType::Double : T;
}

const Oracle *TraceMonitor::entryOracle() const {
  return Ctx.Opts.EnableOracle && TheOracle.size() != 0 ? &TheOracle
                                                        : nullptr;
}

TypeMap TraceMonitor::buildEntryTypeMap(uint32_t Sp) {
  TypeMap M;
  uint32_t NG = M.NumGlobals = Ctx.Globals.size();
  M.Types.resize(NG + Sp);
  const Oracle *Probe = entryOracle();
  const std::vector<Frame> &Frames = Interp.frames();
  for (uint32_t G = 0; G < NG; ++G)
    M.Types[G] = entryTypeOf(Ctx.Globals.Values[G], Probe,
                             [G] { return Oracle::globalKey(G); });
  const Value *Stack = Interp.stackData();
  for (uint32_t I = 0; I < Sp; ++I)
    M.Types[NG + I] = entryTypeOf(Stack[I], Probe,
                                  [&] { return stackSlotKey(I, Frames); });
  return M;
}

bool TraceMonitor::framesMatchLive(const std::vector<FrameEntry> &Entry) const {
  const std::vector<Frame> &Frames = Interp.frames();
  if (Entry.size() != Frames.size())
    return false;
  for (size_t D = 0; D < Frames.size(); ++D)
    if (Entry[D].Script != Frames[D].Script || Entry[D].Base != Frames[D].Base)
      return false;
  return true;
}

static uint64_t unboxForTar(const Value &V, TraceType T) {
  switch (T) {
  case TraceType::Int:
    return (uint64_t)(uint32_t)V.toInt();
  case TraceType::Double: {
    double D = V.numberValue(); // int values demoted by the oracle convert
    uint64_t W;
    __builtin_memcpy(&W, &D, 8);
    return W;
  }
  case TraceType::Object:
    return (uint64_t)(uintptr_t)V.toObject();
  case TraceType::String:
    return (uint64_t)(uintptr_t)V.toString();
  case TraceType::Boolean:
    return V.toBoolean() ? 1 : 0;
  case TraceType::Null:
  case TraceType::Undefined:
    return 0;
  }
  return 0;
}

static Value boxFromTar(VMContext &Ctx, uint64_t W, TraceType T) {
  switch (T) {
  case TraceType::Int:
    return Value::makeInt((int32_t)(uint32_t)W);
  case TraceType::Double: {
    double D;
    __builtin_memcpy(&D, &W, 8);
    return Ctx.TheHeap.boxDouble(D);
  }
  case TraceType::Object:
    return Value::makeObject((Object *)(uintptr_t)W);
  case TraceType::String:
    return Value::makeString((String *)(uintptr_t)W);
  case TraceType::Boolean:
    return Value::makeBoolean((W & 0xffffffff) != 0);
  case TraceType::Null:
    return Value::null();
  case TraceType::Undefined:
    return Value::undefined();
  }
  return Value::undefined();
}

/// One slot of the fused match-and-import: true when \p V has entry type
/// \p T under entryTypeOf's rule, with its unboxed TAR word in \p Out.
/// Int, Double and Object -- nearly every slot -- take one tag test against
/// the expected type instead of classifying \p V first.
template <typename KeyFn>
static bool importSlot(const Value &V, TraceType T, const Oracle *Probe,
                       KeyFn KeyOf, uint64_t &Out) {
  auto Demoted = [&] {
    uint64_t Key = KeyOf();
    return Key && Probe->isDemoted(Key);
  };
  switch (T) {
  case TraceType::Int:
    if (!V.isInt() || (Probe && Demoted()))
      return false;
    Out = (uint64_t)(uint32_t)V.toInt();
    return true;
  case TraceType::Double: {
    double D;
    if (V.isDoubleCell())
      D = V.toDoubleCell()->Val;
    else if (V.isInt() && Probe && Demoted())
      D = V.toInt();
    else
      return false;
    __builtin_memcpy(&Out, &D, 8);
    return true;
  }
  case TraceType::Object:
    if (!V.isObject())
      return false;
    Out = (uint64_t)(uintptr_t)V.toObject();
    return true;
  default:
    if (entryTypeOf(V, Probe, KeyOf) != T)
      return false;
    Out = unboxForTar(V, T);
    return true;
  }
}

bool TraceMonitor::importTar(const TypeMap &Types, uint64_t *Tar,
                             bool Match) const {
  const Oracle *Probe = Match ? entryOracle() : nullptr;
  uint32_t NG = Types.NumGlobals;
  for (uint32_t G = 0; G < NG; ++G) {
    const Value &V = Ctx.Globals.Values[G];
    TraceType T = Types.Types[G];
    if (!Match)
      Tar[G] = unboxForTar(V, T);
    else if (!importSlot(V, T, Probe, [G] { return Oracle::globalKey(G); },
                         Tar[G]))
      return false;
  }
  const Value *Stack = Interp.stackData();
  const std::vector<Frame> &Frames = Interp.frames();
  uint32_t Sp = Types.size() - NG;
  for (uint32_t I = 0; I < Sp; ++I) {
    TraceType T = Types.Types[NG + I];
    if (!Match)
      Tar[NG + I] = unboxForTar(Stack[I], T);
    else if (!importSlot(Stack[I], T, Probe,
                         [&] { return stackSlotKey(I, Frames); },
                         Tar[NG + I]))
      return false;
  }
  return true;
}

bool TraceMonitor::matchAndImport(const Fragment &P, uint64_t *Tar) const {
  const TypeMap &Want = P.EntryTypes;
  uint32_t NG = Ctx.Globals.size();
  if (Want.NumGlobals != NG || Want.size() != NG + Interp.stackTop() ||
      !framesMatchLive(P.EntryFrames))
    return false;
  return importTar(Want, Tar, /*Match=*/true);
}

uint64_t *TraceMonitor::entryTar() {
  // Any fragment reachable from the one entered (branches, peers, nested
  // trees) is installed, so every TAR slot it touches is below MaxTarSlots.
  size_t Bytes = (size_t)(MaxTarSlots + 64) * 8;
  if (TarBuffer.size() < Bytes)
    TarBuffer.resize(Bytes);
  return reinterpret_cast<uint64_t *>(TarBuffer.data());
}

void TraceMonitor::restoreFromExit(ExitDescriptor *E, const uint64_t *Tar,
                                   const LoopState *LS) {
  uint32_t NG = E->Types.NumGlobals;

  // "It pops or synthesizes interpreter JavaScript call stack frames as
  // needed. Finally, it copies the imported variables back from the trace
  // activation record to the interpreter state." (§6.1)
  // Scripts and bases are static per descriptor; return pcs come from the
  // dynamic call-stack area so traces entered from different call sites
  // resume at the right place.
  auto &Frames = Interp.frames();
  Frames.clear();
  for (size_t D = 0; D < E->Frames.size(); ++D) {
    const FrameEntry &F = E->Frames[D];
    uint32_t Rp = D == 0 ? F.ReturnPc : Ctx.FrameReturnPcs[D];
    Frames.push_back({F.Script, F.Base, Rp});
  }
  Interp.setStackTop(E->Sp);
  Interp.setCurrentPc(E->Pc);

  if (LS && !LS->StoresAllGlobals) {
    // Only the globals some trace of the loop can store to: each other
    // global still holds exactly the value the trace imported (an unchanged
    // double keeps its cell, a demoted int stays an int).
    for (uint32_t G : LS->StoredGlobals) {
      if (G >= NG)
        break; // recorded by a fragment that saw more globals
      Ctx.Globals.Values[G] = boxFromTar(Ctx, Tar[G], E->Types.Types[G]);
    }
  } else {
    for (uint32_t G = 0; G < NG; ++G)
      Ctx.Globals.Values[G] = boxFromTar(Ctx, Tar[G], E->Types.Types[G]);
  }
  Value *Stack = Interp.stackData();
  for (uint32_t I = 0; I < E->Sp; ++I)
    Stack[I] = boxFromTar(Ctx, Tar[NG + I], E->Types.Types[NG + I]);
}

ExitDescriptor *TraceMonitor::executeFragment(Fragment *Frag,
                                              uint64_t *Tar) {
  bool Stats = Ctx.Opts.CollectStats;
  // Traces call only whitelisted natives, never back into the interpreter,
  // so no fragment can be live here: TarBuffer and the exit state are ours.
  assert(!Ctx.OnTrace && "fragment entered while another is live");

  // Seed the dynamic call-stack area with the live frames' return pcs.
  {
    auto &Frames = Interp.frames();
    for (size_t D = 0; D < Frames.size() && D < Ctx.FrameReturnPcs.size();
         ++D)
      Ctx.FrameReturnPcs[D] = Frames[D].ReturnPc;
  }

  if (Stats)
    Ctx.Stats.switchTo(Activity::Native);
  Ctx.OnTrace = true;
  ExitDescriptor *E;
  if (Frag->NativeEntry && Native) {
    if (Native->ensureExecutable()) {
      E = Native->enter(reinterpret_cast<uint8_t *>(Tar), Frag);
    } else {
      // W^X flip to RX failed: the native code exists but cannot legally
      // run. The LIR body is the reference semantics -- use it.
      ++Ctx.Stats.ProtectFaults;
      E = LirExecutor::run(Frag, reinterpret_cast<uint8_t *>(Tar), &Ctx);
    }
  } else {
    E = LirExecutor::run(Frag, reinterpret_cast<uint8_t *>(Tar), &Ctx);
  }
  Ctx.OnTrace = false;
  if (Stats)
    Ctx.Stats.switchTo(Activity::ExitOverhead);

  ++Ctx.Stats.TraceEnters;
  ++Ctx.Stats.SideExits;
  ++Frag->Enters;
  if (E && E->Kind == ExitKind::Nested) {
    assert(Ctx.LastNestedExit && "nested exit without inner descriptor");
    E = Ctx.LastNestedExit;
    Ctx.LastNestedExit = nullptr;
  }
  assert(E && "fragment returned no exit");
  ++E->Hits;
  if (Frag->EntryExit && E == Frag->EntryExit) {
    // Entry deopt: a hoisted guard in the prologue failed before the first
    // iteration ran. The prologue is side-effect-free, so semantically we
    // never entered -- but re-entering immediately would livelock. Back off
    // for a couple of header hits; retire the tree's entry permanently once
    // the deopt count shows its hoisted assumptions just don't hold here.
    ++Frag->EntryDeopts;
    ++Ctx.Stats.EntryDeopts;
    LoopState *LS = Frag->Loop ? Frag->Loop->State : nullptr;
    Frag->EnterBlockedUntil =
        Frag->EntryDeopts >= Ctx.Opts.EntryDeoptLimit
            ? UINT32_MAX
            : (LS ? LS->HitCount : 0) + 2;
  }
  if (Ctx.EventListener) {
    JitEvent Ev;
    Ev.Kind = JitEventKind::SideExit;
    Ev.FragmentId = E->Parent ? E->Parent->Id : Frag->Id;
    Ev.ScriptId = !E->Frames.empty() && E->Frames.back().Script
                      ? E->Frames.back().Script->Id
                      : ~0u;
    Ev.Pc = E->Pc;
    Ev.ExitId = E->Id;
    Ev.ExitKindRaw = (uint8_t)E->Kind;
    Ev.Arg0 = E->Hits;
    emitEvent(Ev);
  }

  // Trees that call nested trees export every global; so does an exit that
  // did not come from a fragment of Frag's loop.
  const LoopState *LS = Frag->Loop && E->Parent && E->Parent->Loop == Frag->Loop
                            ? Frag->Loop->State
                            : nullptr;
  restoreFromExit(E, Tar, LS);
  if (Stats)
    Ctx.Stats.switchTo(Activity::Monitor);
  return E;
}

// --- Recording lifecycle -----------------------------------------------------------------

void TraceMonitor::startRecording(TraceRecorder::Mode Mode, LoopState *LS,
                                  FunctionScript *Script, uint32_t AnchorPc,
                                  ExitDescriptor *AnchorExit) {
  assert(!Recorder);
  Fragment *F = newFragment(Mode == TraceRecorder::Mode::Root
                                ? FragmentKind::Root
                                : FragmentKind::Branch);
  F->AnchorScript = LS->Script;
  F->AnchorPc = AnchorPc;
  F->Loop = LS->Loop;
  F->EntryTypes =
      AnchorExit ? AnchorExit->Types : buildEntryTypeMap(Interp.stackTop());
  F->EntryFrameCount = (uint32_t)Interp.frames().size();
  for (const Frame &Fr : Interp.frames())
    F->EntryFrames.push_back({Fr.Script, Fr.Base, 0});
  if (Mode == TraceRecorder::Mode::Root) {
    F->Root = F;
  } else {
    F->Root = AnchorExit->Parent->Root;
  }
  setRecorder(std::make_unique<TraceRecorder>(Ctx, Interp, *this, F, Mode,
                                              LS->Loop, AnchorExit));
  RecorderLoopState = LS;
  ++Ctx.Stats.TracesStarted;
  if (Ctx.EventListener) {
    JitEvent E;
    E.Kind = JitEventKind::RecordStart;
    E.FragmentId = F->Id;
    E.ScriptId = LS->Script ? LS->Script->Id : ~0u;
    E.Pc = AnchorPc;
    E.Arg0 = Mode == TraceRecorder::Mode::Root ? 0 : 1;
    emitEvent(E);
  }
  if (Ctx.Opts.CollectStats)
    Ctx.Stats.switchTo(Activity::RecordInterpret);
  (void)Script;
}

void TraceMonitor::abortRecording(AbortReason Why, bool CountsTowardBlacklist) {
  if (!Recorder)
    return;
  ++Ctx.Stats.TracesAborted;
  ++Ctx.Stats.AbortsByReason[(size_t)Why];
  LoopState *LS = RecorderLoopState;
  Fragment *F = Recorder->fragment();
  bool WasBranch = Recorder->mode() == TraceRecorder::Mode::Branch;
  F->Body.clear(); // fragment stays allocated (ids/roots) but is inert
  takeRecorder();
  RecorderLoopState = nullptr;
  if (Ctx.EventListener) {
    JitEvent E;
    E.Kind = JitEventKind::RecordAbort;
    E.Reason = Why;
    E.FragmentId = F->Id;
    E.ScriptId = F->AnchorScript ? F->AnchorScript->Id : ~0u;
    E.Pc = F->AnchorPc;
    emitEvent(E);
  }

  if (WasBranch) {
    // Branch failures are tracked per side exit, not per loop: the tree is
    // already useful and must not be blacklisted wholesale.
    if (RecorderAnchorExit && CountsTowardBlacklist)
      ++RecorderAnchorExit->FailedRecordings;
    RecorderAnchorExit = nullptr;
    if (Ctx.Opts.CollectStats)
      Ctx.Stats.switchTo(Activity::Interpret);
    return;
  }

  // The policy updates the failure/backoff counters and answers whether
  // the loop has hit the §3.3 failure cap.
  if (LS && Policy.onRootAbort(LS->Tier, CountsTowardBlacklist, LS->HitCount))
    blacklist(LS);
  if (Ctx.Opts.CollectStats)
    Ctx.Stats.switchTo(Activity::Interpret);
}

void TraceMonitor::blacklist(LoopState *LS) {
  LS->Tier.Current = Tier::Interpreter;
  ++Ctx.Stats.LoopsBlacklisted;
  if (Ctx.EventListener) {
    JitEvent E;
    E.Kind = JitEventKind::Blacklisted;
    E.ScriptId = LS->Script ? LS->Script->Id : ~0u;
    E.Pc = LS->Loop->HeaderPc;
    E.Arg0 = LS->Tier.Failures;
    emitEvent(E);
  }
  // "To blacklist a fragment, we simply replace the loop header no-op with
  // a regular no-op. Thus, the interpreter will never again even call into
  // the trace monitor." (§3.3)
  LS->Script->Code[LS->Loop->HeaderPc] = (uint8_t)Op::Nop3;
}

void TraceMonitor::linkUnstableExits(LoopState *LS, Fragment *NewPeer) {
  auto FramesEqual = [&](const ExitDescriptor *E) {
    if (E->Frames.size() != NewPeer->EntryFrames.size())
      return false;
    for (size_t D = 0; D < E->Frames.size(); ++D)
      if (E->Frames[D].Script != NewPeer->EntryFrames[D].Script ||
          E->Frames[D].Base != NewPeer->EntryFrames[D].Base)
        return false;
    return true;
  };
  // Existing unstable tails that match the new peer's entry: link them.
  for (ExitDescriptor *E : LS->UnstableExits) {
    if (!E->Target && E->Types == NewPeer->EntryTypes && FramesEqual(E)) {
      if (Native)
        Native->patchExitTo(E, NewPeer);
      else
        E->Target = NewPeer;
      ++Ctx.Stats.UnstableLinks;
      if (Ctx.EventListener) {
        JitEvent Ev;
        Ev.Kind = JitEventKind::StitchedTransfer;
        Ev.FragmentId = E->Parent ? E->Parent->Id : ~0u;
        Ev.ExitId = E->Id;
        Ev.Arg0 = NewPeer->Id;
        Ev.Arg1 = 1; // unstable-peer link, not a branch stitch
        emitEvent(Ev);
      }
    }
  }
}

void TraceMonitor::finishRecording(const std::vector<Fragment *> &Peers) {
  assert(Recorder);
  LoopState *LS = RecorderLoopState;
  bool Stats = Ctx.Opts.CollectStats;
  if (Stats)
    Ctx.Stats.switchTo(Activity::Compile);

  std::unique_ptr<TraceRecorder> R = takeRecorder();
  RecorderLoopState = nullptr;

  if (R->status() == TraceRecorder::Status::Recording)
    R->closeLoop(Peers);
  if (R->status() != TraceRecorder::Status::Finished) {
    if (Stats)
      Ctx.Stats.switchTo(Activity::Interpret);
    setRecorder(std::move(R)); // restore so abortRecording can bookkeep
    abortRecording(Recorder->abortReason(), true);
    return;
  }

  Fragment *F = R->fragment();
  Ctx.Stats.LirEmitted += F->Body.size();

  // Whole-trace optimizer (§5.1 backward filters + loop passes). Runs here,
  // before the compile job is built, so off-thread compilation and the LIR
  // executor both see the optimized (and possibly prologue-split) body.
  optimizeTrace(*F, Ctx.Opts.Passes, F->EntryTypes.NumGlobals, &Ctx.Stats);
  F->LirAfterFilters = (uint32_t)F->Body.size();

  if (Ctx.Opts.DumpLIR) {
    fprintf(stderr, "--- fragment %u (%s) entry %s\n%s", F->Id,
            F->Kind == FragmentKind::Root ? "root" : "branch",
            F->EntryTypes.describe().c_str(),
            formatBody(F->Body, F->PrologueEnd).c_str());
  }

  if (Ctx.Opts.VerifyLir) {
    // Whole-trace verification after the backward filters, before the
    // compiler: a trace that breaks the SSA/type/guard/exit-map invariants
    // aborts and blacklists instead of compiling garbage.
    VerifyError VErr;
    bool Injected = Ctx.Opts.FaultInjector &&
                    Ctx.Opts.FaultInjector(FaultSite::VerifyFail);
    if (Injected)
      VErr.Message = "injected verify-fail";
    if (Injected ||
        !verifyTrace(*F, F->EntryTypes.NumGlobals, VErr, &Ctx.Stats)) {
      fprintf(stderr, "tracejit: LIR verification failed: %s\n",
              VErr.describe().c_str());
      F->Body.clear();
      setRecorder(std::move(R)); // restore so abortRecording can bookkeep
      RecorderLoopState = LS;
      abortRecording(AbortReason::VerifyFailed, true);
      return;
    }
  } else {
    // Legacy debug typechecker (superseded by the verifier, kept for runs
    // that explicitly turn VerifyLir off).
    std::string TypeErr = typecheckBody(F->Body);
    if (!TypeErr.empty()) {
      fprintf(stderr, "tracejit: LIR typecheck failed: %s\n", TypeErr.c_str());
      F->Body.clear();
      ++Ctx.Stats.AbortsByReason[(size_t)AbortReason::TypecheckFailed];
      if (Ctx.EventListener) {
        JitEvent E;
        E.Kind = JitEventKind::RecordAbort;
        E.Reason = AbortReason::TypecheckFailed;
        E.FragmentId = F->Id;
        E.ScriptId = F->AnchorScript ? F->AnchorScript->Id : ~0u;
        E.Pc = F->AnchorPc;
        emitEvent(E);
      }
      if (Stats)
        Ctx.Stats.switchTo(Activity::Interpret);
      return;
    }
  }

  if (Native && Queue) {
    // Off-thread pipeline: package the verified recording as a job and get
    // back to interpreting. The fragment (with its own LIR arena) stays in
    // Fragments but is owned by the worker until publication; the
    // CompilePending flags block duplicate recordings and profile reads.
    CompileJob J;
    J.Frag = F;
    J.Backend = Native.get();
    J.Ctx = &Ctx;
    J.Generation = CacheGeneration;
    J.LS = LS;
    J.IsRoot = F->Kind == FragmentKind::Root;
    J.AnchorExit = J.IsRoot ? nullptr : RecorderAnchorExit;
    J.FragmentId = F->Id;
    J.ScriptId = F->AnchorScript ? F->AnchorScript->Id : ~0u;
    J.AnchorPc = F->AnchorPc;
    if (!Queue->trySubmit(J)) {
      // Backpressure: the queue is full (or shutting down). Drop the
      // recording with the usual abort backoff rather than buffering
      // unboundedly; the loop stays hot and will re-record once the
      // backlog clears.
      setRecorder(std::move(R)); // restore so abortRecording can bookkeep
      RecorderLoopState = LS;
      abortRecording(AbortReason::CompileQueueFull, true);
      return;
    }
    F->CompilePending = true;
    if (J.AnchorExit)
      J.AnchorExit->CompilePending = true;
    ++LS->PendingCompiles;
    ++Ctx.Stats.CompileJobsQueued;
    if (Ctx.EventListener) {
      JitEvent E;
      E.Kind = JitEventKind::CompileJobQueued;
      E.FragmentId = F->Id;
      E.ScriptId = J.ScriptId;
      E.Pc = F->AnchorPc;
      E.Arg0 = Queue->pendingCount();
      emitEvent(E);
    }
    RecorderAnchorExit = nullptr;
    if (Stats)
      Ctx.Stats.switchTo(Activity::Interpret);
    return;
  }

  if (Native) {
    CompileResult CR = Native->compile(F, &Ctx);
    if (CR == CompileResult::Ok) {
      if (Ctx.Opts.DumpAssembly)
        fprintf(stderr, "--- fragment %u native: %u bytes at %p\n", F->Id,
                F->NativeSize, (void *)F->NativeEntry);
    } else {
      // Compile-failure governance: the failed compile already returned
      // its pool reservation; treat the recording as aborted so the
      // blacklist backoff stops a loop whose trace never fits from
      // burning recorder time forever. Pool exhaustion additionally
      // schedules a whole-cache flush, which runs at the next loop edge
      // (never here -- this stack frame still holds the doomed fragment).
      if (CR == CompileResult::PoolExhausted)
        FlushPending = true;
      setRecorder(std::move(R)); // restore so abortRecording can bookkeep
      RecorderLoopState = LS;
      abortRecording(compileAbortReason(CR), true);
      return;
    }
  }

  installCompiledFragment(
      F, LS, F->Kind == FragmentKind::Root ? nullptr : RecorderAnchorExit);
  RecorderAnchorExit = nullptr;

  if (Stats)
    Ctx.Stats.switchTo(Activity::Interpret);
}

void TraceMonitor::installCompiledFragment(Fragment *F, LoopState *LS,
                                           ExitDescriptor *Anchor) {
  MaxTarSlots = std::max(MaxTarSlots, F->RequiredTarSlots);
  if (F->CallsTree) {
    LS->StoresAllGlobals = true;
  } else if (!LS->StoresAllGlobals && !F->StoredGlobals.empty()) {
    std::vector<uint32_t> Union;
    std::set_union(LS->StoredGlobals.begin(), LS->StoredGlobals.end(),
                   F->StoredGlobals.begin(), F->StoredGlobals.end(),
                   std::back_inserter(Union));
    LS->StoredGlobals = std::move(Union);
  }
  ++Ctx.Stats.TracesCompleted;
  if (Ctx.EventListener) {
    JitEvent E;
    E.Kind = F->Kind == FragmentKind::Root ? JitEventKind::TreeCompiled
                                           : JitEventKind::BranchCompiled;
    E.FragmentId = F->Id;
    E.ScriptId = F->AnchorScript ? F->AnchorScript->Id : ~0u;
    E.Pc = F->AnchorPc;
    E.Arg0 = F->LirAfterFilters;
    E.Arg1 = F->NativeSize;
    emitEvent(E);
  }
  if (F->Kind == FragmentKind::Root) {
    ++Ctx.Stats.TreesCompiled;
    LS->Peers.push_back(F);
    linkUnstableExits(LS, F);
    LS->Tier.Failures = 0; // forgiveness: the tree is making progress
  } else {
    ++Ctx.Stats.BranchesCompiled;
    // Stitch: patch the parent guard's exit to jump into this branch (§6.2).
    if (Anchor) {
      if (Native)
        Native->patchExitTo(Anchor, F);
      else
        Anchor->Target = F;
      ++Ctx.Stats.StitchedTransfers;
      if (Ctx.EventListener) {
        JitEvent E;
        E.Kind = JitEventKind::StitchedTransfer;
        E.FragmentId = Anchor->Parent ? Anchor->Parent->Id : ~0u;
        E.ExitId = Anchor->Id;
        E.Arg0 = F->Id;
        emitEvent(E);
      }
    }
  }

  // Register this fragment's unstable tail (if any) for future linking.
  for (auto &E : F->Exits)
    if (E->Kind == ExitKind::Unstable)
      LS->UnstableExits.push_back(E.get());
  // And try to link it against peers that already exist.
  for (Fragment *P : LS->Peers)
    linkUnstableExits(LS, P);
}

// --- Off-thread compile publication ------------------------------------------

void TraceMonitor::drainCompileJobs() {
  if (!Queue || !Queue->hasCompleted())
    return;
  // Safe-point discipline: publication mutates LoopStates, patches code,
  // and may blacklist a loop (rewriting its header bytecode) -- none of
  // which may happen under an active recorder.
  if (Recorder)
    return;
  std::vector<CompileJob> Done;
  Queue->drainCompleted(Done);
  for (CompileJob &J : Done)
    publishJob(J);
}

void TraceMonitor::publishJob(CompileJob &J) {
  // Stale job: its generation was flushed (the fragment is already freed)
  // or the engine gave up on jitting. Drop it using only the copied ids --
  // Frag/LS/AnchorExit must not be dereferenced on this path (LS itself
  // survives flushes, but its pending count was reset by the flush).
  if (Disabled || J.Generation != CacheGeneration) {
    ++Ctx.Stats.CompileJobsDropped;
    if (Ctx.EventListener) {
      JitEvent E;
      E.Kind = JitEventKind::CompileJobDropped;
      E.FragmentId = J.FragmentId;
      E.ScriptId = J.ScriptId;
      E.Pc = J.AnchorPc;
      E.Arg0 = J.Generation;
      E.Arg1 = CacheGeneration;
      emitEvent(E);
    }
    return;
  }

  Fragment *F = J.Frag;
  LoopState *LS = J.LS;
  F->CompilePending = false;
  if (J.AnchorExit)
    J.AnchorExit->CompilePending = false;
  if (LS->PendingCompiles > 0)
    --LS->PendingCompiles;

  if (J.Result != CompileResult::Ok) {
    // The worker-side compile failed. Replicate the bookkeeping the inline
    // pipeline's abortRecording would have done (minus the recorder, which
    // is long gone): abort stats/event, branch-exit failure counting or
    // root blacklist backoff, and the pool-exhaustion flush request.
    AbortReason Why = compileAbortReason(J.Result);
    ++Ctx.Stats.CompileJobsDropped;
    ++Ctx.Stats.TracesAborted;
    ++Ctx.Stats.AbortsByReason[(size_t)Why];
    F->Body.clear(); // fragment stays allocated (ids/roots) but is inert
    if (Ctx.EventListener) {
      JitEvent E;
      E.Kind = JitEventKind::RecordAbort;
      E.Reason = Why;
      E.FragmentId = F->Id;
      E.ScriptId = J.ScriptId;
      E.Pc = F->AnchorPc;
      emitEvent(E);
    }
    if (J.Result == CompileResult::PoolExhausted)
      FlushPending = true;
    if (!J.IsRoot) {
      if (J.AnchorExit)
        ++J.AnchorExit->FailedRecordings;
    } else if (Policy.onRootAbort(LS->Tier, true, LS->HitCount)) {
      blacklist(LS);
    }
    return;
  }

  ++Ctx.Stats.CompileJobsPublished;
  if (Ctx.Opts.DumpAssembly)
    fprintf(stderr, "--- fragment %u native: %u bytes at %p\n", F->Id,
            F->NativeSize, (void *)F->NativeEntry);
  installCompiledFragment(F, LS, J.IsRoot ? nullptr : J.AnchorExit);
}

void TraceMonitor::waitCompileQueueIdle() {
  if (!Queue)
    return;
  Queue->waitIdle();
  drainCompileJobs();
}

void TraceMonitor::flushRecorder() {
  if (Recorder)
    abortRecording(AbortReason::DispatchUnwound, false);
}

// --- Code-cache lifecycle ----------------------------------------------------

AbortReason TraceMonitor::compileAbortReason(CompileResult R) {
  switch (R) {
  case CompileResult::PoolExhausted:
    return AbortReason::CompilePoolExhausted;
  case CompileResult::AssemblerOverflow:
    return AbortReason::CompileOverflow;
  case CompileResult::Unsupported:
    return AbortReason::CompileUnsupported;
  case CompileResult::Ok:
  case CompileResult::BackendUnavailable:
  case CompileResult::Fault:
    break;
  }
  return AbortReason::CompileFault;
}

size_t TraceMonitor::codeCacheUsed() const {
  return Native ? Native->pool().used() : 0;
}

size_t TraceMonitor::codeCacheCapacity() const {
  return Native ? Native->pool().capacity() : 0;
}

void TraceMonitor::requestCacheFlush() {
  if (Disabled)
    return;
  if (Ctx.OnTrace || Recorder) {
    // Unsafe point: a trace is on the native stack (its code must not be
    // unmapped under it) or the recorder owns a live fragment. Defer; the
    // next loop edge outside both states runs the flush.
    FlushPending = true;
    return;
  }
  flushCacheNow();
}

void TraceMonitor::flushCacheNow() {
  assert(!Recorder && !Ctx.OnTrace && "cache flush at an unsafe point");
  FlushPending = false;

  // Quiesce the background compiler before touching any fragment or the
  // pool: queued jobs are pulled back and dropped here (their fragments
  // are about to be freed), and an in-flight job is waited out so the pool
  // holds no reservation when reset() runs. A job that already completed
  // but was not yet drained survives in the client; the generation bump
  // below guarantees publishJob drops it at the next drain.
  if (Queue) {
    std::vector<CompileJob> Dropped;
    Queue->quiesce(&Dropped);
    for (CompileJob &J : Dropped) {
      ++Ctx.Stats.CompileJobsDropped;
      if (Ctx.EventListener) {
        JitEvent E;
        E.Kind = JitEventKind::CompileJobDropped;
        E.FragmentId = J.FragmentId;
        E.ScriptId = J.ScriptId;
        E.Pc = J.AnchorPc;
        E.Arg0 = J.Generation;
        E.Arg1 = CacheGeneration + 1; // the generation this flush creates
        emitEvent(E);
      }
    }
  }

  size_t Reclaimed = Native ? Native->flushCode() : 0;
  if (Ctx.EventListener) {
    for (auto &F : Fragments) {
      JitEvent E;
      E.Kind = JitEventKind::FragmentRetired;
      E.FragmentId = F->Id;
      E.ScriptId = F->AnchorScript ? F->AnchorScript->Id : ~0u;
      E.Pc = F->AnchorPc;
      E.Arg0 = F->NativeSize;
      E.Arg1 = F->Generation;
      emitEvent(E);
    }
  }
  Ctx.Stats.FragmentsRetired += Fragments.size();

  // Sever every path back into the retired code, then free it. LoopStates
  // survive (scripts point at them) but re-enter monitoring cold.
  for (auto &LS : LoopStates) {
    LS->Peers.clear();
    LS->UnstableExits.clear();
    LS->StoredGlobals.clear();
    LS->StoresAllGlobals = false;
    LS->HitCount = 0;
    LS->Tier.BackoffUntil = 0;
    LS->Tier.Failures = 0;
    LS->PendingCompiles = 0; // in-flight jobs are stale as of this flush
  }
  RecorderAnchorExit = nullptr;
  Ctx.LastNestedExit = nullptr;
  Fragments.clear(); // each fragment's LIR arena dies with it
  MaxTarSlots = MinTarSlots;

  // Inline caches are speculation state too: the flush contract is "reset
  // everything at once". (Oracle poly/mega-site knowledge survives, like
  // demotion facts.)
  Ctx.invalidateAllICs();

  ++CacheGeneration;
  ++FlushesThisEval;
  ++Ctx.Stats.CacheFlushes;
  Ctx.Stats.CacheBytesReclaimed += Reclaimed;
  if (Ctx.EventListener) {
    JitEvent E;
    E.Kind = JitEventKind::CacheFlush;
    E.Arg0 = CacheGeneration;
    E.Arg1 = Reclaimed;
    emitEvent(E);
  }
  if (FlushesThisEval >= Ctx.Opts.MaxCacheFlushes)
    disableJit();
}

void TraceMonitor::disableJit() {
  if (Disabled)
    return;
  Disabled = true;
  FlushPending = false;
  ++Ctx.Stats.JitDisables;
  if (Ctx.EventListener) {
    JitEvent E;
    E.Kind = JitEventKind::JitDisabled;
    E.Arg0 = FlushesThisEval;
    emitEvent(E);
  }
}

void TraceMonitor::syncStats() {
  // Figure 11: bytecodes "executed" natively = iterations through each
  // fragment times the bytecodes one pass covers.
  uint64_t Native64 = 0;
  for (auto &F : Fragments)
    Native64 += F->Iterations * F->BytecodesCovered;
  Ctx.Stats.BytecodesNative = Native64;
}

// --- Hooks -------------------------------------------------------------------------------------

void TraceMonitor::recordOp(uint32_t Pc) {
  assert(Recorder && "recording hook without a recorder");
  Recorder->recordOp(Pc);
  if (Recorder->status() == TraceRecorder::Status::Aborted) {
    abortRecording(Recorder->abortReason(), true);
  } else if (Recorder->status() == TraceRecorder::Status::Finished) {
    // Trace ended by leaving the loop (LoopExit tail).
    finishRecording(RecorderLoopState ? RecorderLoopState->Peers
                                      : std::vector<Fragment *>());
  }
}

uint32_t TraceMonitor::handleInnerLoopHeader(uint32_t Pc, uint16_t LoopId) {
  FunctionScript *S = Interp.currentFrame().Script;
  LoopState *InnerLS = loopState(S, LoopId);

  if (!Ctx.Opts.EnableNesting) {
    // Ablation: the "give up on outer loops" strawman (§4, Figure 7).
    abortRecording(AbortReason::NestingDisabled, true);
    return Pc; // fall through to normal handling by the caller
  }

  // §4.1: if the inner loop has a type-matching compiled tree, call it;
  // otherwise abort the outer recording and let the inner loop be recorded
  // first. The abort does not count toward blacklisting ("we should not
  // count such aborts ... as long as we are able to build up more traces
  // for the inner tree", §4.2).
  // Type-matching includes Int->Double promotion: the outer trace can
  // coerce slots the inner tree (after oracle demotion) expects as doubles.
  Fragment *Inner = nullptr;
  for (Fragment *P : InnerLS->Peers) {
    if (InnerLS->HitCount < P->EnterBlockedUntil)
      continue; // entry-deopting inner tree: treat as not ready
    if (!P->Body.empty() && Recorder->framesMatch(P->EntryFrames) &&
        Recorder->canCoerceTo(P->EntryTypes)) {
      Inner = P;
      break;
    }
  }
  if (!Inner) {
    abortRecording(AbortReason::InnerTreeNotReady, false);
    return Pc;
  }
  Recorder->coerceTo(Inner->EntryTypes);

  size_t DepthBefore = Interp.frames().size();
  uint64_t *Tar = entryTar();
  importTar(Inner->EntryTypes, Tar, /*Match=*/false);
  ExitDescriptor *E = executeFragment(Inner, Tar);

  bool LeftInnerLoop =
      E->Frames.size() == DepthBefore &&
      E->Frames.back().Script == S &&
      (E->Pc < InnerLS->Loop->HeaderPc || E->Pc >= InnerLS->Loop->EndPc);

  if (E->Kind == ExitKind::Preempt) {
    abortRecording(AbortReason::PreemptedInInnerCall, false);
    Ctx.serviceInterrupts();
    return E->Pc;
  }
  if (!LeftInnerLoop) {
    // The inner tree took a side exit inside the loop: abort the outer
    // trace and grow the inner tree instead (§4.1).
    abortRecording(AbortReason::InnerTreeSideExit, false);
    handleExit(E);
    return Interp.currentPc();
  }

  Recorder->recordTreeCall(Inner, E);
  if (Recorder->status() == TraceRecorder::Status::Aborted)
    abortRecording(Recorder->abortReason(), true);
  return E->Pc;
}

void TraceMonitor::handleExit(ExitDescriptor *E) {
  if (E->Kind == ExitKind::Preempt) {
    Ctx.serviceInterrupts();
    return;
  }
  // Grow the tree at hot side exits (§3.2 "Extending a tree"): only
  // control-flow/type/overflow exits that stay inside the loop and at the
  // tree's entry frame depth.
  if (!Ctx.Opts.EnableStitching)
    return;
  if (E->Kind != ExitKind::Branch && E->Kind != ExitKind::Type &&
      E->Kind != ExitKind::Overflow)
    return;
  if (E->Target || E->RecordingBlocked || E->CompilePending)
    return;
  Fragment *Root = E->Parent ? E->Parent->Root : nullptr;
  if (!Root || !Root->Loop)
    return;
  if (E->Frames.size() < Root->EntryFrameCount)
    return;
  if (E->Frames.size() == Root->EntryFrameCount &&
      (E->Frames.back().Script != Root->AnchorScript ||
       E->Pc < Root->Loop->HeaderPc || E->Pc >= Root->Loop->EndPc))
    return;
  if (E->Hits < Ctx.Opts.HotExitThreshold)
    return;
  if (E->FailedRecordings >= Ctx.Opts.MaxRecordingFailures) {
    // Branch overflow: this exit will never get a compiled continuation.
    // Block just the exit and keep the tree.
    E->RecordingBlocked = true;
    return;
  }
  if (Recorder)
    return; // one recorder at a time

  LoopState *LS = loopStateOfRoot(Root);
  if (!LS)
    return;
  RecorderAnchorExit = E;
  startRecording(TraceRecorder::Mode::Branch, LS, Root->AnchorScript, E->Pc,
                 E);
}

LoopState *TraceMonitor::loopStateOfRoot(Fragment *Root) {
  return Root->Loop ? Root->Loop->State : nullptr;
}

Tier TraceMonitor::tierOfLoop(uint32_t ScriptId, uint16_t LoopId) const {
  for (const auto &LS : LoopStates)
    if (LS->Script && LS->Script->Id == ScriptId &&
        LoopId < LS->Script->Loops.size() &&
        LS->Loop == &LS->Script->Loops[LoopId])
      return LS->Tier.Current;
  return Tier::Trace;
}

uint32_t TraceMonitor::onLoopEdge(uint32_t Pc, uint16_t LoopId) {
  assert(Ctx.Recording == (Recorder != nullptr) &&
         "recording flag out of sync with the recorder");
  if (Disabled)
    return Pc + 3; // kill switch: interpreter-only, one branch of overhead
  bool Stats = Ctx.Opts.CollectStats;
  if (Stats)
    Ctx.Stats.switchTo(Activity::Monitor);
  uint32_t NextPc = Pc + 3;
  FunctionScript *S = Interp.currentFrame().Script;

  // --- Active recording ------------------------------------------------------
  if (Recorder) {
    if (Recorder->atAnchor(Pc)) {
      LoopState *LS = RecorderLoopState;
      finishRecording(LS->Peers);
      // Fall through: the freshly compiled trace may be entered right now.
    } else {
      uint32_t R = handleInnerLoopHeader(Pc, LoopId);
      if (Recorder) {
        if (Stats)
          Ctx.Stats.switchTo(Activity::RecordInterpret);
        return R;
      }
      // Recording aborted; continue with normal monitoring of this header.
      NextPc = R;
      if (NextPc != Pc) {
        if (Stats)
          Ctx.Stats.switchTo(Activity::Interpret);
        return NextPc;
      }
      NextPc = Pc + 3;
      S = Interp.currentFrame().Script;
    }
  }

  // A flush requested at an unsafe point (trace on the native stack,
  // recorder active, or mid-compile pool exhaustion) runs here, before any
  // retired fragment could be re-entered.
  if (FlushPending && !Recorder)
    flushCacheNow();
  // Publish finished off-thread compiles before peer matching so a tree
  // that just left the compiler can be entered this very iteration.
  drainCompileJobs();
  if (Disabled) {
    if (Stats)
      Ctx.Stats.switchTo(Activity::Interpret);
    return NextPc;
  }

  LoopState *LS = loopState(S, LoopId);

  // --- Execute a matching compiled tree -------------------------------------------
  // A loop blacklisted just now (an abort above hit the §3.3 cap) keeps its
  // trees alive for stitched branches and nested TreeCalls, but is not
  // entered from here again.
  if (LS->Tier.Current == Tier::Trace && !Recorder && !LS->Peers.empty()) {
    uint64_t *Tar = entryTar();
    for (Fragment *P : LS->Peers) {
      // Entry-deopt backoff: a peer whose prologue keeps deopting is
      // skipped until the loop has hit the header a bit more (UINT32_MAX =
      // retired for good). Its body stays alive for stitched/nested links.
      if (LS->HitCount < P->EnterBlockedUntil)
        continue;
      if (!P->Body.empty() && matchAndImport(*P, Tar)) {
        ExitDescriptor *E = executeFragment(P, Tar);
        handleExit(E);
        if (Stats)
          Ctx.Stats.switchTo(Recorder ? Activity::RecordInterpret
                                      : Activity::Interpret);
        return Interp.currentPc();
      }
    }
  }

  if (Recorder) {
    // A branch recording just started inside finishRecording's fallthrough;
    // keep interpreting under the recorder.
    if (Stats)
      Ctx.Stats.switchTo(Activity::RecordInterpret);
    return NextPc;
  }

  // --- Hotness counting / starting a tree (§3.2) ------------------------------------
  ++LS->HitCount;
  if (Ctx.EventListener && LS->HitCount == Ctx.Opts.HotLoopThreshold &&
      LS->Tier.Current != Tier::Interpreter) {
    JitEvent E;
    E.Kind = JitEventKind::LoopHot;
    E.ScriptId = S->Id;
    E.Pc = Pc;
    E.Arg0 = LS->HitCount;
    emitEvent(E);
  }

  if (LS->Tier.Current != Tier::Trace ||
      LS->HitCount < Ctx.Opts.HotLoopThreshold ||
      LS->HitCount < LS->Tier.BackoffUntil || LS->PendingCompiles > 0 ||
      LS->Peers.size() + LS->PendingCompiles >= MaxPeersPerLoop) {
    if (Stats)
      Ctx.Stats.switchTo(Activity::Interpret);
    return NextPc;
  }

  RecorderAnchorExit = nullptr;
  startRecording(TraceRecorder::Mode::Root, LS, S, Pc, nullptr);
  return NextPc;
}

} // namespace tracejit

//===- engine.cpp - Public embedding API ------------------------------------===//

#include "api/engine.h"

#include <algorithm>

#include "frontend/parser.h"
#include "interp/natives.h"
#include "trace/monitor.h"
#include "trace/oracle.h"

namespace tracejit {

Engine::Engine(const EngineOptions &Opts) : Ctx(Opts) {
  Interp = std::make_unique<Interpreter>(Ctx);
  installStandardGlobals(*Interp);
  // Built-in listeners go live before the monitor exists so construction-
  // time events (e.g. BackendFallback when executable memory is denied)
  // reach them.
  if (Opts.LogJitEvents) {
    LogListener = std::make_unique<LogJitEventListener>();
    Mux.add(LogListener.get());
  }
  if (Opts.CaptureTraceEvents) {
    TraceCapture = std::make_unique<ChromeTraceCollector>();
    Mux.add(TraceCapture.get());
  }
  refreshListenerGate();
  if (Opts.EnableJit) {
    Monitor = std::make_unique<TraceMonitor>(Ctx, *Interp);
    Ctx.Monitor = Monitor.get();
  }
}

Engine::~Engine() {
  if (TimerThread.joinable()) {
    {
      std::lock_guard<std::mutex> L(TimerMu);
      TimerStop = true;
    }
    TimerCv.notify_all();
    TimerThread.join();
  }
  Ctx.EventListener = nullptr;
  Ctx.Monitor = nullptr; // monitor dies before the context it observes
}

// --- Deadline timer -----------------------------------------------------------

void Engine::armDeadlineTimer(std::chrono::steady_clock::time_point At) {
  {
    std::lock_guard<std::mutex> L(TimerMu);
    TimerDeadline = At;
    TimerArmed = true;
    if (!TimerThread.joinable())
      TimerThread = std::thread([this] { deadlineTimerMain(); });
  }
  TimerCv.notify_all();
}

void Engine::disarmDeadlineTimer() {
  {
    std::lock_guard<std::mutex> L(TimerMu);
    TimerArmed = false;
  }
  TimerCv.notify_all();
}

void Engine::deadlineTimerMain() {
  std::unique_lock<std::mutex> L(TimerMu);
  while (!TimerStop) {
    if (!TimerArmed) {
      TimerCv.wait(L);
      continue;
    }
    auto Now = std::chrono::steady_clock::now();
    if (Now < TimerDeadline) {
      TimerCv.wait_until(L, TimerDeadline);
      continue;
    }
    // Expired: raise, then keep re-raising every few ms while armed, so a
    // benign safe-point service that consumed the bit alongside a GC
    // request cannot swallow the termination.
    Ctx.requestInterrupt(InterruptDeadline);
    TimerCv.wait_for(L, std::chrono::milliseconds(5));
  }
}

void Engine::refreshListenerGate() {
  Ctx.EventListener = Mux.empty() ? nullptr : &Mux;
}

EvalResult Engine::eval(std::string_view Source) {
  EvalResult R;
  Ctx.HasError = false;
  Ctx.ErrorMessage.clear();
  Ctx.ErrorCode = ErrorKind::Runtime;
  Ctx.ErrorLine = Ctx.ErrorCol = 0;
  Ctx.LastResult = Value::undefined();
  // Drop termination bits left over from a previous request (a watchdog
  // raise that lost the race with request completion) but keep a pending
  // GC request -- the heap's needs outlive any one script.
  Ctx.PreemptFlag.fetch_and(~InterruptTermination, std::memory_order_acq_rel);
  if (Monitor)
    Monitor->onEvalStart(); // fresh per-eval cache-flush budget

  EngineError ParseErr;
  size_t FirstScript = Ctx.Scripts.size();
  FunctionScript *Top = compileSource(Ctx, Source, &ParseErr);
  if (!Top) {
    R.Err = std::move(ParseErr);
    return R;
  }
  // Static facts must exist before execution: with HotLoopThreshold=2 the
  // first recording can start within this very eval.
  if (Ctx.Opts.StaticAnalysis)
    analyzeNewScripts(FirstScript);

  const bool Deadline = Ctx.Opts.EvalDeadlineMs > 0;
  if (Deadline) {
    auto At = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(Ctx.Opts.EvalDeadlineMs);
    Ctx.DeadlineArmed = true;
    Ctx.DeadlineAt = At;
    Ctx.DeadlinePollCountdown = 0;
    armDeadlineTimer(At);
  }
  {
    ActivityScope T(Ctx.Stats, Activity::Interpret, Ctx.Opts.CollectStats);
    Interp->run(Top);
  }
  if (Deadline) {
    disarmDeadlineTimer();
    Ctx.DeadlineArmed = false;
    // A raise that landed after the script finished must not leak into the
    // next request.
    Ctx.PreemptFlag.fetch_and(~InterruptDeadline, std::memory_order_acq_rel);
  }
  Ctx.Stats.stopTiming();
  if (Ctx.HasError) {
    R.Err.Kind = Ctx.ErrorCode == ErrorKind::None ? ErrorKind::Runtime
                                                  : Ctx.ErrorCode;
    R.Err.Line = Ctx.ErrorLine;
    R.Err.Col = Ctx.ErrorCol;
    R.Err.Message = Ctx.ErrorMessage;
    Ctx.HasError = false;
    return R;
  }
  R.LastValue = Ctx.LastResult;
  return R;
}

EvalResult Engine::eval(std::string_view Source, std::string_view FileName) {
  EvalResult R = eval(Source);
  if (!R.ok())
    R.Err.File = FileName;
  return R;
}

void Engine::analyzeNewScripts(size_t FirstScript) {
  for (size_t I = FirstScript; I < Ctx.Scripts.size(); ++I) {
    FunctionScript *S = Ctx.Scripts[I].get();
    if (Ctx.Analyses.count(S))
      continue;
    std::unique_ptr<ScriptAnalysis> A = analyzeScript(*S, Ctx.Globals.size());
    ++Ctx.Stats.AnalysisRuns;
    Ctx.Stats.AnalysisFacts += A->factCount();
    Ctx.Stats.AnalysisDiagnostics += A->Diags.size();
    if (Monitor && A->Converged) {
      // Seed the oracle before any recording sees this script: proven
      // int-and-double slots get their §3.2 demotion fact up front, and
      // statically unbounded property sites never get a doomed first
      // recording.
      for (uint32_t G : A->DemoteGlobals) {
        Monitor->noteStaticDemotion(Oracle::globalKey(G));
        ++Ctx.Stats.StaticDemotionsSeeded;
      }
      for (uint32_t L : A->DemoteLocals) {
        Monitor->noteStaticDemotion(Oracle::localKey(S->Id, L));
        ++Ctx.Stats.StaticDemotionsSeeded;
      }
      for (uint32_t Pc : A->MegamorphicSites) {
        Monitor->notePropSite(S->Id, Pc, /*Megamorphic=*/true);
        ++Ctx.Stats.StaticMegaSeeded;
      }
    }
    if (Ctx.EventListener) {
      JitEvent E;
      E.Kind = JitEventKind::AnalysisRan;
      E.ScriptId = S->Id;
      E.Arg0 = A->factCount();
      E.Arg1 = A->Diags.size();
      Ctx.emitEvent(E);
    }
    Ctx.Analyses[S] = std::move(A);
  }
}

Engine::AnalysisReport Engine::analyze(std::string_view Source,
                                       std::string_view FileName) {
  AnalysisReport R;
  EngineError ParseErr;
  size_t FirstScript = Ctx.Scripts.size();
  FunctionScript *Top = compileSource(Ctx, Source, &ParseErr);
  if (!Top) {
    R.Err = std::move(ParseErr);
    if (!FileName.empty())
      R.Err.File = FileName;
    return R;
  }
  R.Ok = true;
  analyzeNewScripts(FirstScript);
  for (size_t I = FirstScript; I < Ctx.Scripts.size(); ++I) {
    auto It = Ctx.Analyses.find(Ctx.Scripts[I].get());
    if (It == Ctx.Analyses.end())
      continue;
    for (const AnalysisDiagnostic &D : It->second->Diags)
      R.Diagnostics.push_back(D);
  }
  std::sort(R.Diagnostics.begin(), R.Diagnostics.end(),
            [](const AnalysisDiagnostic &X, const AnalysisDiagnostic &Y) {
              if (X.Line != Y.Line)
                return X.Line < Y.Line;
              return X.Col < Y.Col;
            });
  return R;
}

void Engine::setPrintHook(std::function<void(const std::string &)> Hook) {
  Ctx.PrintHook = std::move(Hook);
}

Value Engine::getGlobal(std::string_view Name) {
  String *A = Ctx.Atoms.intern(Name);
  auto It = Ctx.Globals.Index.find(A);
  if (It == Ctx.Globals.Index.end())
    return Value::undefined();
  return Ctx.Globals.Values[It->second];
}

void Engine::setGlobalNumber(std::string_view Name, double V) {
  uint32_t Slot = Ctx.Globals.slotFor(Ctx.Atoms.intern(Name));
  Ctx.Globals.Values[Slot] = Ctx.TheHeap.boxNumber(V);
}

void Engine::registerNative(std::string_view Name, NativeFn Fn) {
  String *A = Ctx.Atoms.intern(Name);
  Object *F = Object::createNativeFunction(Ctx.TheHeap, Ctx.Shapes, Fn, A);
  Ctx.Globals.Values[Ctx.Globals.slotFor(A)] = Value::makeObject(F);
}

VMStats Engine::stats() const {
  if (Monitor)
    Monitor->syncStats();
  return Ctx.Stats;
}

void Engine::addEventListener(JitEventListener *L) {
  Mux.add(L);
  refreshListenerGate();
}

void Engine::removeEventListener(JitEventListener *L) {
  Mux.remove(L);
  refreshListenerGate();
}

std::vector<FragmentProfile> Engine::fragmentProfiles() const {
  std::vector<FragmentProfile> Out;
  if (Monitor)
    Monitor->collectFragmentProfiles(Out);
  return Out;
}

Tier Engine::tierOf(uint32_t ScriptId, uint16_t LoopId) const {
  if (!Monitor)
    return Tier::Interpreter; // JIT off: everything interprets
  return Monitor->tierOfLoop(ScriptId, LoopId);
}

bool Engine::exportTraceEvents(const std::string &Path) const {
  if (!TraceCapture)
    return false;
  return TraceCapture->writeJson(Path);
}

void Engine::flushCodeCache() {
  if (Monitor)
    Monitor->requestCacheFlush();
}

uint32_t Engine::cacheGeneration() const {
  return Monitor ? Monitor->cacheGeneration() : 0;
}

bool Engine::jitDisabled() const {
  return Monitor ? Monitor->jitDisabled() : false;
}

size_t Engine::codeCacheUsed() const {
  return Monitor ? Monitor->codeCacheUsed() : 0;
}

size_t Engine::codeCacheCapacity() const {
  return Monitor ? Monitor->codeCacheCapacity() : 0;
}

uint32_t Engine::pendingCompileJobs() const {
  return Monitor ? Monitor->pendingCompileJobs() : 0;
}

void Engine::pumpCompileQueue() {
  if (Monitor)
    Monitor->pumpCompileQueue();
}

void Engine::waitForCompileQueue() {
  if (Monitor)
    Monitor->waitCompileQueueIdle();
}

} // namespace tracejit

//===- server.cpp - Multi-context script serving harness ----------------------===//

#include "serve/server.h"

#include <chrono>

#include "api/engine.h"
#include "interp/vmcontext.h"
#include "jit/compile_queue.h"

namespace tracejit {
namespace serve {

static double msBetween(std::chrono::steady_clock::time_point A,
                        std::chrono::steady_clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

ScriptServer::ScriptServer(const ServerConfig &C) : Cfg(C) {
  if (Cfg.Workers == 0)
    Cfg.Workers = 1;
  if (Cfg.QueueDepth == 0)
    Cfg.QueueDepth = 1;
  WorkerStats.resize(Cfg.Workers);
  WorkerRecycles.assign(Cfg.Workers, 0);
  if (Cfg.Engine.OffThreadCompile && !Cfg.Engine.SharedCompileService)
    CompileSvc = std::make_unique<CompileService>();
  Threads.reserve(Cfg.Workers);
  for (uint32_t W = 0; W < Cfg.Workers; ++W)
    Threads.emplace_back([this, W] { workerMain(W); });
}

ScriptServer::~ScriptServer() { stop(); }

uint64_t ScriptServer::submit(std::string Source) {
  return submit(std::move(Source), Cfg.Engine.EvalDeadlineMs);
}

uint64_t ScriptServer::submit(std::string Source, uint64_t DeadlineMs) {
  uint64_t Id;
  {
    std::unique_lock<std::mutex> L(Mu);
    // A stopping/stopped server refuses work instead of corrupting state:
    // the workers are (being) joined, so the request could never be
    // served. 0 is never a valid request id.
    if (Stopping || Stopped)
      return 0;
    SubmitCv.wait(L, [this] { return Requests.size() < Cfg.QueueDepth; });
    Id = NextId++;
    Requests.push_back({Id, std::move(Source),
                        std::chrono::steady_clock::now(), DeadlineMs});
  }
  WorkCv.notify_one();
  return Id;
}

void ScriptServer::drain() {
  std::unique_lock<std::mutex> L(Mu);
  IdleCv.wait(L, [this] { return Requests.empty() && BusyWorkers == 0; });
}

void ScriptServer::stop() {
  {
    std::unique_lock<std::mutex> L(Mu);
    if (Stopped)
      return;
    // Serve out the backlog first: stop() is a graceful shutdown.
    IdleCv.wait(L, [this] { return Requests.empty() && BusyWorkers == 0; });
    Stopping = true;
  }
  WorkCv.notify_all();
  for (std::thread &T : Threads)
    T.join();
  {
    std::lock_guard<std::mutex> L(Mu);
    Stopped = true;
  }
  // The shared compiler dies after every engine that could reference it
  // (engines live on the worker threads just joined).
  CompileSvc.reset();
}

std::vector<RequestResult> ScriptServer::takeResults() {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<RequestResult> Out;
  Out.swap(Results);
  return Out;
}

std::vector<uint32_t> ScriptServer::workerRecycles() const {
  std::lock_guard<std::mutex> L(Mu);
  return WorkerRecycles;
}

void ScriptServer::workerMain(uint32_t Index) {
  // The engine is born, used, and destroyed on this thread; nothing inside
  // it is ever touched from another thread except the atomic interrupt
  // word, which only the engine's own deadline timer raises. The only
  // other shared machinery is the compile service, which has its own
  // locking discipline.
  EngineOptions EO = Cfg.Engine;
  if (EO.OffThreadCompile && !EO.SharedCompileService)
    EO.SharedCompileService = CompileSvc.get();

  std::string Captured;
  auto makeEngine = [&] {
    auto E = std::make_unique<Engine>(EO);
    E->setPrintHook([&Captured](const std::string &S) { Captured += S; });
    return E;
  };
  std::unique_ptr<Engine> E = makeEngine();

  VMStats Accum; // Banked counters from recycled engines.
  uint32_t ConsecFailures = 0;

  for (;;) {
    PendingRequest Req;
    {
      std::unique_lock<std::mutex> L(Mu);
      WorkCv.wait(L, [this] { return Stopping || !Requests.empty(); });
      if (Requests.empty())
        break; // Stopping and no work left
      Req = std::move(Requests.front());
      Requests.pop_front();
      ++BusyWorkers;
    }
    SubmitCv.notify_one(); // a queue slot freed up

    RequestResult RR;
    RR.Id = Req.Id;
    RR.Worker = Index;
    auto Start = std::chrono::steady_clock::now();
    RR.QueueMs = msBetween(Req.Submitted, Start);
    Captured.clear();
    EvalResult ER = E->eval(Req.Source, {}, Req.DeadlineMs);
    auto End = std::chrono::steady_clock::now();
    RR.EvalMs = msBetween(Start, End);
    RR.TotalMs = msBetween(Req.Submitted, End);
    RR.Ok = ER.ok();
    if (!RR.Ok) {
      RR.ErrKind = ER.Err.Kind;
      RR.TimedOut = ER.Err.Kind == ErrorKind::Timeout;
      RR.Error = ER.Err.describe();
    }
    RR.Output = Captured;
    // Publish any finished compiles now so the next request on this
    // context starts with the freshest trace cache.
    E->pumpCompileQueue();

    bool Recycle = false;
    if (!RR.Ok) {
      ++ConsecFailures;
      Recycle = RR.ErrKind == ErrorKind::OutOfMemory ||
                (Cfg.RecycleAfterFailures &&
                 ConsecFailures >= Cfg.RecycleAfterFailures);
    } else {
      ConsecFailures = 0;
    }

    {
      std::lock_guard<std::mutex> L(Mu);
      Results.push_back(std::move(RR));
      if (!Recycle)
        --BusyWorkers;
    }

    if (Recycle) {
      // Retire the poisoned engine on its own thread: settle its compile
      // pipeline, bank its statistics, rebuild from scratch. BusyWorkers
      // stays held so drain()/stop() wait out the rebuild.
      uint32_t Failures = ConsecFailures;
      ConsecFailures = 0;
      E->waitForCompileQueue();
      Accum.accumulate(E->stats());
      E.reset();
      E = makeEngine();
      VMContext &NC = E->context();
      if (NC.EventListener) {
        JitEvent Ev;
        Ev.Kind = JitEventKind::EngineRecycled;
        Ev.Arg0 = Index;
        Ev.Arg1 = Failures;
        NC.EventListener->onEvent(Ev);
      }
      {
        std::lock_guard<std::mutex> L(Mu);
        ++WorkerRecycles[Index];
        --BusyWorkers;
      }
    }
    IdleCv.notify_all();
  }

  // Settle the compile pipeline before the stats snapshot so queued/
  // published/dropped counters add up for the caller.
  E->waitForCompileQueue();
  Accum.accumulate(E->stats());
  {
    std::lock_guard<std::mutex> L(Mu);
    WorkerStats[Index] = Accum;
  }
}

} // namespace serve
} // namespace tracejit

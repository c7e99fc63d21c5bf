//===- compile_queue.cpp - Background trace compilation -----------------------===//

#include "jit/compile_queue.h"

#include <algorithm>
#include <cassert>

namespace tracejit {

void runCompileJob(CompileJob &J) {
  J.Result = J.Backend ? J.Backend->compile(J.Frag)
                       : CompileResult::BackendUnavailable;
  J.Compiled = true;
}

CompileService::CompileService() : Worker([this] { workerMain(); }) {}

CompileService::~CompileService() {
  {
    std::lock_guard<std::mutex> L(Mu);
    ShuttingDown = true;
    // Jobs still queued belong to clients that skipped the destroy-client-
    // first protocol (never the monitor's; its dtor quiesces). Drop them.
    for (Entry &E : Queue)
      if (E.Client)
        --E.Client->Pending;
    Queue.clear();
  }
  WorkCv.notify_all();
  Worker.join();
}

std::unique_ptr<CompileClient> CompileService::createClient(uint32_t Depth) {
  if (Depth == 0)
    Depth = 1;
  // Not make_unique: the constructor is private to keep registration here.
  return std::unique_ptr<CompileClient>(new CompileClient(*this, Depth));
}

void CompileService::setPausedForTest(bool P) {
  {
    std::lock_guard<std::mutex> L(Mu);
    Paused = P;
  }
  WorkCv.notify_all();
}

void CompileService::workerMain() {
  std::unique_lock<std::mutex> L(Mu);
  for (;;) {
    WorkCv.wait(L, [this] {
      return ShuttingDown || (!Paused && !Queue.empty());
    });
    if (ShuttingDown)
      return;
    Entry E = std::move(Queue.front());
    Queue.pop_front();
    Active = E.Client;
    L.unlock();

    // The only code that runs off the engine thread. It writes the job's
    // fragment (NativeEntry/NativeSize/exit JumpSites) and allocates from
    // the backend's mutexed pool; the mutex reacquired below publishes
    // those writes to the engine thread that drains the job.
    runCompileJob(E.Job);

    L.lock();
    CompileClient *C = Active;
    Active = nullptr;
    assert(C->Pending > 0);
    --C->Pending;
    C->Completed.push_back(std::move(E.Job));
    C->CompletedFlag.store(true, std::memory_order_release);
    IdleCv.notify_all();
  }
}

CompileClient::~CompileClient() { quiesce(nullptr); }

bool CompileClient::trySubmit(CompileJob J) {
  {
    std::lock_guard<std::mutex> L(Svc.Mu);
    if (Svc.ShuttingDown || Pending >= Depth)
      return false;
    ++Pending;
    Svc.Queue.push_back(CompileService::Entry{this, std::move(J)});
  }
  Svc.WorkCv.notify_one();
  return true;
}

void CompileClient::drainCompleted(std::vector<CompileJob> &Out) {
  std::lock_guard<std::mutex> L(Svc.Mu);
  for (CompileJob &J : Completed)
    Out.push_back(std::move(J));
  Completed.clear();
  CompletedFlag.store(false, std::memory_order_release);
}

void CompileClient::quiesce(std::vector<CompileJob> *Dropped) {
  std::unique_lock<std::mutex> L(Svc.Mu);
  // Pull our queued entries back; they never reach the worker.
  auto Mine = std::stable_partition(
      Svc.Queue.begin(), Svc.Queue.end(),
      [this](const CompileService::Entry &E) { return E.Client != this; });
  for (auto It = Mine; It != Svc.Queue.end(); ++It) {
    assert(Pending > 0);
    --Pending;
    if (Dropped)
      Dropped->push_back(std::move(It->Job));
  }
  Svc.Queue.erase(Mine, Svc.Queue.end());
  // Wait out the job the worker may hold right now (it will complete into
  // Completed, where the caller can still drain-and-drop it).
  Svc.IdleCv.wait(L, [this] { return Svc.Active != this; });
}

void CompileClient::waitIdle() {
  std::unique_lock<std::mutex> L(Svc.Mu);
  Svc.IdleCv.wait(L, [this] { return Pending == 0; });
}

uint32_t CompileClient::pendingCount() const {
  std::lock_guard<std::mutex> L(Svc.Mu);
  return Pending;
}

} // namespace tracejit

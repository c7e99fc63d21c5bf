//===- compile_queue.h - Background trace compilation ------------------------===//
//
// Trace compilation as jobs. The monitor packages every verified,
// backward-filtered recording as a self-contained CompileJob. By default it
// runs the job (runCompileJob) and publishes it at once, at the loop edge,
// as the paper does -- stalling the interpreter for the whole backend run.
// With EngineOptions::OffThreadCompile it hands the job to a single
// background compiler thread through a bounded queue instead; the
// interpreter keeps running unjitted until the finished fragment is
// published back at a later loop edge.
//
// Roles and ownership:
//
//  * CompileService owns the compiler thread. One service can serve many
//    engines (the serving harness runs N contexts against one compiler),
//    draining their jobs FIFO.
//  * CompileClient is one engine's bounded portal to the service. The
//    monitor owns it; it registers with the service on construction and
//    quiesces + unregisters on destruction, so a dying engine never leaves
//    jobs aimed at freed state.
//  * CompileJob owns nothing but borrows carefully: Frag stays alive
//    because the monitor never frees fragments while jobs referencing them
//    are in flight (flush quiesces first), and the job carries the LIR
//    via the fragment's own arena (Fragment::LirArena), not the monitor's.
//
// Threading contract (see DESIGN.md "Threading model"):
//
//  * The worker touches ONLY the job's fragment (NativeEntry / NativeSize /
//    exit JumpSites), the backend's ExecMemPool (internally mutexed), and
//    the job's Result. It never touches VMStats, JitEvents, LoopStates, or
//    interpreter state -- those belong to the engine thread and are
//    updated at publication.
//  * A job is in exactly one place at a time: the queue (submitted), the
//    worker (active), or the client's completed list. Handoffs happen
//    under the service mutex, which provides the happens-before edge that
//    makes the worker's fragment writes visible to the publishing thread.
//  * Stale results are not the queue's problem: the client returns
//    completed jobs verbatim and the monitor drops them by generation at
//    publication (CompileJobDropped).
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_JIT_COMPILE_QUEUE_H
#define TRACEJIT_JIT_COMPILE_QUEUE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "jit/compiler_x64.h"

namespace tracejit {

struct LoopState;

/// One trace compilation, self-contained enough to run on the worker and
/// to be dropped without dereferencing anything (the Id/Pc copies exist so
/// a stale job can still be reported after its fragment was flushed).
struct CompileJob {
  Fragment *Frag = nullptr;
  NativeBackend *Backend = nullptr;

  // --- Publication bookkeeping (engine thread only) -------------------------
  uint32_t Generation = 0;          ///< Cache generation at submit time.
  LoopState *LS = nullptr;          ///< Owning loop header state.
  ExitDescriptor *AnchorExit = nullptr; ///< Branch jobs: the exit to stitch.
  bool IsRoot = true;

  // --- Drop-path-safe copies (valid even when Frag is gone) -----------------
  uint32_t FragmentId = 0;
  uint32_t ScriptId = 0;
  uint32_t AnchorPc = 0;

  // --- Filled in by runCompileJob -------------------------------------------
  bool Compiled = false; ///< False on jobs dropped before reaching the worker.
  CompileResult Result = CompileResult::BackendUnavailable;
};

/// Compile \p J's fragment and record the outcome in the job. The one
/// caller of NativeBackend::compile: the worker runs it off-thread, and the
/// monitor runs it at the loop edge when there is no queue.
void runCompileJob(CompileJob &J);

class CompileClient;

/// The background compiler: one worker thread draining jobs from all
/// registered clients in FIFO order.
class CompileService {
public:
  CompileService();
  ~CompileService(); ///< Joins the worker; queued jobs are dropped.
  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Register a client whose trySubmit() accepts at most \p QueueDepth
  /// unfinished jobs at a time (queued + active).
  std::unique_ptr<CompileClient> createClient(uint32_t QueueDepth);

  /// Test hook: freeze/unfreeze the worker so tests can fill the queue
  /// deterministically (backpressure, shutdown-with-jobs-in-flight).
  void setPausedForTest(bool Paused);

private:
  friend class CompileClient;

  struct Entry {
    CompileClient *Client;
    CompileJob Job;
  };

  void workerMain();

  std::mutex Mu;
  std::condition_variable WorkCv; ///< Worker waits for jobs / unpause.
  std::condition_variable IdleCv; ///< Clients wait for drain / quiesce.
  std::deque<Entry> Queue;
  CompileClient *Active = nullptr; ///< Client whose job the worker holds.
  bool Paused = false;
  bool ShuttingDown = false;
  std::thread Worker; ///< Last member: starts after state is ready.
};

/// One engine's portal to the shared compiler thread. All methods are
/// called from the owning engine thread only.
class CompileClient {
public:
  ~CompileClient(); ///< quiesce(nullptr) + unregister.
  CompileClient(const CompileClient &) = delete;
  CompileClient &operator=(const CompileClient &) = delete;

  /// Enqueue \p J. False (job not taken) when the client's bound is hit or
  /// the service is shutting down -- the monitor treats that as a compile
  /// abort (CompileQueueFull) with the usual backoff.
  bool trySubmit(CompileJob J);

  /// Cheap poll (single atomic load): does drainCompleted() have work?
  /// Checked at every loop edge, so it must not take the service lock.
  bool hasCompleted() const {
    return CompletedFlag.load(std::memory_order_acquire);
  }

  /// Move all finished jobs into \p Out (appended, submit order).
  void drainCompleted(std::vector<CompileJob> &Out);

  /// Pull this client's queued (not yet started) jobs back out of the
  /// service -- appended to \p Dropped with Compiled=false when non-null,
  /// discarded otherwise -- then wait for any active job to finish.
  /// Afterwards no worker touches this client's fragments; completed jobs
  /// (including the one that just finished) remain for drainCompleted().
  void quiesce(std::vector<CompileJob> *Dropped);

  /// Block until every submitted job has completed (tests, benchmarks,
  /// engine teardown; the queue keeps draining -- nothing is dropped).
  void waitIdle();

  /// Jobs submitted but not yet completed (queued + active).
  uint32_t pendingCount() const;

  CompileService &service() { return Svc; }

private:
  friend class CompileService;
  CompileClient(CompileService &S, uint32_t Depth) : Svc(S), Depth(Depth) {}

  CompileService &Svc;
  uint32_t Depth;
  uint32_t Pending = 0;             ///< Guarded by Svc.Mu.
  std::vector<CompileJob> Completed; ///< Guarded by Svc.Mu.
  std::atomic<bool> CompletedFlag{false};
};

} // namespace tracejit

#endif // TRACEJIT_JIT_COMPILE_QUEUE_H

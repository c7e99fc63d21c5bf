//===- server.h - Multi-context script serving harness -----------------------===//
//
// The ROADMAP north star is heavy multi-user traffic; the paper's engine is
// one thread in one VMContext. This layer bridges the two: a ScriptServer
// runs N isolated Engine contexts on a worker pool consuming a stream of
// eval requests.
//
// Isolation and sharing (see DESIGN.md "Threading model"):
//
//  * Each worker thread owns one Engine outright -- heap, globals, trace
//    cache, code pool (its own CodeCacheBytes quota), statistics. Engines
//    are constructed and destroyed on their worker's thread and no engine
//    state ever crosses threads; requests are distributed by whichever
//    worker is free (there is no session affinity -- a request is one
//    self-contained script).
//  * With EngineOptions::OffThreadCompile set, all workers share ONE
//    background compiler thread: the server owns a CompileService and
//    wires it into every engine via SharedCompileService. N contexts get
//    off-main-thread compilation for the price of one extra core.
//
// The request queue is bounded (ServerConfig::QueueDepth): submit() blocks
// the producer when the pool is saturated, which is the backpressure a
// real front door would apply.
//
// Resource governance (see DESIGN.md "Resource governance & interruption"):
// each request may carry a deadline (per-request override or the
// Engine.EvalDeadlineMs default), which the worker hands to Engine::eval;
// the engine's own deadline timer enforces it. A worker whose engine dies
// of OutOfMemory (or fails RecycleAfterFailures requests in a row)
// destroys and rebuilds its Engine on its own thread, banking the old
// engine's statistics, so one poisoned context cannot degrade the rest of
// a long-lived serving process.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_SERVE_SERVER_H
#define TRACEJIT_SERVE_SERVER_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/options.h"
#include "api/result.h"
#include "support/stats.h"

namespace tracejit {

class CompileService;
class Engine;

namespace serve {

struct ServerConfig {
  uint32_t Workers = 1;     ///< Engine contexts (one per worker thread).
  uint32_t QueueDepth = 1024; ///< Bound on requests waiting for a worker.
  /// Options every context is created with. Engine.EvalDeadlineMs is the
  /// default per-request deadline: a request still running past it comes
  /// back with TimedOut set and the worker serves on.
  EngineOptions Engine;
  /// Recycle a worker's engine after this many consecutive failed requests
  /// (0 = only recycle on OutOfMemory). An OOM result always recycles: the
  /// heap that hit its quota starts over empty.
  uint32_t RecycleAfterFailures = 0;
};

/// Outcome of one served request.
struct RequestResult {
  uint64_t Id = 0;
  uint32_t Worker = 0;   ///< Index of the context that served it.
  bool Ok = false;
  bool TimedOut = false; ///< Terminated by its deadline.
  ErrorKind ErrKind = ErrorKind::None; ///< Error taxonomy when !Ok.
  double QueueMs = 0;    ///< submit() -> worker pickup.
  double EvalMs = 0;     ///< Engine::eval wall time.
  double TotalMs = 0;    ///< submit() -> result recorded.
  std::string Error;     ///< EngineError::describe() when !Ok.
  std::string Output;    ///< Everything the script print()ed.
};

/// N engines, one request stream. Not copyable; owns its threads.
class ScriptServer {
public:
  explicit ScriptServer(const ServerConfig &Cfg);
  ~ScriptServer(); ///< stop()s if still running.
  ScriptServer(const ScriptServer &) = delete;
  ScriptServer &operator=(const ScriptServer &) = delete;

  /// Enqueue one script; returns its request id. Blocks while the queue is
  /// at QueueDepth (producer-side backpressure). The request runs under the
  /// Engine.EvalDeadlineMs default deadline. After stop() the server
  /// refuses work: submit returns 0 (never a valid id) and enqueues
  /// nothing.
  uint64_t submit(std::string Source);

  /// Same, with an explicit per-request deadline (milliseconds; 0 = no
  /// deadline, overriding the config default).
  uint64_t submit(std::string Source, uint64_t DeadlineMs);

  /// Block until every submitted request has been served.
  void drain();

  /// drain(), then shut the workers down (each settles its compile queue
  /// and snapshots its stats first). Idempotent.
  void stop();

  /// Move out the results collected so far (unordered across workers).
  std::vector<RequestResult> takeResults();

  /// Per-context statistics snapshots; valid after stop(). Counters
  /// accumulate across engine recycles, so one worker's snapshot covers
  /// every engine it ever ran.
  const std::vector<VMStats> &workerStats() const { return WorkerStats; }

  /// How many times each worker rebuilt its engine (OOM / failure policy).
  std::vector<uint32_t> workerRecycles() const;

  /// The shared background compiler (null unless OffThreadCompile).
  CompileService *compileService() { return CompileSvc.get(); }

private:
  struct PendingRequest {
    uint64_t Id;
    std::string Source;
    std::chrono::steady_clock::time_point Submitted;
    uint64_t DeadlineMs = 0; ///< Resolved at submit (override or default).
  };

  void workerMain(uint32_t Index);

  ServerConfig Cfg;
  std::unique_ptr<CompileService> CompileSvc;

  mutable std::mutex Mu;
  std::condition_variable WorkCv;   ///< Workers wait for requests/stop.
  std::condition_variable SubmitCv; ///< Producers wait for queue space.
  std::condition_variable IdleCv;   ///< drain() waits for quiescence.
  std::deque<PendingRequest> Requests;
  std::vector<RequestResult> Results;
  std::vector<VMStats> WorkerStats;
  std::vector<uint32_t> WorkerRecycles; ///< Per-worker rebuild count.
  uint32_t BusyWorkers = 0;
  uint64_t NextId = 1;
  bool Stopping = false;
  bool Stopped = false;

  std::vector<std::thread> Threads; ///< Last: started after state is ready.
};

} // namespace serve
} // namespace tracejit

#endif // TRACEJIT_SERVE_SERVER_H

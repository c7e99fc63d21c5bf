//===- vmcontext.cpp - Interrupt servicing ----------------------------------===//
//
// The safe-point half of the resource-governance layer: turn pending
// interrupt-request bits into a collection (benign) or a structured script
// termination (deadline / host interrupt / heap quota). Lives out of line
// because termination must reach through the TraceMonitor to abort an
// active recording.
//
//===----------------------------------------------------------------------===//

#include "interp/vmcontext.h"

#include "trace/monitor.h"

namespace tracejit {

void VMContext::serviceInterrupts() {
  uint32_t Bits = PreemptFlag.exchange(0, std::memory_order_acquire);
  if (!Bits)
    return;

  // A collection first: it serves explicit GC requests and gives an
  // over-quota heap the chance to get back under before we call it OOM.
  bool OverQuota = overHeapQuota();
  if ((Bits & InterruptGC) || TheHeap.wantsGC() || OverQuota) {
    {
      ActivityScope T(Stats, Activity::Gc, Opts.CollectStats);
      TheHeap.collect();
    }
    ++Stats.GCs;
    if (EventListener) {
      JitEvent E;
      E.Kind = JitEventKind::GC;
      E.Arg0 = Stats.GCs;
      emitEvent(E);
    }
    OverQuota = overHeapQuota();
  }

  ErrorKind Kind = ErrorKind::None;
  std::string Msg;
  if ((Bits & InterruptHeapQuota) || OverQuota) {
    Kind = ErrorKind::OutOfMemory;
    Msg = "heap quota exceeded (" + std::to_string(TheHeap.bytesAllocated()) +
          " bytes live, quota " + std::to_string(Opts.MaxHeapBytes) + ")";
    ++Stats.HeapQuotaHits;
  } else if (Bits & InterruptDeadline) {
    Kind = ErrorKind::Timeout;
    Msg = "script exceeded its deadline";
    ++Stats.Timeouts;
  } else if (Bits & InterruptHost) {
    Kind = ErrorKind::Interrupted;
    Msg = "script interrupted by host";
    ++Stats.HostInterrupts;
  }
  if (Kind == ErrorKind::None)
    return;

  // Terminating: a recording in flight is about a loop that did nothing
  // wrong, so discard it without feeding the blacklist.
  if (Monitor)
    Monitor->abortForInterrupt();
  raiseError(Kind, Msg);
  if (EventListener) {
    JitEvent E;
    E.Kind = JitEventKind::ScriptInterrupted;
    E.Arg0 = Bits;
    E.Arg1 = (uint64_t)Kind;
    emitEvent(E);
  }
}

} // namespace tracejit

//===- perfbench/src/Trace.h - Spans and timing decorators --------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's instruments. Nothing here changes the runtime: the
/// probe wraps the STM's public hooks (StartGate, TxEventObserver,
/// TxAccessObserver from stm/Observer.h), forwards every call to the
/// wrapped gate/observer, and times the call and the attempt around it.
///
/// Spans (name, start, end, parent) are kept in memory — coarse ones from
/// the main thread without limit, fine ones (attempts, gate waits,
/// controller calls, B-tree operations) in a bounded per-worker buffer —
/// and written out when the benchmark ends. Counts and latency
/// histograms are recorded at the same boundaries and never dropped.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_PERFBENCH_TRACE_H
#define GSTM_PERFBENCH_TRACE_H

#include "Arith.h"

#include "stm/Observer.h"
#include "support/LatencyHistogram.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <time.h>
#include <vector>

namespace perfbench {

inline constexpr unsigned Workers = 4;

/// Monotonic nanoseconds since an arbitrary origin.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of \p Clock in nanoseconds: CLOCK_THREAD_CPUTIME_ID for the
/// calling thread, CLOCK_PROCESS_CPUTIME_ID for all threads of the process.
/// The kernel leaves out time the hypervisor gave to other guests (steal).
inline uint64_t cpuNs(clockid_t Clock) {
  timespec Ts;
  clock_gettime(Clock, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(Ts.tv_nsec);
}

/// In-memory span store. Coarse spans come from the main thread;
/// each worker owns one fine-span lane.
class SpanLog {
public:
  /// Fine spans kept per worker lane; later ones are counted as dropped.
  static constexpr size_t LaneCapacity = size_t{1} << 16;

  SpanLog();

  /// Opens a coarse span; returns its id.
  uint64_t open(const char *Name, uint64_t Parent);
  void close(uint64_t Id);

  /// Fresh span id on worker \p Lane, handed out before the span ends
  /// so children can name it as their parent.
  uint64_t nextId(unsigned Lane) {
    return (uint64_t{Lane + 1} << 48) | Lanes[Lane].NextSeq++;
  }

  /// Records a finished fine span on worker \p Lane (dropped, and
  /// counted, once the lane is full).
  void record(unsigned Lane, uint64_t Id, const char *Name, uint64_t Parent,
              uint64_t StartNs, uint64_t EndNs);

  /// Parent that worker \p Lane's next fine spans hang under.
  uint64_t laneParent(unsigned Lane) const { return Lanes[Lane].Parent; }
  void setLaneParent(unsigned Lane, uint64_t Id) { Lanes[Lane].Parent = Id; }
  /// Points every lane at \p Id (the run whose workers are starting).
  void setAllLaneParents(uint64_t Id) {
    for (Lane &L : Lanes)
      L.Parent = Id;
  }

  std::vector<Span> all() const;
  uint64_t dropped() const;

  /// Writes one JSON object per span, one per line.
  bool writeJsonLines(const std::string &Path) const;

private:
  struct alignas(64) Lane {
    std::vector<Span> Spans;
    uint64_t NextSeq = 1;
    uint64_t Parent = 0;
    uint64_t Dropped = 0;
  };

  std::vector<Span> Coarse;
  Lane Lanes[Workers];
};

/// RAII coarse span; a null log makes it a no-op.
class SpanScope {
public:
  SpanScope(SpanLog *Log, const char *Name, uint64_t Parent = 0)
      : Log(Log), Id(Log ? Log->open(Name, Parent) : 0) {}
  ~SpanScope() {
    if (Log)
      Log->close(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  uint64_t id() const { return Id; }

private:
  SpanLog *Log;
  uint64_t Id;
};

/// Per-side totals the probe accumulates across runs.
struct ProbeTotals {
  gstm::LatencyHistogram AttemptNs;
  gstm::LatencyHistogram CommitNs;
  gstm::LatencyHistogram GateWaitNs;
  gstm::LatencyHistogram OnCommitNs;
  uint64_t Attempts = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t CommittedNs = 0;
  uint64_t AbortedNs = 0;
  uint64_t GateNs = 0;
  uint64_t OnCommitTotalNs = 0;

  void merge(const ProbeTotals &Other);
};

/// Timing decorator over the three STM hooks. Install one probe per run
/// with the run's gate/observer as \p InnerGate / \p InnerObserver (either
/// may be null); the probe forwards every event to them unchanged.
class LayerProbe : public gstm::StartGate,
                   public gstm::TxEventObserver,
                   public gstm::TxAccessObserver {
public:
  LayerProbe(gstm::StartGate *InnerGate, gstm::TxEventObserver *InnerObserver,
             SpanLog *Log);

  void onTxStart(gstm::ThreadId Thread, gstm::TxId Tx) override;
  void onCommit(const gstm::CommitEvent &E) override;
  void onAbort(const gstm::AbortEvent &E) override;
  void onTxBegin(gstm::ThreadId Thread, gstm::TxId Tx,
                 uint64_t ReadVersion) override;
  void onTxLoad(gstm::ThreadId Thread, const void *Addr, uint64_t Value,
                uint64_t Version, bool Buffered) override;
  void onTxStore(gstm::ThreadId Thread, const void *Addr,
                 uint64_t Value) override;
  void onLockAcquire(gstm::ThreadId Thread, uint64_t LockId) override;

  /// Sum over workers. Call after the workers joined.
  ProbeTotals totals() const;

private:
  struct alignas(64) Slot {
    uint64_t AttemptStart = 0;
    uint64_t FirstLock = 0;
    uint64_t AttemptSpan = 0;
    uint64_t AttemptLoads = 0;
    uint64_t AttemptStores = 0;
    ProbeTotals T;
  };

  void endAttempt(Slot &S, unsigned Lane, uint64_t EndNs, bool Committed);

  gstm::StartGate *InnerGate;
  gstm::TxEventObserver *InnerObserver;
  SpanLog *Log;
  std::vector<Slot> Slots;
};

} // namespace perfbench

#endif // GSTM_PERFBENCH_TRACE_H

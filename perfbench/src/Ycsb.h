//===- perfbench/src/Ycsb.h - YCSB-B on the transactional B-tree --------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// YCSB workload B (95% reads, 5% updates, scrambled Zipf theta 0.99) over
/// a TmBTree<Tl2Backend> preloaded with 2^20 records, packaged as a
/// TlWorkload so the profiling/guided pipeline drives it like a STAMP app.
///
/// The tree lives across runs: preload() builds it once per set-up, and
/// each run's setup() only generates that run's operations from its
/// seed. A run is a closed loop: each of the 4 workers starts its next
/// operation when the previous one has returned. Updates overwrite values
/// in place, so the key set never changes and verify() can account for
/// every element exactly.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_PERFBENCH_YCSB_H
#define GSTM_PERFBENCH_YCSB_H

#include "Trace.h"

#include "core/Workload.h"
#include "support/LatencyHistogram.h"
#include "support/SplitMix64.h"
#include "tmds/TmBTree.h"

#include <memory>
#include <vector>

namespace perfbench {

/// YCSB's Zipfian rank generator over [0, N) (Gray et al. closed form).
class Zipfian {
public:
  Zipfian(uint64_t N, double Theta);
  uint64_t next(gstm::SplitMix64 &Rng) const;

private:
  uint64_t N;
  double Theta, Zetan, Alpha, Eta;
};

struct YcsbParams {
  uint64_t Records = uint64_t{1} << 20;
  unsigned ReadPct = 95;
  double Theta = 0.99;
  /// Operations per worker per run.
  uint32_t OpsPerThread = 16384;
};

/// Per-operation latencies of one side, by operation type.
struct YcsbLatency {
  gstm::LatencyHistogram Read;
  gstm::LatencyHistogram Update;
  void merge(const YcsbLatency &O) {
    Read.merge(O.Read);
    Update.merge(O.Update);
  }
};

class YcsbWorkload : public gstm::TlWorkload {
public:
  /// Transaction sites: 0 = read, 1 = update.
  static constexpr gstm::TxId ReadTx = 0, UpdateTx = 1;

  explicit YcsbWorkload(const YcsbParams &Params);
  ~YcsbWorkload() override;

  /// Builds a fresh tree holding keys [1, Records]; single-threaded.
  void preload(uint64_t Seed);

  std::string name() const override { return "ycsb-b"; }
  unsigned numTxSites() const override { return 2; }
  void setup(gstm::Tl2Stm &Stm, unsigned NumThreads, uint64_t Seed) override;
  void threadBody(gstm::Tl2Stm &Stm, gstm::ThreadId Thread) override;
  bool verify(gstm::Tl2Stm &Stm) override;

  /// Attaches the span log the next runs' operations are recorded in
  /// (nullptr to stop).
  void setSpanLog(SpanLog *L) { Log = L; }
  /// Per-operation latencies of the last run (call after verify()).
  const YcsbLatency &lastLatency() const { return Last; }

private:
  using Tree = gstm::TmBTree<gstm::Tl2Backend>;
  struct Op {
    uint64_t Key;
    uint64_t Value;
    bool Update;
  };
  struct alignas(64) Lane {
    std::vector<Op> Ops;
    YcsbLatency Lat;
    uint64_t FailedOps = 0;
  };

  YcsbParams Params;
  Zipfian Zipf;
  std::unique_ptr<Tree::Pool> Nodes;
  std::unique_ptr<Tree> Ds;
  Lane Lanes[Workers];
  YcsbLatency Last;
  SpanLog *Log = nullptr;
};

} // namespace perfbench

#endif // GSTM_PERFBENCH_YCSB_H

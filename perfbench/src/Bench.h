//===- perfbench/src/Bench.h - Workloads, runs and metrics --------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark invocation: build the workload's inputs from the seed,
/// set up (preload, profile, model build, model round trip) several
/// times, then run interleaved default/guided pairs of the measured input
/// on TL2 with its default Tl2Config and 4 closed-loop workers until the
/// time budget is spent. Every run is verified.
///
/// Untraced, the invocation yields the end-to-end metrics. Traced, each
/// iteration runs every side twice, once bare and once under the
/// LayerProbe, and yields the per-layer metrics: counts from the bare
/// runs, times from the probed runs, and their ratio as the tracing cost.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_PERFBENCH_BENCH_H
#define GSTM_PERFBENCH_BENCH_H

#include "Arith.h"
#include "Trace.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

struct BenchOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

struct Metric {
  double Value;
  std::string Unit;
};

struct BenchResult {
  Tally Checks;
  /// The metrics of the requested mode, by name.
  std::map<std::string, Metric> Metrics;
  /// Extra figures printed for people but not declared in BENCHMARK.json
  /// (ycsb-b per-operation times, the traced time split, span self
  /// times).
  std::map<std::string, Metric> Report;
  SpanLog Spans;
};

/// Runs one invocation. Unknown workload names are rejected by the
/// caller (workloadNames()).
void runBenchmark(const BenchOptions &Opts, BenchResult &Out);

} // namespace perfbench

#endif // GSTM_PERFBENCH_BENCH_H

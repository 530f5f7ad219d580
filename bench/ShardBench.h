//===- bench/ShardBench.h - Sharded-tier group-affinity benchmark ---------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded tier's benchmark workload: a grid of workload-level
/// *groups* (contiguous TVar ranges, the placeable unit of
/// shard/Steering.h) hammered by threads that mostly stay inside one
/// group per transaction and occasionally reach into a second one. Under
/// the scatter hash a multi-cell intra-group transaction usually spans
/// shards anyway; with the learned placement each group is single-homed,
/// so only the deliberate cross-group reaches commit across shards. The
/// steered-vs-unsteered cross-shard commit ratio is therefore the
/// headline number (EXPERIMENTS.md `shards` axis), next to the plain
/// ns/op medians that bench_regress gates.
///
/// Every operation's shape (group, cells, cross-group reach) is
/// precomputed outside the transaction bodies, which makes the expected
/// final cell-sum exact: the harness refuses to report a result whose
/// cells do not add up.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_BENCH_SHARDBENCH_H
#define GSTM_BENCH_SHARDBENCH_H

#include <cstdint>
#include <string>

namespace gstm {

/// Configuration of one sharded-tier bench run.
struct ShardBenchConfig {
  unsigned Threads = 8;
  unsigned ShardCount = 4;
  /// Workload-level placeable units; each owns CellsPerGroup TVars.
  unsigned Groups = 32;
  unsigned CellsPerGroup = 32;
  /// Measured transactions per thread.
  uint64_t OpsPerThread = 40000;
  /// Steered mode only: learning-window transactions per thread, run
  /// before the placement is built and the measured window starts.
  uint64_t WarmupOpsPerThread = 8000;
  /// Probability (per mille) that a transaction also writes one cell in
  /// a second, different group — irreducibly cross-shard traffic.
  unsigned CrossPerMille = 0;
  /// Learn a placement from a warmup window and install it before
  /// measuring; false measures the pure scatter hash.
  bool Steering = false;
  uint64_t Seed = 1;
};

/// Outcome of one run; Ok=false (with Error) when the final cell sum
/// disagrees with the precomputed op shapes.
struct ShardBenchResult {
  bool Ok = true;
  std::string Error;
  double WallSeconds = 0;
  uint64_t Operations = 0;
  uint64_t Commits = 0;
  uint64_t Aborts = 0;
  uint64_t CrossShardCommits = 0;

  double nsPerOp() const {
    return Operations ? WallSeconds * 1e9 / static_cast<double>(Operations)
                      : 0;
  }
  /// Fraction of commits whose write set spanned shards.
  double crossShardRatio() const {
    return Commits ? static_cast<double>(CrossShardCommits) /
                         static_cast<double>(Commits)
                   : 0;
  }
};

ShardBenchResult runShardBench(const ShardBenchConfig &Cfg);

} // namespace gstm

#endif // GSTM_BENCH_SHARDBENCH_H

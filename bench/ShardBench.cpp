//===- bench/ShardBench.cpp - Sharded-tier group-affinity benchmark -------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "bench/ShardBench.h"

#include "engine/Sharded.h"
#include "shard/Steering.h"
#include "stm/TVar.h"
#include "support/SplitMix64.h"

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

using namespace gstm;

namespace {

/// One precomputed transaction shape: two increments inside Group, plus
/// (when CrossGroup >= 0) one increment in a second group. Drawing every
/// shape before the run keeps the transaction bodies replay-deterministic
/// and makes the final cell sum exactly predictable.
struct Op {
  uint32_t Group;
  uint32_t CellA;
  uint32_t CellB;
  int32_t CrossGroup; ///< -1: intra-group transaction
  uint32_t CrossCell;
};

/// Builds thread \p T's plan for one window; adds the plan's total
/// increment count (2 or 3 per op) to \p Increments.
std::vector<Op> makePlan(const ShardBenchConfig &Cfg, unsigned T,
                         uint64_t Count, uint64_t Salt,
                         uint64_t &Increments) {
  SplitMix64 Rng((Cfg.Seed + Salt) * 0x9e3779b97f4a7c15ULL + T + 1);
  std::vector<Op> Plan;
  Plan.reserve(Count);
  for (uint64_t I = 0; I < Count; ++I) {
    Op O;
    O.Group = static_cast<uint32_t>(Rng.nextBounded(Cfg.Groups));
    O.CellA = static_cast<uint32_t>(Rng.nextBounded(Cfg.CellsPerGroup));
    do
      O.CellB = static_cast<uint32_t>(Rng.nextBounded(Cfg.CellsPerGroup));
    while (O.CellB == O.CellA);
    O.CrossGroup = -1;
    O.CrossCell = 0;
    if (Cfg.CrossPerMille && Rng.nextBounded(1000) < Cfg.CrossPerMille) {
      uint32_t H;
      do
        H = static_cast<uint32_t>(Rng.nextBounded(Cfg.Groups));
      while (H == O.Group);
      O.CrossGroup = static_cast<int32_t>(H);
      O.CrossCell = static_cast<uint32_t>(Rng.nextBounded(Cfg.CellsPerGroup));
    }
    Increments += O.CrossGroup >= 0 ? 3 : 2;
    Plan.push_back(O);
  }
  return Plan;
}

/// Executes one thread's plan on its own descriptor.
void runWindow(ShardedStm &Stm, TVar<uint64_t> *Cells,
               const ShardBenchConfig &Cfg, unsigned T,
               const std::vector<Op> &Plan) {
  ShardedTxn Txn(Stm, T);
  for (const Op &O : Plan) {
    TVar<uint64_t> *Base = Cells + size_t{O.Group} * Cfg.CellsPerGroup;
    TVar<uint64_t> &A = Base[O.CellA];
    TVar<uint64_t> &B = Base[O.CellB];
    TVar<uint64_t> *X =
        O.CrossGroup >= 0
            ? Cells + size_t(O.CrossGroup) * Cfg.CellsPerGroup + O.CrossCell
            : nullptr;
    Txn.state().AffinityGroup = O.Group;
    Txn.run(0, [&](ShardedTxn &Tx) {
      Tx.store(A, Tx.load(A) + 1);
      Tx.store(B, Tx.load(B) + 1);
      if (X)
        Tx.store(*X, Tx.load(*X) + 1);
    });
  }
}

/// Runs one window on every thread. \p Listener is only attached during
/// steering learning windows.
void runAllThreads(ShardedStm &Stm, TVar<uint64_t> *Cells,
                   const ShardBenchConfig &Cfg,
                   const std::vector<std::vector<Op>> &Plans,
                   ShardCommitListener *Listener) {
  Stm.table().setCommitListener(Listener);
  std::vector<std::thread> Workers;
  Workers.reserve(Cfg.Threads);
  for (unsigned T = 0; T < Cfg.Threads; ++T)
    Workers.emplace_back([&, T] {
      runWindow(Stm, Cells, Cfg, T, Plans[T]);
    });
  for (std::thread &W : Workers)
    W.join();
}

} // namespace

ShardBenchResult gstm::runShardBench(const ShardBenchConfig &Cfg) {
  ShardBenchResult R;
  if (!Cfg.Threads || !Cfg.Groups || Cfg.CellsPerGroup < 2 ||
      !ShardedTable::validShardCount(Cfg.ShardCount)) {
    R.Ok = false;
    R.Error = "invalid shard bench configuration";
    return R;
  }
  if (Cfg.CrossPerMille && Cfg.Groups < 2) {
    R.Ok = false;
    R.Error = "cross-group traffic needs at least two groups";
    return R;
  }

  EngineConfig SC;
  SC.Shards = Cfg.ShardCount;
  ShardedStm Stm(SC);

  const size_t CellCount = size_t{Cfg.Groups} * Cfg.CellsPerGroup;
  std::unique_ptr<TVar<uint64_t>[]> Cells(new TVar<uint64_t>[CellCount]);

  uint64_t ExpectedIncrements = 0;
  std::vector<std::vector<Op>> MeasurePlans;
  MeasurePlans.reserve(Cfg.Threads);
  for (unsigned T = 0; T < Cfg.Threads; ++T)
    MeasurePlans.push_back(
        makePlan(Cfg, T, Cfg.OpsPerThread, /*Salt=*/2, ExpectedIncrements));

  // Steered mode: run a learning window with the listener attached, then
  // drain the commit stream, compile the greedy placement, and install it
  // at this (quiescent) point. The telemetry is reset so the measured
  // window reports only post-placement behavior.
  ShardSteering Steering(Cfg.Threads, Cfg.ShardCount);
  ShardPlacement Learned;
  if (Cfg.Steering) {
    for (unsigned G = 0; G < Cfg.Groups; ++G) {
      TVar<uint64_t> *Base = Cells.get() + size_t{G} * Cfg.CellsPerGroup;
      Steering.registerGroup(G, Base, Base + Cfg.CellsPerGroup);
    }
    std::vector<std::vector<Op>> WarmPlans;
    WarmPlans.reserve(Cfg.Threads);
    for (unsigned T = 0; T < Cfg.Threads; ++T)
      WarmPlans.push_back(makePlan(Cfg, T, Cfg.WarmupOpsPerThread,
                                   /*Salt=*/1, ExpectedIncrements));
    runAllThreads(Stm, Cells.get(), Cfg, WarmPlans, &Steering);
    Steering.drain();
    Learned = Steering.buildPlacement();
    Stm.table().setPlacement(&Learned);
    Stm.stats().reset();
  }

  auto Start = std::chrono::steady_clock::now();
  runAllThreads(Stm, Cells.get(), Cfg, MeasurePlans, nullptr);
  auto End = std::chrono::steady_clock::now();
  R.WallSeconds = std::chrono::duration<double>(End - Start).count();
  R.Operations = uint64_t{Cfg.Threads} * Cfg.OpsPerThread;

  StatsSnapshot Agg = Stm.stats().aggregate();
  R.Commits = Agg.Commits;
  R.Aborts = Agg.Aborts;
  R.CrossShardCommits = Agg.CrossShardCommits;

  // Honest-accounting gate: every increment the plans promised must be in
  // the cells, or the timing numbers describe a broken run.
  uint64_t Sum = 0;
  for (size_t I = 0; I < CellCount; ++I)
    Sum += Cells[I].loadDirect();
  if (Sum != ExpectedIncrements) {
    R.Ok = false;
    R.Error = "cell sum " + std::to_string(Sum) + " != expected " +
              std::to_string(ExpectedIncrements);
  }
  return R;
}

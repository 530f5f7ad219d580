//===- shard/Steering.cpp - Model-steered home-shard placement ------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "shard/Steering.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace gstm;

ShardSteering::ShardSteering(unsigned Threads, unsigned Shards,
                             const SteeringConfig &Config)
    : Cfg(Config), ShardCount(Shards), Lanes(Threads) {
  assert(Shards >= 1 && Shards <= MaxShardCount);
  for (Lane &L : Lanes)
    L.Slots.resize(Cfg.RingCapacity);
}

void ShardSteering::registerGroup(uint32_t Group, const void *Begin,
                                  const void *End) {
  assert(Begin < End && "empty group range");
  GroupInfo &G = Groups[Group];
  G.Begin = reinterpret_cast<uintptr_t>(Begin);
  G.End = reinterpret_cast<uintptr_t>(End);
}

void ShardSteering::onShardCommit(ThreadId Thread, uint32_t Group,
                                  uint64_t ShardMask, bool CrossShard) {
  (void)CrossShard; // derivable from the mask; not buffered
  if (Group == ShardedPolicy::NoAffinity)
    return;
  Lane &L = Lanes[static_cast<size_t>(Thread)];
  L.Observed.store(L.Observed.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  uint64_t Head = L.Head.load(std::memory_order_relaxed);
  uint64_t Tail = L.Tail.load(std::memory_order_acquire);
  if (Head - Tail >= L.Slots.size()) {
    L.Dropped.store(L.Dropped.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    return;
  }
  L.Slots[Head % L.Slots.size()] = Event{Group, ShardMask};
  L.Head.store(Head + 1, std::memory_order_release);
}

size_t ShardSteering::drain() {
  size_t Consumed = 0;
  for (Lane &L : Lanes) {
    uint64_t Tail = L.Tail.load(std::memory_order_relaxed);
    uint64_t Head = L.Head.load(std::memory_order_acquire);
    for (; Tail != Head; ++Tail) {
      const Event &E = L.Slots[Tail % L.Slots.size()];
      GroupInfo &G = Groups[E.Group];
      G.Traffic += 1.0;
      uint64_t Mask = E.ShardMask;
      if (std::popcount(Mask) > 1) {
        G.Cross += 1.0;
        ++CrossDrained;
      }
      while (Mask) {
        unsigned Shard = static_cast<unsigned>(std::countr_zero(Mask));
        if (Shard < MaxShardCount)
          G.PerShard[Shard] += 1.0;
        Mask &= Mask - 1;
      }
      ++Consumed;
    }
    L.Tail.store(Tail, std::memory_order_release);
  }
  DrainedCount += Consumed;
  return Consumed;
}

void ShardSteering::decay() {
  for (auto &[Group, G] : Groups) {
    G.Traffic *= Cfg.DecayFactor;
    G.Cross *= Cfg.DecayFactor;
    for (double &W : G.PerShard)
      W *= Cfg.DecayFactor;
  }
}

ShardPlacement ShardSteering::buildPlacement() const {
  // Collect the placeable groups: registered range, observed traffic.
  std::vector<const GroupInfo *> Placeable;
  double Total = 0;
  for (const auto &[Group, G] : Groups) {
    if (G.End <= G.Begin || G.Traffic <= 0)
      continue;
    Placeable.push_back(&G);
    Total += G.Traffic;
  }
  std::sort(Placeable.begin(), Placeable.end(),
            [](const GroupInfo *A, const GroupInfo *B) {
              return A->Traffic > B->Traffic;
            });

  // Heaviest groups first, each to its highest-affinity shard; once a
  // shard's assigned traffic exceeds the slacked fair share, further
  // groups overflow to the least-loaded shard so one hot shard cannot
  // absorb the whole working set.
  const double LoadLimit =
      ShardCount ? Cfg.BalanceSlack * Total / ShardCount : 0;
  std::vector<double> Load(ShardCount, 0.0);
  ShardPlacement Placement;
  for (const GroupInfo *G : Placeable) {
    unsigned Best = 0;
    double BestAffinity = -1.0;
    unsigned Lightest = 0;
    for (unsigned S = 0; S < ShardCount; ++S) {
      if (G->PerShard[S] > BestAffinity && Load[S] < LoadLimit) {
        BestAffinity = G->PerShard[S];
        Best = S;
      }
      if (Load[S] < Load[Lightest])
        Lightest = S;
    }
    unsigned Target = BestAffinity >= 0 ? Best : Lightest;
    Load[Target] += G->Traffic;
    Placement.addRange(reinterpret_cast<const void *>(G->Begin),
                       reinterpret_cast<const void *>(G->End), Target);
  }
  Placement.finalize();
  return Placement;
}

SteeringStats ShardSteering::stats() const {
  SteeringStats Out;
  for (const Lane &L : Lanes) {
    Out.Observed += L.Observed.load(std::memory_order_relaxed);
    Out.Dropped += L.Dropped.load(std::memory_order_relaxed);
  }
  Out.Drained = DrainedCount;
  Out.CrossShardDrained = CrossDrained;
  Out.Groups = Groups.size();
  return Out;
}

//===- perfbench/src/Ycsb.cpp -------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "Ycsb.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace perfbench;
using namespace gstm;

namespace {

/// SplitMix64 finalizer: a stateless 64-bit hash.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

double zeta(uint64_t N, double Theta) {
  double Sum = 0;
  for (uint64_t I = 1; I <= N; ++I)
    Sum += 1.0 / std::pow(static_cast<double>(I), Theta);
  return Sum;
}

/// Scrambled Zipf: popular ranks hash to keys spread over [1, Records],
/// so hot keys do not cluster in one subtree (YCSB scrambled_zipfian).
uint64_t scrambleToKey(uint64_t Rank, uint64_t Records) {
  return 1 + mix64(Rank) % Records;
}

uint64_t valueFor(uint64_t Key, uint64_t Salt) {
  return mix64(Key ^ (Salt * 0x9e3779b97f4a7c15ULL));
}

/// Nodes needed for ascending preload: preemptive splits leave leaves
/// about half full (MinDegree - 1 keys), plus interior nodes and slack.
uint32_t poolCapacity(uint64_t Records) {
  return static_cast<uint32_t>(Records / 6 + 4096);
}

} // namespace

Zipfian::Zipfian(uint64_t N, double Theta)
    : N(N), Theta(Theta), Zetan(zeta(N, Theta)), Alpha(1.0 / (1.0 - Theta)),
      Eta((1.0 - std::pow(2.0 / static_cast<double>(N), 1.0 - Theta)) /
          (1.0 - zeta(2, Theta) / Zetan)) {}

uint64_t Zipfian::next(SplitMix64 &Rng) const {
  const double U = static_cast<double>(Rng.next() >> 11) * 0x1.0p-53;
  const double Uz = U * Zetan;
  if (Uz < 1.0)
    return 0;
  if (Uz < 1.0 + std::pow(0.5, Theta))
    return 1;
  uint64_t Rank = static_cast<uint64_t>(
      static_cast<double>(N) * std::pow(Eta * U - Eta + 1.0, Alpha));
  return std::min(Rank, N - 1);
}

YcsbWorkload::YcsbWorkload(const YcsbParams &Params)
    : Params(Params), Zipf(Params.Records, Params.Theta) {}

YcsbWorkload::~YcsbWorkload() = default;

void YcsbWorkload::preload(uint64_t Seed) {
  Ds.reset();
  Nodes = std::make_unique<Tree::Pool>(poolCapacity(Params.Records));
  Ds = std::make_unique<Tree>(*Nodes);
  // A private runtime: the tree's words carry no version state of their
  // own, so every later run may use a fresh Tl2Stm over the same tree.
  Tl2Stm Stm;
  Tl2Txn Tx0(Stm, 0);
  for (uint64_t Lo = 1; Lo <= Params.Records; Lo += 512) {
    const uint64_t Hi = std::min(Params.Records, Lo + 511);
    Tx0.run(0, [&](Tl2Txn &Tx) {
      for (uint64_t K = Lo; K <= Hi; ++K)
        Ds->insert(Tx, K, valueFor(K, Seed));
    });
  }
}

void YcsbWorkload::setup(Tl2Stm &, unsigned NumThreads, uint64_t Seed) {
  assert(NumThreads == Workers && Ds && "preload() first, one lane per worker");
  (void)NumThreads;
  for (unsigned T = 0; T < Workers; ++T) {
    Lane &L = Lanes[T];
    SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ULL + T + 1);
    L.Ops.resize(Params.OpsPerThread);
    for (uint32_t I = 0; I < Params.OpsPerThread; ++I) {
      Op &O = L.Ops[I];
      O.Update = Rng.nextBounded(100) >= Params.ReadPct;
      O.Key = scrambleToKey(Zipf.next(Rng), Params.Records);
      O.Value = valueFor(O.Key, Rng.next());
    }
    L.Lat = YcsbLatency();
    L.FailedOps = 0;
  }
}

void YcsbWorkload::threadBody(Tl2Stm &Stm, ThreadId Thread) {
  Lane &L = Lanes[Thread];
  Tl2Txn Txn(Stm, Thread);
  const uint64_t RunSpan = Log ? Log->laneParent(Thread) : 0;
  for (const Op &O : L.Ops) {
    bool Found = false;
    uint64_t OpSpan = 0;
    if (Log) {
      OpSpan = Log->nextId(Thread);
      Log->setLaneParent(Thread, OpSpan);
    }
    const uint64_t Start = nowNs();
    if (O.Update)
      Txn.run(UpdateTx, [&](Tl2Txn &Tx) {
        Found = Ds->update(Tx, O.Key, O.Value);
      });
    else
      Txn.run(ReadTx, [&](Tl2Txn &Tx) {
        Found = Ds->find(Tx, O.Key).has_value();
      });
    const uint64_t End = nowNs();
    (O.Update ? L.Lat.Update : L.Lat.Read).record(End - Start);
    if (!Found)
      ++L.FailedOps;
    if (Log) {
      Log->record(Thread, OpSpan, O.Update ? "tmds.update" : "tmds.read",
                  RunSpan, Start, End);
      Log->setLaneParent(Thread, RunSpan);
    }
  }
}

bool YcsbWorkload::verify(Tl2Stm &) {
  // Every read and update must have found its key.
  Last = YcsbLatency();
  uint64_t FailedOps = 0;
  for (const Lane &L : Lanes) {
    Last.merge(L.Lat);
    FailedOps += L.FailedOps;
  }
  if (!Ds->validateDirect() || Ds->sizeDirect() != Params.Records)
    return false;
  // Exact element accounting: the keys are exactly 1..Records.
  uint64_t Expected = 1;
  bool Exact = true;
  Ds->forEachDirect([&](uint64_t Key, uint64_t) {
    Exact = Exact && Key == Expected;
    ++Expected;
  });
  return Exact && Expected == Params.Records + 1 && FailedOps == 0;
}

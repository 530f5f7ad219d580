//===- stm/StatsShard.cpp --------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "stm/StatsShard.h"

using namespace gstm;

const char *gstm::abortCauseName(AbortCauseKind Kind) {
  switch (Kind) {
  case AbortCauseKind::KnownCommitter:
    return "known_committer";
  case AbortCauseKind::UnknownCommitter:
    return "unknown_committer";
  case AbortCauseKind::Explicit:
    return "explicit";
  }
  return "invalid";
}

const char *gstm::abortSiteName(AbortSite Site) {
  switch (Site) {
  case AbortSite::Read:
    return "read";
  case AbortSite::LockAcquire:
    return "lock_acquire";
  case AbortSite::CommitValidate:
    return "commit_validate";
  case AbortSite::Explicit:
    return "explicit";
  }
  return "invalid";
}

void StatsSnapshot::merge(const StatsSnapshot &Other) {
  Commits += Other.Commits;
  ReadOnlyCommits += Other.ReadOnlyCommits;
  Aborts += Other.Aborts;
  for (size_t I = 0; I < NumAbortCauses; ++I)
    AbortsByCause[I] += Other.AbortsByCause[I];
  for (size_t I = 0; I < NumAbortSites; ++I)
    AbortsBySite[I] += Other.AbortsBySite[I];
  for (size_t I = 0; I < RetryHistogramBuckets; ++I)
    RetryHistogram[I] += Other.RetryHistogram[I];
  Attempts += Other.Attempts;
  AttemptNanos += Other.AttemptNanos;
  CommitRingLookups += Other.CommitRingLookups;
  CommitRingMisses += Other.CommitRingMisses;
  CrossShardCommits += Other.CrossShardCommits;
  CrossShardAborts += Other.CrossShardAborts;
}

uint64_t StatsSnapshot::causeTotal() const {
  uint64_t Total = 0;
  for (uint64_t C : AbortsByCause)
    Total += C;
  return Total;
}

uint64_t StatsSnapshot::siteTotal() const {
  uint64_t Total = 0;
  for (uint64_t C : AbortsBySite)
    Total += C;
  return Total;
}

uint64_t StatsSnapshot::retryTotal() const {
  uint64_t Total = 0;
  for (uint64_t C : RetryHistogram)
    Total += C;
  return Total;
}

StatsSnapshot ShardedStats::snapshotShard(size_t Index) const {
  const StatsShard &S = Shards[Index & (StatsShardCount - 1)];
  StatsSnapshot Out;
  Out.ReadOnlyCommits = S.ReadOnlyCommits.load(std::memory_order_relaxed);
  for (size_t I = 0; I < NumAbortCauses; ++I)
    Out.AbortsByCause[I] = S.AbortsByCause[I].load(std::memory_order_relaxed);
  for (size_t I = 0; I < NumAbortSites; ++I)
    Out.AbortsBySite[I] = S.AbortsBySite[I].load(std::memory_order_relaxed);
  for (size_t I = 0; I < RetryHistogramBuckets; ++I)
    Out.RetryHistogram[I] =
        S.RetryHistogram[I].load(std::memory_order_relaxed);
  Out.Attempts = S.Attempts.load(std::memory_order_relaxed);
  Out.AttemptNanos = S.AttemptNanos.load(std::memory_order_relaxed);
  Out.CommitRingLookups =
      S.CommitRingLookups.load(std::memory_order_relaxed);
  Out.CommitRingMisses = S.CommitRingMisses.load(std::memory_order_relaxed);
  Out.CrossShardCommits =
      S.CrossShardCommits.load(std::memory_order_relaxed);
  Out.CrossShardAborts = S.CrossShardAborts.load(std::memory_order_relaxed);
  // Totals are derived, not stored: the shard's hot path only maintains
  // the breakdowns.
  Out.Commits = Out.retryTotal();
  Out.Aborts = Out.causeTotal();
  return Out;
}

StatsSnapshot ShardedStats::aggregate() const {
  StatsSnapshot Total;
  for (size_t I = 0; I < StatsShardCount; ++I)
    Total.merge(snapshotShard(I));
  return Total;
}

uint64_t ShardedStats::commits() const {
  uint64_t Total = 0;
  for (const StatsShard &S : Shards)
    for (size_t I = 0; I < RetryHistogramBuckets; ++I)
      Total += S.RetryHistogram[I].load(std::memory_order_relaxed);
  return Total;
}

uint64_t ShardedStats::aborts() const {
  uint64_t Total = 0;
  for (const StatsShard &S : Shards)
    for (size_t I = 0; I < NumAbortCauses; ++I)
      Total += S.AbortsByCause[I].load(std::memory_order_relaxed);
  return Total;
}

void ShardedStats::reset() {
  for (StatsShard &S : Shards) {
    S.ReadOnlyCommits.store(0, std::memory_order_relaxed);
    for (size_t I = 0; I < NumAbortCauses; ++I)
      S.AbortsByCause[I].store(0, std::memory_order_relaxed);
    for (size_t I = 0; I < NumAbortSites; ++I)
      S.AbortsBySite[I].store(0, std::memory_order_relaxed);
    for (size_t I = 0; I < RetryHistogramBuckets; ++I)
      S.RetryHistogram[I].store(0, std::memory_order_relaxed);
    S.Attempts.store(0, std::memory_order_relaxed);
    S.AttemptNanos.store(0, std::memory_order_relaxed);
    S.CommitRingLookups.store(0, std::memory_order_relaxed);
    S.CommitRingMisses.store(0, std::memory_order_relaxed);
    S.CrossShardCommits.store(0, std::memory_order_relaxed);
    S.CrossShardAborts.store(0, std::memory_order_relaxed);
  }
}

//===- engine/Sharded.h - The sharded tier as a TL2 engine policy --------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded tier (ROADMAP item 4), the shared-memory analogue of
/// ClusterSTM's address-distributed orec space, as a policy of the engine
/// chassis. Its table is one contiguous array of `Shards << TableBits`
/// stripes: every data word has a home shard — the steering pass's
/// explicit placement (shard/Steering.h) or else the top bits of the mix
/// hash — and its orec is a stripe in that shard's block,
///
///   index = homeShard(addr) << TableBits | stripe(addr).
///
/// Ordered by index is therefore ordered by shard and then by address,
/// so the policy is TL2 unchanged: the sorted commit-time acquisition,
/// the validation slow pass that binary-searches held orecs by address,
/// and the one publish tail (OrecEagerPolicy::publish, with its single
/// fence contract) serve single- and cross-shard commits alike. Write
/// versions come from the chassis clock and are attributed through the
/// chassis commit ring, like every other engine's.
///
/// What the policy adds is bookkeeping the steering pass learns from:
/// the shards each attempt touched (an orec index's shard is `index >>
/// TableBits`, no second hash), exact CrossShardCommits /
/// CrossShardAborts counters, and a commit hook on the table reporting
/// (affinity group, touched-shard mask) to a ShardCommitListener. The
/// affinity group is sticky per descriptor (TxnState::AffinityGroup).
/// See DESIGN.md §4j.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_ENGINE_SHARDED_H
#define GSTM_ENGINE_SHARDED_H

#include "engine/Tl2.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace gstm {

/// Upper bound on shards per runtime: touched-shard masks are one 64-bit
/// word.
inline constexpr unsigned MaxShardCount = 64;

/// Canonical `key=value;` rendering of the shard knobs that select
/// distinct model-store keys, appended to a workload's canonical config
/// string before ModelStore::hashConfigString (tools/model_ctl.cpp). The
/// shard hash is always the mix hash; its key stays in the string so
/// existing stores keep resolving.
inline std::string shardConfigCanonical(unsigned Shards, bool Steering) {
  return "shards=" + std::to_string(Shards) + ";shard-hash=mix;steer=" +
         (Steering ? "1" : "0") + ";";
}

/// Explicit address-range -> home-shard map, the output of the steering
/// pass (shard/Steering.h). Ranges are half-open [Begin, End) over raw
/// word addresses; addresses outside every range fall back to the hash.
/// Install via ShardedTable::setPlacement at a quiescent point only: a
/// word's orec lives in its home shard's block, so remapping an address
/// mid-run would silently split one location's version history across
/// two orecs.
class ShardPlacement {
public:
  /// Maps [Begin, End) to \p Shard. Ranges must not overlap.
  void addRange(const void *Begin, const void *End, unsigned Shard) {
    assert(Begin < End && "empty placement range");
    Ranges.push_back(Range{reinterpret_cast<uintptr_t>(Begin),
                           reinterpret_cast<uintptr_t>(End), Shard});
    Finalized = false;
  }

  /// Sorts the ranges; must be called before the map is installed.
  void finalize() {
    std::sort(Ranges.begin(), Ranges.end(),
              [](const Range &A, const Range &B) { return A.Begin < B.Begin; });
    for (size_t I = 1; I < Ranges.size(); ++I)
      assert(Ranges[I - 1].End <= Ranges[I].Begin &&
             "overlapping placement ranges");
    Finalized = true;
  }

  /// Home shard of \p Addr, or -1 when no range covers it.
  int lookup(const void *Addr) const {
    assert(Finalized && "lookup on an unfinalized placement");
    uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
    auto It = std::upper_bound(
        Ranges.begin(), Ranges.end(), A,
        [](uintptr_t Key, const Range &R) { return Key < R.Begin; });
    if (It == Ranges.begin())
      return -1;
    --It;
    return A < It->End ? static_cast<int>(It->Shard) : -1;
  }

private:
  struct Range {
    uintptr_t Begin;
    uintptr_t End;
    unsigned Shard;
  };
  std::vector<Range> Ranges;
  bool Finalized = false;
};

/// Commit hook of the steering learner (shard/Steering.h): receives
/// (affinity group, touched-shard mask, cross-shard?) after every writer
/// commit.
class ShardCommitListener {
public:
  virtual ~ShardCommitListener() = default;
  virtual void onShardCommit(ThreadId Thread, uint32_t Group,
                             uint64_t ShardMask, bool CrossShard) = 0;
};

/// The sharded policy's orec table: one LockTable of `Shards << Bits`
/// stripes, shard s owning the block [s << Bits, (s + 1) << Bits).
/// indexFor/stripeFor shadow LockTable's and are the only address
/// mapping the sharded policy uses; the inherited array accessors
/// (size, stripeAt) and the whole-table quiescence check apply as is.
/// One mix hash yields both the stripe (low bits) and the hashed home
/// shard (top bits); EngineConfig::StripeHash is not read.
class ShardedTable : public LockTable {
public:
  /// Refuses, in every build, a shard count that is not a power of two
  /// in [1, MaxShardCount]: the index arithmetic masks by Shards - 1, so
  /// any other count would leave shards that nothing is homed on.
  ShardedTable(unsigned Bits, unsigned Shards)
      : LockTable(Bits + checkedShardBits(Shards), StripeHashKind::Mix),
        Base(&stripeAt(0)), StripeBits(Bits),
        StripeMask((size_t{1} << Bits) - 1), ShardMask(Shards - 1) {}

  /// True when \p Shards is a count the table accepts.
  static bool validShardCount(unsigned Shards) {
    return Shards >= 1 && Shards <= MaxShardCount &&
           std::has_single_bit(Shards);
  }

  size_t indexFor(const void *Addr) const {
    // LockTable's Mix finalizer, once: its top bits hash the home shard,
    // its low bits pick the stripe. (Calling a shared helper from
    // LockTable::indexFor changes how GCC inlines TL2's commit path.)
    uint64_t Key = reinterpret_cast<uintptr_t>(Addr) >> 3;
    Key ^= Key >> 33;
    Key *= 0xff51afd7ed558ccdULL;
    Key ^= Key >> 29;
    Key *= 0xc4ceb9fe1a85ec53ULL;
    Key ^= Key >> 32;
    size_t Shard = static_cast<size_t>(Key >> 58) & ShardMask;
    if (const ShardPlacement *P = Placement.load(std::memory_order_acquire))
      if (int Explicit = P->lookup(Addr); Explicit >= 0)
        Shard = static_cast<size_t>(Explicit);
    return Shard << StripeBits | (static_cast<size_t>(Key) & StripeMask);
  }

  std::atomic<uint64_t> &stripeFor(const void *Addr) {
    return stripeAt(indexFor(Addr));
  }

  /// Shard whose block holds stripe \p Index.
  size_t shardOf(size_t Index) const { return Index >> StripeBits; }
  /// Shard whose block holds \p Stripe, one of this table's words.
  size_t shardOf(const std::atomic<uint64_t> *Stripe) const {
    return shardOf(static_cast<size_t>(Stripe - Base));
  }
  /// Home shard of \p Addr under the active placement and hash.
  size_t homeShard(const void *Addr) const {
    return shardOf(indexFor(Addr));
  }

  /// Installs an explicit placement (nullptr restores pure hashing). Only
  /// at a quiescent point: no running transactions, all prior commits
  /// drained (see ShardPlacement).
  void setPlacement(const ShardPlacement *P) {
    Placement.store(P, std::memory_order_release);
  }

  /// Installs the steering learner's commit hook (nullptr to detach). Not
  /// while transactions are running.
  void setCommitListener(ShardCommitListener *L) { Listener = L; }
  ShardCommitListener *commitListener() const { return Listener; }

private:
  static unsigned checkedShardBits(unsigned Shards) {
    if (!validShardCount(Shards)) {
      std::fprintf(stderr,
                   "fatal: shard count %u is not a power of two in "
                   "[1, %u]\n",
                   Shards, MaxShardCount);
      std::abort();
    }
    return static_cast<unsigned>(std::countr_zero(Shards));
  }

  const std::atomic<uint64_t> *Base;
  unsigned StripeBits;
  size_t StripeMask;
  size_t ShardMask;
  std::atomic<const ShardPlacement *> Placement{nullptr};
  ShardCommitListener *Listener = nullptr;
};

/// TL2 over the sharded table, plus the touched-shard bookkeeping. Loads,
/// stores and both detection modes are TL2's; the shards an attempt
/// touched are derived from orec indices, never rehashed: the read set's
/// stripes, the orecs it holds, and the commit's sorted write indices
/// (StripeScratch).
struct ShardedPolicy : Tl2Policy {
  using Table = ShardedTable;
  static constexpr const char *Name = "sharded";
  /// Per-shard block; two bits below TL2's table, so the default four
  /// shards span as many stripes as one TL2 table.
  static constexpr unsigned DefaultTableBits = 18;
  /// TxnState::AffinityGroup value that reports no group.
  static constexpr uint32_t NoAffinity = ~uint32_t{0};

  struct TxnState : Tl2Policy::TxnState {
    /// Steering affinity: the workload-level group (e.g. a key
    /// partition) the descriptor's next transactions operate on,
    /// reported with each writer commit so the learner can attribute
    /// cross-shard traffic to a placeable unit. Set by the workload and
    /// sticky — clear() keeps it.
    uint32_t AffinityGroup = NoAffinity;

    void clear() {
      Tl2Policy::TxnState::clear();
      // Empty until a lazy commit sorts the write set, so an attempt
      // that dies in its body counts only the shards it read or holds.
      StripeScratch.clear();
    }
  };

  template <typename TxnT> static uint64_t commit(TxnT &Tx) {
    const TxnState &St = Tx.state();
    const ShardedTable &T = Tx.rt().table();
    // Eager writes hold their orecs already; publish releases them.
    uint64_t Writes = heldShards(T, St);
    uint64_t Wv = Tl2Policy::commit(Tx);
    // Read-only (wv 0): nothing was locked or published, so a reader
    // spanning shards is not a cross-shard commit.
    if (Wv == 0)
      return 0;
    Writes |= sortedWriteShards(T, St);
    const bool CrossShard = spansShards(Writes);
    if (CrossShard)
      Tx.statsShard().recordCrossShardCommit();
    if (ShardCommitListener *L = T.commitListener())
      L->onShardCommit(Tx.threadId(), St.AffinityGroup,
                       readShards(T, St) | Writes, CrossShard);
    return Wv;
  }

  /// Cross-shard abort accounting keyed on the shards the attempt had
  /// touched when it died, then TL2's rollback.
  template <typename TxnT> static void onAbortCleanup(TxnT &Tx) {
    const TxnState &St = Tx.state();
    const ShardedTable &T = Tx.rt().table();
    if (spansShards(readShards(T, St) | heldShards(T, St) |
                    sortedWriteShards(T, St)))
      Tx.statsShard().recordCrossShardAbort();
    Tl2Policy::onAbortCleanup(Tx);
  }

private:
  static bool spansShards(uint64_t Mask) { return (Mask & (Mask - 1)) != 0; }

  static uint64_t readShards(const ShardedTable &T, const TxnState &St) {
    uint64_t Mask = 0;
    for (const std::atomic<uint64_t> *Orec : St.ReadSet)
      Mask |= uint64_t{1} << T.shardOf(Orec);
    return Mask;
  }

  static uint64_t heldShards(const ShardedTable &T, const TxnState &St) {
    uint64_t Mask = 0;
    for (const Held &H : St.Acquired)
      Mask |= uint64_t{1} << T.shardOf(H.Orec);
    return Mask;
  }

  static uint64_t sortedWriteShards(const ShardedTable &T,
                                    const TxnState &St) {
    uint64_t Mask = 0;
    for (size_t Index : St.StripeScratch)
      Mask |= uint64_t{1} << T.shardOf(Index);
    return Mask;
  }
};

/// Engine-family aliases, the names the shard bench, fuzzer and tests
/// use.
using ShardedStm = EngineStm<ShardedPolicy>;
using ShardedTxn = EngineTxn<ShardedPolicy>;

} // namespace gstm

#endif // GSTM_ENGINE_SHARDED_H

//===- stamp/TmPool.h - Node pool for transactional structures -----------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-capacity node arena used by the transactional containers.
///
/// Memory management under speculation follows the STAMP discipline:
/// nodes are allocated with a thread-safe bump pointer and nothing is
/// freed until the concurrent phase ends — freeing a node another
/// speculative reader may still dereference would be a use-after-free,
/// so unlinked nodes stay allocated until teardown. The one exception is
/// a node whose allocating attempt aborted: it was never published, so
/// allocate(Tx) hands it to the same thread's next attempt instead of
/// leaking it. Index 0 is reserved as the null sentinel.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STAMP_TMPOOL_H
#define GSTM_STAMP_TMPOOL_H

#include "support/Ids.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

namespace gstm {

/// Index-addressed arena of default-constructed nodes.
///
/// Containers link nodes by 32-bit pool index rather than raw pointer so
/// links fit in one TVar word alongside tag bits if needed.
template <typename NodeT> class TmPool {
public:
  static constexpr uint32_t Null = 0;

  /// Creates a pool able to hand out \p Capacity nodes (excluding the
  /// null sentinel at index 0).
  explicit TmPool(uint32_t Capacity)
      : CapacityPlusNull(Capacity + 1),
        Nodes(std::make_unique<NodeT[]>(Capacity + 1)), Next(1) {}

  /// Allocates one node for the attempt in flight on \p Tx (a
  /// TxnExecutor-derived descriptor). Nodes taken by an attempt that then
  /// aborted are free again, since no pointer to them was ever
  /// published: the same descriptor's next attempt gets them back before
  /// any fresh index, so a retry loop consumes no more of the pool than
  /// its largest attempt does.
  template <typename TxnT> uint32_t allocate(TxnT &Tx) {
    ThreadId Thread = Tx.threadId();
    if (Thread >= MaxReuseThreads)
      return allocate();
    Recent &R = RecentByThread[Thread];
    const uint64_t Attempt = Tx.attemptSerial();
    if (Attempt != R.Attempt) {
      // A later attempt. R.Attempt's nodes are unpublished iff it was
      // this descriptor's (high 32 bits) and no commit came since; else
      // they may be live, so drop them. Spares past R.Used came from
      // aborted attempts and stay reusable either way.
      const bool Aborted = (Attempt >> 32) == (R.Attempt >> 32) &&
                           Tx.lastCommitSerial() < R.Attempt;
      if (!Aborted)
        R.Nodes.erase(R.Nodes.begin(), R.Nodes.begin() + R.Used);
      R.Attempt = Attempt;
      R.Used = 0;
    }
    if (R.Used == R.Nodes.size())
      R.Nodes.push_back(allocate());
    return R.Nodes[R.Used++];
  }

  /// Allocates a fresh node; returns its index. Inside a transaction
  /// prefer allocate(Tx): a fresh node an aborting attempt took is lost.
  /// Exhaustion is a workload sizing bug, so it terminates loudly rather
  /// than corrupting the heap: speculative readers may already hold
  /// indices near the end.
  uint32_t allocate() {
    // stm-lint: allow(R1) STAMP pool discipline: the bump pointer is
    // monotonic and an index is never handed out twice by it, so no
    // other txn can observe a torn state.
    uint32_t Index = Next.fetch_add(1, std::memory_order_relaxed);
    if (Index >= CapacityPlusNull) {
      // stm-lint: allow(R2) exhaustion is a fatal sizing bug; the process
      // terminates here, so irrevocability is moot.
      std::fprintf(stderr,
                   "fatal: TmPool exhausted (capacity %u); size the pool "
                   "from the workload parameters with abort headroom\n",
                   CapacityPlusNull - 1);
      // stm-lint: allow(R2) deliberate loud termination on exhaustion.
      std::abort();
    }
    return Index;
  }

  NodeT &operator[](uint32_t Index) {
    assert(Index != Null && Index < CapacityPlusNull && "bad pool index");
    return Nodes[Index];
  }
  const NodeT &operator[](uint32_t Index) const {
    assert(Index != Null && Index < CapacityPlusNull && "bad pool index");
    return Nodes[Index];
  }

  /// Nodes handed out so far.
  uint32_t used() const {
    // stm-lint: allow(R1) monotonic high-water mark; an approximate read
    // is fine anywhere, including inside a transaction body.
    return Next.load(std::memory_order_relaxed) - 1;
  }
  uint32_t capacity() const { return CapacityPlusNull - 1; }

private:
  /// Threads past this id allocate fresh nodes only.
  static constexpr ThreadId MaxReuseThreads = 64;

  /// One thread's nodes: the first Used went to attempt Attempt, the
  /// rest are spares left by aborted attempts. Touched only by that
  /// thread.
  struct alignas(64) Recent {
    uint64_t Attempt = 0;
    size_t Used = 0;
    std::vector<uint32_t> Nodes;
  };

  uint32_t CapacityPlusNull;
  std::unique_ptr<NodeT[]> Nodes;
  std::atomic<uint32_t> Next;
  std::unique_ptr<Recent[]> RecentByThread =
      std::make_unique<Recent[]>(MaxReuseThreads);
};

} // namespace gstm

#endif // GSTM_STAMP_TMPOOL_H

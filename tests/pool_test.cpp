//===- tests/pool_test.cpp - TmPool and memory-discipline tests -------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "stamp/TmPool.h"

#include "stamp/TmList.h"
#include "stamp/TmRbTree.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

using namespace gstm;

namespace {
struct Node {
  int Payload = 0;
};
} // namespace

TEST(TmPoolTest, SequentialAllocationIsDense) {
  TmPool<Node> Pool(8);
  std::set<uint32_t> Seen;
  for (int I = 0; I < 8; ++I) {
    uint32_t Index = Pool.allocate();
    EXPECT_NE(Index, TmPool<Node>::Null);
    EXPECT_TRUE(Seen.insert(Index).second) << "duplicate index";
  }
  EXPECT_EQ(Pool.used(), 8u);
  EXPECT_EQ(Pool.capacity(), 8u);
}

TEST(TmPoolTest, ConcurrentAllocationsAreUnique) {
  constexpr unsigned Threads = 8, PerThread = 500;
  TmPool<Node> Pool(Threads * PerThread);
  std::vector<std::vector<uint32_t>> Got(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      for (unsigned I = 0; I < PerThread; ++I)
        Got[T].push_back(Pool.allocate());
    });
  for (auto &W : Workers)
    W.join();

  std::set<uint32_t> All;
  for (const auto &V : Got)
    for (uint32_t Index : V)
      EXPECT_TRUE(All.insert(Index).second);
  EXPECT_EQ(All.size(), size_t{Threads} * PerThread);
}

TEST(TmPoolTest, NodesAreStableAcrossAllocations) {
  TmPool<Node> Pool(64);
  uint32_t First = Pool.allocate();
  Pool[First].Payload = 42;
  for (int I = 0; I < 63; ++I)
    Pool.allocate();
  EXPECT_EQ(Pool[First].Payload, 42) << "no reallocation may move nodes";
}

TEST(TmPoolDeathTest, ExhaustionAbortsLoudly) {
  // Exhaustion must terminate with a diagnostic rather than corrupt the
  // heap (speculative readers may hold neighbouring indices).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TmPool<Node> Pool(2);
  Pool.allocate();
  Pool.allocate();
  EXPECT_DEATH(Pool.allocate(), "TmPool exhausted");
}

TEST(TmPoolTest, ListNodesFromSharedPoolStayIndependent) {
  // Two lists on one arena must not interfere.
  Tl2Stm Stm;
  TmList::Pool Pool(256);
  TmList A, B;
  Tl2Txn Txn(Stm, 0);
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t K = 0; K < 20; ++K) {
      A.insert(Tx, Pool, K, K);
      B.insert(Tx, Pool, K, K * 2);
    }
  });
  Txn.run(0, [&](Tl2Txn &Tx) {
    for (uint64_t K = 0; K < 20; ++K) {
      EXPECT_EQ(A.find(Tx, Pool, K).value(), K);
      EXPECT_EQ(B.find(Tx, Pool, K).value(), K * 2);
    }
  });
}

// Aborted attempts must not leak nodes: an attempt's allocations are
// never published before it commits, so the retry reuses them. Each body
// below aborts its first 10 000 attempts on purpose, into a pool with
// room for exactly one insert.
constexpr int PlannedAborts = 10000;

TEST(TmPoolTest, AbortedListInsertsReuseTheirNode) {
  Tl2Stm Stm;
  TmList::Pool Pool(1);
  TmList L;
  Tl2Txn Txn(Stm, 0);
  int Attempt = 0;
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_TRUE(L.insert(Tx, Pool, 7, 70));
    if (Attempt++ < PlannedAborts)
      Tx.retryAbort();
  });
  EXPECT_EQ(Attempt, PlannedAborts + 1);
  EXPECT_EQ(Pool.used(), 1u);
  Txn.run(1, [&](Tl2Txn &Tx) {
    EXPECT_EQ(L.find(Tx, Pool, 7).value(), 70u);
    EXPECT_EQ(L.size(Tx, Pool), 1u);
  });
}

TEST(TmPoolTest, AbortedTreeInsertsReuseTheirNode) {
  Tl2Stm Stm;
  TmRbTree::Pool Pool(2); // the NIL sentinel plus one node
  TmRbTree Tree(Pool);
  Tl2Txn Txn(Stm, 0);
  int Attempt = 0;
  Txn.run(0, [&](Tl2Txn &Tx) {
    EXPECT_TRUE(Tree.insert(Tx, 7, 70));
    if (Attempt++ < PlannedAborts)
      Tx.retryAbort();
  });
  EXPECT_EQ(Pool.used(), 2u);
  EXPECT_TRUE(Tree.validateDirect());
  Txn.run(1, [&](Tl2Txn &Tx) {
    EXPECT_EQ(Tree.find(Tx, 7).value(), 70u);
  });
}

TEST(TmPoolTest, CommittedNodesAreNeverHandedOutAgain) {
  // A committed attempt's node is live; only aborted attempts' nodes
  // come back, also across descriptors sharing a thread id.
  Tl2Stm Stm;
  TmList::Pool Pool(3);
  TmList L;
  {
    Tl2Txn Setup(Stm, 0);
    Setup.run(0, [&](Tl2Txn &Tx) { L.insert(Tx, Pool, 1, 10); });
  }
  Tl2Txn Txn(Stm, 0);
  int Attempt = 0;
  Txn.run(0, [&](Tl2Txn &Tx) {
    L.insert(Tx, Pool, 2, 20);
    if (Attempt++ == 0)
      Tx.retryAbort();
  });
  Txn.run(0, [&](Tl2Txn &Tx) { L.insert(Tx, Pool, 3, 30); });
  EXPECT_EQ(Pool.used(), 3u);
  Txn.run(1, [&](Tl2Txn &Tx) {
    EXPECT_EQ(L.size(Tx, Pool), 3u);
    for (uint64_t K = 1; K <= 3; ++K)
      EXPECT_EQ(L.find(Tx, Pool, K).value(), K * 10);
  });
}

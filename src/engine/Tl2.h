//===- engine/Tl2.h - TL2 as a lazy-orec engine policy --------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TL2 (Dice, Shalev, Shavit, DISC'06; zardoshti `stm_algs/tl2.h`
/// lineage, SNIPPETS.md Snippet 2) as a policy of the engine chassis:
/// transactions sample the global version clock at start (rv), log
/// invisible reads against ownership records, buffer their writes, and
/// at commit lock the written orecs, validate the reads, write back, and
/// release the orecs at a fresh version (wv). Lazy (commit-time) conflict
/// detection matches the configuration the paper evaluates.
///
/// Everything but the write buffer is orec-eager's code (engine/
/// OrecEager.h): the orec read, read-set validation, and the commit tail
/// with its single-fence and standard orderings. With
/// `EngineConfig::Detection == Eager`, TL2 *is* orec-eager — writes lock
/// at encounter time and go in place under the chassis undo log. The
/// paper-specific extensions (commit-ring attribution, start gate) come
/// from the chassis, identically for every engine.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_ENGINE_TL2_H
#define GSTM_ENGINE_TL2_H

#include "engine/OrecEager.h"

#include <algorithm>
#include <atomic>
#include <cstdint>

namespace gstm {

struct Tl2Policy : OrecEagerPolicy {
  static constexpr const char *Name = "tl2";

  struct WriteEntry {
    std::atomic<uint64_t> *Addr;
    uint64_t Value;
  };

  struct TxnState : OrecEagerPolicy::TxnState {
    /// Lazy mode's buffered writes in program order, indexed by address;
    /// a one-word Bloom filter spares most read-after-write lookups the
    /// index probe.
    MiniVector<WriteEntry, 32> WriteLog;
    PtrIndexMap<uint32_t, 5> WriteIndex;
    uint64_t WriteFilter = 0;
    /// Commit-time scratch: the write set's stripe indices.
    MiniVector<size_t, 32> StripeScratch;

    void clear() {
      OrecEagerPolicy::TxnState::clear();
      WriteLog.clear();
      WriteIndex.clear();
      WriteFilter = 0;
    }
    size_t opens() const { return ReadSet.size() + WriteLog.size(); }
  };

  template <typename TxnT>
  static uint64_t load(TxnT &Tx, const std::atomic<uint64_t> &Word) {
    // Read-after-write: serve buffered values from the write set.
    TxnState &St = Tx.state();
    if ((St.WriteFilter & filterSignature(&Word)) != 0)
      if (const uint32_t *Pos = St.WriteIndex.find(&Word)) {
        uint64_t Buffered = St.WriteLog[*Pos].Value;
        Tx.noteLoad(&Word, Buffered, /*Version=*/0, /*Buffered=*/true);
        return Buffered;
      }
    return OrecEagerPolicy::load(Tx, Word);
  }

  template <typename TxnT>
  static void store(TxnT &Tx, std::atomic<uint64_t> &Word,
                    uint64_t Value) {
    if (Tx.rt().config().Detection == ConflictDetection::Eager) {
      OrecEagerPolicy::store(Tx, Word, Value);
      return;
    }
    Tx.noteStore(&Word, Value);
    TxnState &St = Tx.state();
    uint64_t Sig = filterSignature(&Word);
    if ((St.WriteFilter & Sig) != 0)
      if (const uint32_t *Pos = St.WriteIndex.find(&Word)) {
        St.WriteLog[*Pos].Value = Value;
        return;
      }
    St.WriteFilter |= Sig;
    St.WriteIndex.insert(&Word, static_cast<uint32_t>(St.WriteLog.size()));
    St.WriteLog.push_back(WriteEntry{&Word, Value});
  }

  template <typename TxnT> static uint64_t commit(TxnT &Tx) {
    TxnState &St = Tx.state();
    // Nothing buffered: a read-only attempt, or an eager one that holds
    // its orecs already — both commit exactly as orec-eager does.
    if (St.WriteLog.empty())
      return OrecEagerPolicy::commit(Tx);
    acquireWriteSet(Tx);
    return publishWriteback(Tx, [&St] {
      for (const WriteEntry &E : St.WriteLog)
        E.Addr->store(E.Value, std::memory_order_release);
    });
  }

private:
  static uint64_t filterSignature(const void *Addr) {
    auto Key = reinterpret_cast<uintptr_t>(Addr) >> 3;
    return uint64_t{1} << ((Key * 0x9e3779b97f4a7c15ULL) >> 58);
  }

  /// Locks the write set's orecs in index order, deduplicated; the table
  /// is one array, so that is address order.
  template <typename TxnT> static void acquireWriteSet(TxnT &Tx) {
    auto &S = Tx.rt();
    TxnState &St = Tx.state();
    MiniVector<size_t, 32> &Indices = St.StripeScratch;
    Indices.clear();
    for (const WriteEntry &E : St.WriteLog)
      Indices.push_back(S.table().indexFor(E.Addr));
    std::sort(Indices.begin(), Indices.end());
    Indices.truncate(static_cast<size_t>(
        std::unique(Indices.begin(), Indices.end()) - Indices.begin()));
    for (size_t Index : Indices)
      acquireOrec(Tx, S.table().stripeAt(Index), Index);
  }
};

} // namespace gstm

#endif // GSTM_ENGINE_TL2_H

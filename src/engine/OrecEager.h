//===- engine/OrecEager.h - Orec-based eager undo-log engine -------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The orec-eager policy (zardoshti `stm_algs/orec_eager.h` lineage):
/// invisible optimistic reads against TL2-style ownership records, but
/// writes acquire the orec at *encounter time* and go in place, with the
/// chassis undo log holding the displaced values. Commit therefore has no
/// writeback — it revalidates the read set (reads are invisible, so a
/// commit that landed after one of our reads must be caught here),
/// stamps a new version from the shared clock, and releases the held
/// orecs at that version.
///
/// Safety argument (the undo-on-abort visibility story, DESIGN.md §4i):
/// an in-place write is only visible through a word whose orec we hold
/// exclusively. Readers who hit the orec abort (or, pre-lock, validated
/// a version <= their rv taken *before* our acquisition); so uncommitted
/// values can only be observed by their own transaction. On abort the
/// chassis replays the undo log *before* the orecs are released
/// (onAbortCleanup order below) — by the time any other thread can get
/// past the orec, the old values are back and the orec still carries its
/// pre-lock version.
///
/// TL2 (engine/Tl2.h) derives from this policy: its eager mode is this
/// algorithm unchanged, and its lazy mode reuses the orec read, the
/// read-set validation and the commit tail (publish), adding only the
/// write buffer and commit-time locking. LibTm (engine/LibTm.h) derives
/// from it the same way; its orecs are the metadata words embedded in
/// its objects, which is why a held orec is recorded by address. The
/// sharded policy (engine/Sharded.h) is TL2 over a partitioned table.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_ENGINE_ORECEAGER_H
#define GSTM_ENGINE_ORECEAGER_H

#include "engine/Core.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <thread>

namespace gstm {

struct OrecEagerPolicy {
  using Table = LockTable;
  static constexpr const char *Name = "orec-eager";
  static constexpr unsigned DefaultTableBits = 20;

  /// An orec this attempt holds (locked at encounter time here, at
  /// commit time by lazy TL2 and LibTm), with its pre-lock word for
  /// release-on-abort and self-read validation. The orec is a lock-table
  /// stripe or an object's embedded meta() word; the commit tail treats
  /// both alike. Version publishes on the single-fence commit path are
  /// relaxed stores; the one release fence after writeback is what makes
  /// a reader's acquire load of the orec observe the new data.
  struct Held {
    // stm-order: publish(Orec) requires release-fence-before
    std::atomic<uint64_t> *Orec;
    uint64_t PreviousWord;
  };

  struct TxnState {
    /// Orecs of invisible reads, revalidated at commit.
    MiniVector<const std::atomic<uint64_t> *, 64> ReadSet;
    /// Held write locks; sorted by orec address before publish so the
    /// validation slow pass can binary-search self-held orecs.
    MiniVector<Held, 32> Acquired;

    void clear() {
      ReadSet.clear();
      Acquired.clear();
    }
    size_t opens() const { return ReadSet.size(); }
  };

  template <typename TxnT> static void onBegin(TxnT &) {}

  template <typename TxnT>
  static uint64_t load(TxnT &Tx, const std::atomic<uint64_t> &Word) {
    auto &S = Tx.rt();
    std::atomic<uint64_t> &Stripe = S.table().stripeFor(&Word);
    uint64_t Pre = Stripe.load(std::memory_order_acquire);
    StripeState PreState = LockTable::decode(Pre);
    if (PreState.Locked) {
      // A self-held orec is safe to read through directly: its version
      // was validated against rv at acquisition and nobody else can
      // touch it. Reported as buffered — the value may be our own
      // uncommitted in-place write.
      if (PreState.Owner == Tx.self()) {
        uint64_t Own = Word.load(std::memory_order_relaxed);
        Tx.noteLoad(&Word, Own, /*Version=*/0, /*Buffered=*/true);
        return Own;
      }
      Tx.abortOnOwner(PreState.Owner, AbortSite::Read);
    }

    uint64_t Value = Word.load(std::memory_order_acquire);

    uint64_t Post = Stripe.load(std::memory_order_acquire);
    if (Post != Pre) {
      StripeState PostState = LockTable::decode(Post);
      if (PostState.Locked)
        Tx.abortOnOwner(PostState.Owner, AbortSite::Read);
      Tx.abortOnVersion(PostState.Version, AbortSite::Read);
    }
    if (PreState.Version > Tx.rv())
      Tx.abortOnVersion(PreState.Version, AbortSite::Read);

    Tx.state().ReadSet.push_back(&Stripe);
    Tx.noteLoad(&Word, Value, PreState.Version, /*Buffered=*/false);
    return Value;
  }

  template <typename TxnT>
  static void store(TxnT &Tx, std::atomic<uint64_t> &Word,
                    uint64_t Value) {
    auto &S = Tx.rt();
    TxThreadPair Self = Tx.self();
    std::atomic<uint64_t> &Stripe = S.table().stripeFor(&Word);
    uint64_t Old = Stripe.load(std::memory_order_relaxed);
    for (;;) {
      StripeState OldState = LockTable::decode(Old);
      if (OldState.Locked) {
        if (OldState.Owner == Self)
          break; // orec already ours from an earlier write
        Tx.abortOnOwner(OldState.Owner, AbortSite::LockAcquire);
      }
      // Acquiring an orec newer than our snapshot would let the attempt
      // mix pre- and post-conflict state; abort instead.
      if (OldState.Version > Tx.rv())
        Tx.abortOnVersion(OldState.Version, AbortSite::LockAcquire);
      if (Stripe.compare_exchange_weak(Old, LockTable::encodeLocked(Self),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        Tx.state().Acquired.push_back(Held{&Stripe, Old});
        Tx.noteLockAcquire(S.table().indexFor(&Word));
        break;
      }
    }
    Tx.noteStore(&Word, Value);
    Tx.undoLog().emplace_back(&Word,
                              Word.load(std::memory_order_relaxed));
    Word.store(Value, std::memory_order_release);
  }

  template <typename TxnT> static uint64_t commit(TxnT &Tx) {
    TxnState &St = Tx.state();
    // Read-only: every read was validated against rv when it happened,
    // so the snapshot is consistent and nothing needs publishing.
    if (St.Acquired.empty())
      return 0;
    // validate's slow pass binary-searches Acquired by orec address;
    // encounter-time acquisition happens in program order, so normalize.
    std::sort(St.Acquired.begin(), St.Acquired.end(),
              [](const Held &A, const Held &B) { return A.Orec < B.Orec; });
    // The undo log stays until the next begin: the contention manager
    // counts its entries as the committed attempt's write opens.
    return publish(Tx, [] {});
  }

  /// Abort rollback: replay the undo log while the orecs are still held
  /// (so nobody can observe the dirty values going away), then restore
  /// the pre-lock orec words.
  template <typename TxnT> static void onAbortCleanup(TxnT &Tx) {
    Tx.undoWrites();
    TxnState &St = Tx.state();
    for (auto It = St.Acquired.rbegin(); It != St.Acquired.rend(); ++It)
      It->Orec->store(It->PreviousWord, std::memory_order_release);
    St.Acquired.clear();
  }

protected:
  /// The commit tail TL2, sharded, orec-eager and LibTm share. Entered
  /// holding every written orec (Acquired, sorted by address): validate
  /// the read set, run \p Writeback (the buffered writes of lazy TL2,
  /// sharded and LibTm; orec-eager wrote in place already), stamp wv,
  /// record attribution, publish the versions.
  template <typename TxnT, typename WritebackFn>
  static uint64_t publish(TxnT &Tx, WritebackFn &&Writeback) {
    auto &S = Tx.rt();
    TxnState &St = Tx.state();
    const EngineConfig &Cfg = S.config();
    uint64_t Wv;
    // The torn-publish mutant (publishWriteback) tears the standard
    // ordering, so it pins that one.
    if (Cfg.SingleFenceCommit && !Cfg.Fault.TornVersionPublish) {
      // Single-fence ordering (SINGLEFENCEOPT): validate, write back, and
      // only then advance the clock and publish the versions — the N
      // release-store publish loop becomes relaxed stores behind one
      // release fence.
      //
      // Validation is UNCONDITIONAL here. The standard ordering's
      // `wv == rv+1` elision reasons "no commit interleaved between my rv
      // sample and my clock advance"; with the advance moved after
      // writeback, two cyclically conflicting writers could both observe
      // a quiescent clock, both skip validation, and both commit a lost
      // update. The branch-free fast pass keeps the check cheap.
      //
      // The seq_cst fence is the one ordering this path cannot drop: the
      // standard ordering's seq_cst clock fetch_add sits between lock
      // acquisition and validation, so each committer's lock CAS is
      // globally ordered before the other's validation loads. Without
      // it, acq_rel CAS + acquire loads permit store-buffering — two
      // cyclically conflicting committers each miss the other's freshly
      // taken lock, both validate clean, and both commit a lost update
      // (real on POWER; invisible on x86/ARMv8, so check_fuzz cannot
      // catch it).
      // stm-order: fence(seq_cst) before(validate) label(OrecEagerPolicy::publish single-fence commit of tl2, sharded, orec-eager and libtm)
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (!Cfg.Fault.SkipReadValidation)
        validate(Tx);
      Writeback();
      // One fence orders the writeback (or the in-place stores) before
      // every version publish: a reader whose acquire load of an orec
      // observes one of the relaxed stores below synchronizes with this
      // fence ([atomics.fences]) and therefore sees the new data.
      std::atomic_thread_fence(std::memory_order_release);
      Wv = S.clock().advance();
      // Publish attribution before the new version becomes visible so a
      // victim observing Wv can already resolve the committer.
      S.commitRing().record(Wv, Tx.self());
      for (const Held &L : St.Acquired)
        L.Orec->store(LockTable::encodeVersion(Wv),
                      std::memory_order_relaxed);
    } else {
      Wv = S.clock().advance();
      // TL2 elision: wv == rv+1 means no other transaction committed
      // between our rv sample and our advance, and only commits can
      // change an orec version out from under a validated read
      // (aborting writers restore the pre-lock word).
      if (Wv != Tx.rv() + 1 && !Cfg.Fault.SkipReadValidation)
        validate(Tx);
      S.commitRing().record(Wv, Tx.self());
      Writeback();
      for (const Held &L : St.Acquired)
        L.Orec->store(LockTable::encodeVersion(Wv),
                      std::memory_order_release);
    }
    St.Acquired.clear();
    return Wv;
  }

  /// Commit-time lock of one written orec for the buffered-write policies
  /// (lazy TL2, LibTm), reported to the access observer as \p LockId.
  /// They acquire in address order, which makes lock-acquisition deadlock
  /// impossible, so a held orec aborts at once instead of spinning; it
  /// also leaves Acquired sorted, as validate's pre-lock lookup needs.
  template <typename TxnT>
  static void acquireOrec(TxnT &Tx, std::atomic<uint64_t> &Orec,
                          uint64_t LockId) {
    const uint64_t Locked = LockTable::encodeLocked(Tx.self());
    uint64_t Old = Orec.load(std::memory_order_relaxed);
    do {
      StripeState OldState = LockTable::decode(Old);
      if (OldState.Locked)
        Tx.abortOnOwner(OldState.Owner, AbortSite::LockAcquire);
    } while (!Orec.compare_exchange_weak(Old, Locked,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed));
    Tx.state().Acquired.push_back(Held{&Orec, Old});
    Tx.noteLockAcquire(LockId);
  }

  /// publish for the buffered-write policies (lazy TL2, LibTm), with
  /// \p Writeback storing the buffered values. The TornVersionPublish
  /// self-test mutant releases the locks at the new version *before*
  /// writing the data back instead, pausing in between to widen the
  /// window in which readers validate new-version orecs over old data.
  /// A yield returns at once when cores are idle, so the pause is 100 of
  /// them; a single one closes the window before a concurrent reader
  /// gets in.
  template <typename TxnT, typename WritebackFn>
  static uint64_t publishWriteback(TxnT &Tx, WritebackFn &&Writeback) {
    if (!Tx.rt().config().Fault.TornVersionPublish)
      return publish(Tx, Writeback);
    uint64_t Wv = publish(Tx, [] {});
    for (int I = 0; I < 100; ++I)
      std::this_thread::yield();
    Writeback();
    return Wv;
  }

  /// Commit-time read-set revalidation: every read orec must still be
  /// unlocked (or self-locked at a pre-lock version <= rv) and at a
  /// version <= rv; throws on conflict. A branch-free OR-reduction pass
  /// clears the common all-clean case without a single conditional; only
  /// a suspicious read set pays the per-orec attribution walk.
  template <typename TxnT> static void validate(TxnT &Tx) {
    TxnState &St = Tx.state();
    const std::atomic<uint64_t> *const *Orecs = St.ReadSet.data();
    const size_t N = St.ReadSet.size();
    const uint64_t Snapshot = Tx.rv();
    uint64_t Suspicious = 0;
    for (size_t I = 0; I < N; ++I) {
      uint64_t W = Orecs[I]->load(std::memory_order_acquire);
      Suspicious |=
          (W & 1) | static_cast<uint64_t>((W >> 1) > Snapshot);
    }
    if (Suspicious == 0)
      return;

    // Slow pass with attribution. Orecs this commit holds itself
    // (read-then-written locations) always land here; their reads are
    // validated against the pre-lock word, or a commit that slid in
    // between our read and our lock acquisition would go undetected and
    // be silently overwritten. Sound even though the words are re-read:
    // versions only grow, and an orec that went clean in between is
    // genuinely clean.
    TxThreadPair Self = Tx.self();
    for (const std::atomic<uint64_t> *Orec : St.ReadSet) {
      uint64_t Word = Orec->load(std::memory_order_acquire);
      StripeState State = LockTable::decode(Word);
      if (State.Locked) {
        if (State.Owner != Self)
          Tx.abortOnOwner(State.Owner, AbortSite::CommitValidate);
        auto It = std::lower_bound(
            St.Acquired.begin(), St.Acquired.end(), Orec,
            [](const Held &L, const std::atomic<uint64_t> *Ptr) {
              return L.Orec < Ptr;
            });
        assert(It != St.Acquired.end() && It->Orec == Orec &&
               "self-locked orec missing from the acquired list");
        StripeState PreLock = LockTable::decode(It->PreviousWord);
        if (PreLock.Version > Tx.rv())
          Tx.abortOnVersion(PreLock.Version, AbortSite::CommitValidate);
        continue;
      }
      if (State.Version > Tx.rv())
        Tx.abortOnVersion(State.Version, AbortSite::CommitValidate);
    }
  }
};

/// Engine-family aliases; OrecEagerTxn is a transactional context for
/// stm_lint.
using OrecEagerStm = EngineStm<OrecEagerPolicy>;
using OrecEagerTxn = EngineTxn<OrecEagerPolicy>;

} // namespace gstm

#endif // GSTM_ENGINE_ORECEAGER_H

//===- engine/Core.h - Policy-templated STM engine chassis ---------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared chassis of the policy-templated engine family (SNIPPETS.md
/// Snippet 2 / zardoshti lineage): `EngineStm<Policy>` owns everything
/// every engine needs — version clock, lock table (the policy picks the
/// type), commit ring, epoch manager, observer/gate/contention-manager
/// hooks, sharded stats — and `EngineTxn<Policy>` is the per-thread
/// descriptor gluing the shared retry loop (engine/TxnExecutor.h), the
/// shared undo log, and the shared abort-reporting path to the policy's
/// algorithm. A policy contributes exactly the algorithm:
///
///   using Table = LockTable | ByteLockTable;
///   static constexpr const char *Name;
///   static constexpr unsigned DefaultTableBits;
///   struct TxnState { void clear(); size_t opens() const; ... };
///   static onBegin(TxnT&);            // per-attempt state reset
///   static load(TxnT&, Word) -> u64;  // transactional read
///   static store(TxnT&, Word, u64);   // transactional write
///   static loadObject/storeObject(TxnT&, TObjBase&, u64*);
///                                     // object reads/writes (LibTm only)
///   static commit(TxnT&) -> u64;      // wv, or 0 for read-only
///   static onAbortCleanup(TxnT&);     // undo replay + lock release
///
/// Policies never talk to StatsShard, TxEventObserver or the contention
/// manager directly — the chassis owns event reporting, so telemetry,
/// GuideController gating, fault attribution through the CommitRing, and
/// the checker-facing TxAccessObserver hooks behave identically across
/// the whole family. Both of the paper's runtimes are policies: TL2 is
/// the lazy-orec member (engine/Tl2.h; `Tl2Stm` is `EngineStm<Tl2Policy>`)
/// and LibTm the object-granular one (engine/LibTm.h; metadata embedded
/// in each TObj, so its `Table` is empty). Only the sharded tier
/// (src/shard, one table per shard) keeps its own descriptor.
///
/// All engines in this family keep TL2-compatible version discipline —
/// rv sampled from the shared VersionClock at begin, reads rejected past
/// rv, commits stamped by clock.advance() and published into per-entry
/// version words — so the history checkers (src/check/Checker.h) apply
/// to every policy without weakening. See DESIGN.md §4i.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_ENGINE_CORE_H
#define GSTM_ENGINE_CORE_H

#include "engine/ByteLock.h"
#include "engine/Epoch.h"
#include "engine/TxnExecutor.h"
#include "stm/CommitRing.h"
#include "stm/Contention.h"
#include "stm/LockTable.h"
#include "stm/Observer.h"
#include "stm/StatsShard.h"
#include "stm/TObj.h"
#include "stm/TVar.h"
#include "stm/VersionClock.h"
#include "support/Ids.h"
#include "support/MiniVector.h"
#include "support/PtrIndexMap.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>

namespace gstm {

/// When conflicts are detected (paper Sec. II: "STMs provide options of
/// eager and lazy conflict detection"). Only TL2 offers the choice; the
/// other policies have one fixed mode and ignore the setting.
enum class ConflictDetection : uint8_t {
  /// Commit-time locking with buffered (write-back) updates — the TL2
  /// default the paper evaluates.
  Lazy,
  /// Encounter-time locking with in-place (write-through) updates and an
  /// undo log; conflicting writers abort at first touch. TL2 runs the
  /// orec-eager algorithm in this mode.
  Eager,
};

/// Deliberately broken engine behavior for the correctness harness's
/// mutation self-test (tests/engine_test.cpp, tests/check_test.cpp):
/// each knob disables one safety mechanism so the history checkers can
/// prove they flag the resulting executions. Never enable outside the
/// self-test.
struct EngineFaultInjection {
  /// Undo-log engines (orec-eager, 2pl-undo, eager TL2): an aborting
  /// attempt leaves its in-place writes behind — uncommitted state
  /// becomes visible to everyone (dirty reads, phantom final state).
  bool SkipUndoReplay = false;
  /// TLRW: a writer stops draining reader bytes before writing in place —
  /// live readers observe torn snapshots under an unchanged version.
  bool SkipReaderDrain = false;
  /// TL2, orec-eager and LibTm: commit skips read-set validation — a commit
  /// that interleaved after this attempt's reads goes undetected (lost
  /// updates). The pessimistic engines (tlrw, 2pl-undo) have no
  /// validation step to skip: their reads are protected by held locks,
  /// which is exactly the property this knob exists to break elsewhere.
  bool SkipReadValidation = false;
  /// Lazy TL2 and LibTm: publish the new orec versions (releasing the
  /// commit locks) before writing the buffered values back — readers can
  /// validate an orec at the new version while still observing the old
  /// data. Pins the standard commit ordering.
  bool TornVersionPublish = false;
};

/// Construction-time configuration shared by every engine in the family
/// (`Tl2Config` is this type).
struct EngineConfig {
  /// log2 of the lock-table size; 0 = the policy's DefaultTableBits
  /// (byte-lock entries are 16x the size of stripe words, so TLRW
  /// defaults smaller).
  unsigned TableBits = 0;
  unsigned CommitRingBits = 13;
  /// Address-to-entry hash (see StripeHashKind). Mix by default: its
  /// full-avalanche indexing measurably cuts false stripe conflicts on
  /// pointer-heavy working sets; Fibonacci remains available for A/B
  /// comparisons against stock TL2.
  StripeHashKind StripeHash = StripeHashKind::Mix;
  /// TL2 only: lazy (the paper's configuration) or eager conflict
  /// detection.
  ConflictDetection Detection = ConflictDetection::Lazy;
  /// Single-fence commit (2PLSF/zardoshti "SINGLEFENCEOPT" lineage) where
  /// the policy has a validation step to order (TL2, orec-eager, LibTm;
  /// see OrecEagerPolicy::publish): validate, write back, then advance the
  /// clock and publish the versions with relaxed stores behind one
  /// release fence. Policies without commit validation publish
  /// identically either way.
  bool SingleFenceCommit = true;
  BackoffKind Backoff = BackoffKind::Yield;
  /// Scheduler perturbation: when non-zero, each transactional access
  /// yields the CPU with probability 2^-PreemptShift, so transactions
  /// overlap even with fewer cores than workers (see
  /// TxnExecutor::maybePreempt and DESIGN.md, substitutions). 0 = off.
  unsigned PreemptShift = 0;
  /// Bounded spin (iterations) a TLRW writer waits for reader bytes to
  /// drain before giving up and aborting itself; bounds the blocking a
  /// visible-reader engine can do while holding a write lock, so
  /// cross-held reader/writer cycles resolve by abort, not deadlock.
  unsigned LockSpinBound = 128;
  /// When true, every attempt's wall-clock latency is accumulated into
  /// the per-thread stats shard (two steady_clock reads per attempt).
  /// Off by default so microbenchmarks measure bare STM cost; the
  /// experiment harness turns it on (see core/Runner.h).
  bool TrackAttemptLatency = false;
  /// Fault injection for the checker self-test; all off by default.
  EngineFaultInjection Fault;
};

template <typename Policy> class EngineTxn;

/// One engine-family runtime instance: the shared state (clock, lock
/// table, ring, epochs) plus the instrumentation hooks GuideController,
/// StatsShard export and the check harness plug into. Workloads create
/// one per run.
template <typename Policy> class EngineStm {
public:
  using Table = typename Policy::Table;
  using Txn = EngineTxn<Policy>;

  explicit EngineStm(const EngineConfig &Config = EngineConfig())
      : Cfg(Config),
        Locks(Config.TableBits ? Config.TableBits
                               : Policy::DefaultTableBits,
              Config.StripeHash),
        Ring(Config.CommitRingBits) {}

  EngineStm(const EngineStm &) = delete;
  EngineStm &operator=(const EngineStm &) = delete;

  static constexpr const char *name() { return Policy::Name; }

  /// Installs \p Obs as the event observer (nullptr to disable). Must not
  /// be called while transactions are running; same rule for the other
  /// hook setters below.
  void setObserver(TxEventObserver *Obs) { Observer = Obs; }
  void setGate(StartGate *G) { Gate = G; }
  void setContentionManager(ContentionManager *M) { Cm = M; }
  void setAccessObserver(TxAccessObserver *Obs) { AccessObs = Obs; }

  const EngineConfig &config() const { return Cfg; }
  Table &table() { return Locks; }
  VersionClock &clock() { return Clock; }
  CommitRing &commitRing() { return Ring; }
  EpochManager &epochs() { return Epochs; }
  TxEventObserver *observer() const { return Observer; }
  StartGate *gate() const { return Gate; }
  ContentionManager *contentionManager() const { return Cm; }
  TxAccessObserver *accessObserver() const { return AccessObs; }
  /// Sharded per-thread telemetry (see stm/StatsShard.h).
  Tl2Stats &stats() { return Counters; }
  const Tl2Stats &stats() const { return Counters; }

  /// Blocks until every attempt that began before this call has
  /// committed or aborted (see EpochManager::quiesce). Residue checks
  /// and teardown call this instead of guessing at join order.
  void quiesce() { Epochs.quiesce(); }

private:
  EngineConfig Cfg;
  VersionClock Clock;
  Table Locks;
  CommitRing Ring;
  EpochManager Epochs;
  TxEventObserver *Observer = nullptr;
  StartGate *Gate = nullptr;
  ContentionManager *Cm = nullptr;
  TxAccessObserver *AccessObs = nullptr;
  Tl2Stats Counters;
};

/// Per-thread transaction descriptor of the engine family. The policy
/// supplies the algorithm (load/store/commit/rollback); this class
/// supplies everything around it — retry loop, undo log, epoch
/// bracketing, abort reporting, stats, observer events. Reused across
/// transactions; not thread-safe: one descriptor per worker thread.
template <typename Policy>
class EngineTxn : public TxnExecutor<EngineTxn<Policy>> {
public:
  using Stm = EngineStm<Policy>;
  using State = typename Policy::TxnState;

  EngineTxn(Stm &Stm_, ThreadId Thread)
      : TxnExecutor<EngineTxn>(Thread), S(Stm_), Thread(Thread),
        Shard(&Stm_.stats().shard(Thread)) {
    // Every attempt writes this thread's epoch slot; an id past the slot
    // table would corrupt memory, so refuse it in every build.
    if (Thread >= EpochManager::MaxThreads) {
      std::fprintf(stderr, "fatal: thread id %u exceeds the engine limit of "
                           "%zu threads\n",
                   unsigned{Thread}, EpochManager::MaxThreads);
      std::abort();
    }
  }

  EngineTxn(const EngineTxn &) = delete;
  EngineTxn &operator=(const EngineTxn &) = delete;

  /// Transactional read of a raw 64-bit word.
  uint64_t loadWord(const std::atomic<uint64_t> &Word) {
    this->maybePreempt();
    return Policy::load(*this, Word);
  }

  /// Transactional write of a raw 64-bit word (buffered or in place,
  /// as the policy decides; in-place writes log the old value in the
  /// undo log).
  void storeWord(std::atomic<uint64_t> &Word, uint64_t Value) {
    this->maybePreempt();
    Policy::store(*this, Word, Value);
  }

  /// Typed transactional read of a TVar.
  template <typename T> T load(const TVar<T> &Var) {
    return TVar<T>::decode(loadWord(Var.word()));
  }

  /// Typed transactional write of a TVar. The value type is non-deduced
  /// so integer literals convert to the variable's type.
  template <typename T>
  void store(TVar<T> &Var, std::type_identity_t<T> Value) {
    storeWord(Var.word(), TVar<T>::encode(Value));
  }

  /// Typed transactional snapshot read of a multi-word object (policies
  /// with object-embedded metadata: LibTm).
  template <typename T> T read(const TObj<T> &Obj) {
    this->maybePreempt();
    uint64_t Raw[TObj<T>::WordCount];
    Policy::loadObject(*this, const_cast<TObj<T> &>(Obj), Raw);
    T Value;
    std::memcpy(&Value, Raw, sizeof(T));
    return Value;
  }

  /// Typed whole-object write. The value type is non-deduced so
  /// braced/convertible values bind to the object's type.
  template <typename T>
  void write(TObj<T> &Obj, const std::type_identity_t<T> &Value) {
    this->maybePreempt();
    uint64_t Raw[TObj<T>::WordCount] = {};
    std::memcpy(Raw, &Value, sizeof(T));
    Policy::storeObject(*this, Obj, Raw);
  }

  /// Explicitly aborts and retries the current transaction attempt.
  [[noreturn]] void retryAbort() {
    reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                   AbortCauseKind::Explicit,
                                   /*Cause=*/0, /*CauseVersion=*/0,
                                   AbortSite::Explicit});
  }

  ThreadId threadId() const { return Thread; }
  TxId txId() const { return CurrentTx; }
  /// Read version of the attempt in flight (exposed for tests).
  uint64_t readVersion() const { return Rv; }

  // -- Policy-facing surface ------------------------------------------
  // (Public so policy statics and tests can reach it; user code goes
  // through load/store above.)

  Stm &rt() { return S; }
  State &state() { return PS; }
  TxThreadPair self() const { return packPair(CurrentTx, Thread); }
  uint64_t rv() const { return Rv; }
  MiniVector<std::pair<std::atomic<uint64_t> *, uint64_t>, 32> &
  undoLog() {
    return Undo;
  }

  /// Reverts in-place writes of an aborting attempt (newest first, so
  /// double-written addresses end at the oldest value). The
  /// SkipUndoReplay mutant leaves the dirty values in place but still
  /// clears the log — exactly the "forgot to roll back" bug the
  /// checkers must catch.
  void undoWrites() {
    if (!S.config().Fault.SkipUndoReplay)
      for (auto It = Undo.rbegin(); It != Undo.rend(); ++It)
        It->first->store(It->second, std::memory_order_release);
    Undo.clear();
  }

  /// Reports an abort caused by a known conflicting committer and
  /// throws; \p Site tags where in the attempt the conflict surfaced.
  [[noreturn]] void abortOnOwner(TxThreadPair Owner, AbortSite Site) {
    reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                   AbortCauseKind::KnownCommitter, Owner,
                                   /*CauseVersion=*/0, Site});
  }

  /// Reports an abort caused by a too-new version and throws;
  /// attribution goes through the commit ring.
  [[noreturn]] void abortOnVersion(uint64_t Version, AbortSite Site) {
    TxThreadPair Committer;
    bool Hit = S.commitRing().lookup(Version, Committer);
    Shard->recordCommitRingLookup(Hit);
    if (Hit)
      reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                     AbortCauseKind::KnownCommitter,
                                     Committer, Version, Site});
    reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                   AbortCauseKind::UnknownCommitter,
                                   /*Cause=*/0, Version, Site});
  }

  /// Abort with no attributable enemy (e.g. a TLRW writer timing out on
  /// anonymous reader bytes).
  [[noreturn]] void abortUnknown(AbortSite Site) {
    reportAbortAndThrow(AbortEvent{Thread, CurrentTx,
                                   AbortCauseKind::UnknownCommitter,
                                   /*Cause=*/0, /*CauseVersion=*/0, Site});
  }

  /// Observer shorthands for policies (single null test, as the
  /// TxAccessObserver contract requires).
  void noteLoad(const void *Addr, uint64_t Value, uint64_t Version,
                bool Buffered) {
    if (TxAccessObserver *A = S.accessObserver())
      A->onTxLoad(Thread, Addr, Value, Version, Buffered);
  }
  void noteStore(const void *Addr, uint64_t Value) {
    if (TxAccessObserver *A = S.accessObserver())
      A->onTxStore(Thread, Addr, Value);
  }
  void noteLockAcquire(uint64_t LockId) {
    if (TxAccessObserver *A = S.accessObserver())
      A->onLockAcquire(Thread, LockId);
  }

private:
  friend class TxnExecutor<EngineTxn>;
  friend Policy;

  /// Executor contract (engine/TxnExecutor.h).
  Stm &stm() { return S; }
  StatsShard *shard() { return Shard; }
  uint64_t opensCount() const { return PS.opens() + Undo.size(); }

  void begin(TxId Tx) {
    CurrentTx = Tx;
    Rv = S.clock().sample();
    Undo.clear();
    PS.clear();
    S.epochs().enter(Thread);
    Policy::onBegin(*this);
    if (TxAccessObserver *A = S.accessObserver())
      A->onTxBegin(Thread, Tx, Rv);
  }

  void commitOrThrow(uint32_t PriorAborts) {
    uint64_t Wv = Policy::commit(*this);
    S.epochs().exit(Thread);
    const bool ReadOnly = Wv == 0;
    Shard->recordCommit(PriorAborts, ReadOnly);
    if (TxEventObserver *Obs = S.observer())
      Obs->onCommit(
          CommitEvent{Thread, CurrentTx, Wv, PriorAborts, ReadOnly});
  }

  [[noreturn]] void reportAbortAndThrow(const AbortEvent &E) {
    // Opens must be counted before the rollback clears the logs.
    this->LastOpens = opensCount();
    Policy::onAbortCleanup(*this);
    S.epochs().exit(Thread);
    this->LastEnemyKnown = E.Kind == AbortCauseKind::KnownCommitter;
    this->LastEnemy = this->LastEnemyKnown ? E.Cause : 0;
    Shard->recordAbort(E.Kind, E.Site);
    if (TxEventObserver *Obs = S.observer())
      Obs->onAbort(E);
    throw TxAbortException{};
  }

  Stm &S;
  ThreadId Thread;
  /// This thread's telemetry shard, resolved once at construction.
  StatsShard *Shard;
  TxId CurrentTx = 0;
  uint64_t Rv = 0;
  /// (address, previous value) pairs, restored in reverse on abort.
  /// Shared across policies. MiniVector, like the policies' logs: the
  /// inline capacity covers common transactions without the heap,
  /// clear() is O(1), and heap growth is kept across retries.
  MiniVector<std::pair<std::atomic<uint64_t> *, uint64_t>, 32> Undo;
  State PS;
};

} // namespace gstm

#endif // GSTM_ENGINE_CORE_H

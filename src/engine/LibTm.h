//===- engine/LibTm.h - LibTM as an object-granular engine policy --------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LibTM configuration the paper uses for SynQuake (Lupei et al.,
/// PPoPP'10) as a policy of the engine chassis: *object-granularity*
/// conflict detection with fully optimistic reads (no read locks) and
/// write locks acquired only at commit, with conflicts resolved against
/// readers (an optimistic reader whose object was overwritten aborts — the
/// "abort-readers" policy). LibTM itself is closed source; this policy
/// keeps its defining characteristics: metadata lives *inside each
/// object* (TObj, stm/TObj.h — no address hashing, no false sharing
/// between distinct objects, the property SynQuake relies on) and objects
/// are multi-word.
///
/// The policy contributes only what makes LibTm LibTm — the multi-word
/// snapshot read, the whole-object write buffer and commit-time locking
/// of the written objects in address order. An object's meta() word is
/// an orec like a lock-table stripe, so read-set validation, the commit
/// tail (single-fence and standard orderings) and abort cleanup are
/// orec-eager's code (engine/OrecEager.h), shared with TL2.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_ENGINE_LIBTM_H
#define GSTM_ENGINE_LIBTM_H

#include "engine/OrecEager.h"

#include <algorithm>
#include <atomic>
#include <cstdint>

namespace gstm {

/// LibTm's table on the chassis: its metadata lives in the objects, so
/// the runtime allocates no shared table (EngineConfig::TableBits and
/// StripeHash are ignored).
struct ObjectMetaTable {
  ObjectMetaTable(unsigned /*Bits*/, StripeHashKind) {}
};

struct LibTmPolicy : OrecEagerPolicy {
  using Table = ObjectMetaTable;
  static constexpr const char *Name = "libtm";

  struct TxnState : OrecEagerPolicy::TxnState {
    /// Buffered whole-object writes: the written objects (sorted by
    /// address at commit), each object's offset into WriteData, and the
    /// buffered payload words.
    MiniVector<TObjBase *, 32> WriteObjs;
    PtrIndexMap<uint32_t, 5> WriteIndex;
    MiniVector<uint64_t, 64> WriteData;

    void clear() {
      OrecEagerPolicy::TxnState::clear();
      WriteObjs.clear();
      WriteIndex.clear();
      WriteData.clear();
    }
    size_t opens() const { return ReadSet.size() + WriteObjs.size(); }
  };

  /// Copies a consistent snapshot of \p Obj into \p Out: the buffered
  /// payload after a write, otherwise the payload words bracketed by two
  /// loads of the metadata word, aborting on a locked or too-new object.
  /// Reported with Addr = the object and Value = payload word 0.
  template <typename TxnT>
  static void loadObject(TxnT &Tx, TObjBase &Obj, uint64_t *Out) {
    TxnState &St = Tx.state();
    if (const uint32_t *Pos = St.WriteIndex.find(&Obj)) {
      const uint64_t *Buffered = &St.WriteData[*Pos];
      std::copy(Buffered, Buffered + Obj.numWords(), Out);
      Tx.noteLoad(&Obj, Out[0], /*Version=*/0, /*Buffered=*/true);
      return;
    }

    std::atomic<uint64_t> &Meta = Obj.meta();
    uint64_t Pre = Meta.load(std::memory_order_acquire);
    StripeState PreState = LockTable::decode(Pre);
    if (PreState.Locked)
      Tx.abortOnOwner(PreState.Owner, AbortSite::Read);

    std::atomic<uint64_t> *Words = Obj.words();
    for (size_t I = 0, E = Obj.numWords(); I != E; ++I)
      Out[I] = Words[I].load(std::memory_order_acquire);

    uint64_t Post = Meta.load(std::memory_order_acquire);
    if (Post != Pre) {
      StripeState PostState = LockTable::decode(Post);
      if (PostState.Locked)
        Tx.abortOnOwner(PostState.Owner, AbortSite::Read);
      Tx.abortOnVersion(PostState.Version, AbortSite::Read);
    }
    if (PreState.Version > Tx.rv())
      Tx.abortOnVersion(PreState.Version, AbortSite::Read);

    St.ReadSet.push_back(&Meta);
    Tx.noteLoad(&Obj, Out[0], PreState.Version, /*Buffered=*/false);
  }

  /// Buffers a whole-object write of \p In (the object's numWords()).
  template <typename TxnT>
  static void storeObject(TxnT &Tx, TObjBase &Obj, const uint64_t *In) {
    Tx.noteStore(&Obj, In[0]);
    TxnState &St = Tx.state();
    if (const uint32_t *Pos = St.WriteIndex.find(&Obj)) {
      std::copy(In, In + Obj.numWords(), &St.WriteData[*Pos]);
      return;
    }
    St.WriteIndex.insert(&Obj, static_cast<uint32_t>(St.WriteData.size()));
    St.WriteObjs.push_back(&Obj);
    for (size_t I = 0, E = Obj.numWords(); I != E; ++I)
      St.WriteData.push_back(In[I]);
  }

  template <typename TxnT> static uint64_t commit(TxnT &Tx) {
    TxnState &St = Tx.state();
    // Read-only: every read was validated against rv when it happened.
    if (St.WriteObjs.empty())
      return 0;
    // Lock the written objects in address order (meta() sits at a fixed
    // offset, so that is orec address order too). Readers are never
    // blocked — they abort if they validate against us: LibTM's
    // abort-readers resolution.
    std::sort(St.WriteObjs.begin(), St.WriteObjs.end());
    for (TObjBase *Obj : St.WriteObjs)
      acquireOrec(Tx, Obj->meta(),
                  static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Obj)));
    return publishWriteback(Tx, [&St] {
      for (TObjBase *Obj : St.WriteObjs) {
        const uint64_t *In = &St.WriteData[*St.WriteIndex.find(Obj)];
        std::atomic<uint64_t> *Words = Obj->words();
        for (size_t I = 0, N = Obj->numWords(); I != N; ++I)
          Words[I].store(In[I], std::memory_order_release);
      }
    });
  }
};

} // namespace gstm

#endif // GSTM_ENGINE_LIBTM_H

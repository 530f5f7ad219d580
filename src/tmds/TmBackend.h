//===- tmds/TmBackend.h - STM backend traits for the tmds containers -----===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backend traits that let one transactional container source run on
/// every engine of the chassis, word-based or object-based. The seed
/// containers in `src/stamp` are hard-wired to Tl2Txn/TVar; the tmds
/// structures are instead templates over a backend policy providing:
///
///  * `Stm` / `Txn` — the runtime and per-thread descriptor types,
///  * `Cell<T>` — the unit of transactionally shared state (TVar<T> for
///    the table policies, TObj<T> for LibTm) with transactional
///    load/store and quiescent loadDirect/storeDirect,
///  * `cellAddr`/`cellRaw` — the address and raw word the runtime's
///    TxAccessObserver reports for that cell, so the check harness can
///    register initial values that match what onTxLoad/onTxStore will
///    carry (table policies report &TVar::word() and the encoded word;
///    LibTm reports the TObjBase and payload word 0 — for word-sized
///    payloads the two encodings agree), and
///  * `cellLocked` — per-cell lock residue probe for post-run quiescence
///    checks (table policies decode the cell's table entry; LibTm decodes
///    the object's embedded metadata word). The check harness probes a
///    table policy's whole table instead, and LibTm, which owns no table,
///    through this probe (check/Checker.h, lockResidue).
///
/// The containers only ever use cells holding trivially copyable values
/// of at most 8 bytes, so one TObj payload word mirrors one TVar word.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_TMDS_TMBACKEND_H
#define GSTM_TMDS_TMBACKEND_H

#include "engine/Engines.h"
#include "libtm/LibTm.h"
#include "stm/LockTable.h"
#include "stm/TVar.h"
#include "stm/Tl2.h"

#include <atomic>
#include <cstdint>
#include <type_traits>

namespace gstm {

/// Word-based backend over the table policies of the engine family
/// (src/engine, TL2 included): cells are TVar<T>, metadata lives in the
/// runtime's shared table; only the per-cell residue probe depends on
/// the policy's table type (stripe word vs ByteLock entry).
template <typename Policy> struct EngineBackend {
  using Stm = EngineStm<Policy>;
  using Txn = EngineTxn<Policy>;
  template <typename T> using Cell = TVar<T>;

  static constexpr const char *Name = Policy::Name;

  template <typename T> static T load(Txn &Tx, const Cell<T> &C) {
    return Tx.load(C);
  }
  template <typename T>
  static void store(Txn &Tx, Cell<T> &C, std::type_identity_t<T> Value) {
    Tx.store(C, Value);
  }
  template <typename T> static T loadDirect(const Cell<T> &C) {
    return C.loadDirect();
  }
  template <typename T>
  static void storeDirect(Cell<T> &C, std::type_identity_t<T> Value) {
    C.storeDirect(Value);
  }

  template <typename T> static const void *cellAddr(const Cell<T> &C) {
    return &C.word();
  }
  template <typename T> static uint64_t cellRaw(const Cell<T> &C) {
    return C.word().load(std::memory_order_relaxed);
  }

  /// Post-run residue probe (quiescent use only). A ByteLock entry is
  /// residue-held when its Owner word or any reader byte survives; a
  /// stripe word when its lock bit does.
  template <typename T> static bool cellLocked(Stm &S, const Cell<T> &C) {
    auto &Word = const_cast<Cell<T> &>(C).word();
    if constexpr (std::is_same_v<typename Policy::Table, ByteLockTable>)
      return S.table().lockFor(&Word).heldByAnyone();
    else
      return LockTable::decode(S.table().stripeFor(&Word).load(
                                   std::memory_order_relaxed))
          .Locked;
  }
};

/// Object-based LibTm backend: cells are single-payload-word TObj<T> with
/// per-object embedded metadata.
template <> struct EngineBackend<LibTmPolicy> {
  using Stm = LibTm;
  using Txn = LibTxn;
  template <typename T> using Cell = TObj<T>;

  static constexpr const char *Name = LibTmPolicy::Name;

  template <typename T> static T load(Txn &Tx, const Cell<T> &C) {
    return Tx.read(C);
  }
  template <typename T>
  static void store(Txn &Tx, Cell<T> &C, std::type_identity_t<T> Value) {
    Tx.write(C, Value);
  }
  template <typename T> static T loadDirect(const Cell<T> &C) {
    return C.loadDirect();
  }
  template <typename T>
  static void storeDirect(Cell<T> &C, std::type_identity_t<T> Value) {
    C.storeDirect(Value);
  }

  template <typename T> static const void *cellAddr(const Cell<T> &C) {
    return static_cast<const TObjBase *>(&C);
  }
  template <typename T> static uint64_t cellRaw(const Cell<T> &C) {
    // Payload word 0 — what LibTm's access observer reports; identical
    // to the TVar encoding for word-sized trivially copyable T.
    return const_cast<Cell<T> &>(C).words()[0].load(
        std::memory_order_relaxed);
  }

  template <typename T> static bool cellLocked(Stm &, const Cell<T> &C) {
    return LockTable::decode(const_cast<Cell<T> &>(C).meta().load(
                                 std::memory_order_relaxed))
        .Locked;
  }
};

using Tl2Backend = EngineBackend<Tl2Policy>;
using LibTmBackend = EngineBackend<LibTmPolicy>;
using OrecEagerBackend = EngineBackend<OrecEagerPolicy>;
using TlrwBackend = EngineBackend<TlrwPolicy>;
using TwoPlBackend = EngineBackend<TwoPlPolicy>;

} // namespace gstm

#endif // GSTM_TMDS_TMBACKEND_H

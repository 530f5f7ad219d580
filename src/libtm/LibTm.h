//===- libtm/LibTm.h - Object-based STM (LibTM reproduction) -------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The object-based LibTM runtime the paper uses for SynQuake, under the
/// names the game, the benches and the tests use. The algorithm is the
/// engine chassis's LibTm policy (engine/LibTm.h); these are plain
/// aliases.
///
/// Usage:
/// \code
///   LibTm Tm;
///   TObj<PlayerState> Player;
///   LibTxn Txn(Tm, /*Thread=*/0);
///   Txn.run(/*Tx=*/0, [&](LibTxn &Tx) {
///     PlayerState S = Tx.read(Player);
///     S.Health -= 10;
///     Tx.write(Player, S);
///   });
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_LIBTM_LIBTM_H
#define GSTM_LIBTM_LIBTM_H

#include "engine/LibTm.h"

namespace gstm {

using LibTmConfig = EngineConfig;
using LibTm = EngineStm<LibTmPolicy>;
/// Per-thread descriptor; a transactional context for stm_lint.
using LibTxn = EngineTxn<LibTmPolicy>;

} // namespace gstm

#endif // GSTM_LIBTM_LIBTM_H

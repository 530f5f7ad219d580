//===- stm/Tl2.h - TL2 software transactional memory ---------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TL2 runtime the paper evaluates, under the names the workloads,
/// the runner and the guide controller use. The algorithm is the engine
/// chassis's TL2 policy (engine/Tl2.h); these are plain aliases.
///
/// Usage:
/// \code
///   Tl2Stm Stm;
///   TVar<uint64_t> Counter{0};
///   Tl2Txn Txn(Stm, /*Thread=*/0);
///   Txn.run(/*Tx=*/0, [&](Tl2Txn &Tx) {
///     Tx.store(Counter, Tx.load(Counter) + 1);
///   });
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STM_TL2_H
#define GSTM_STM_TL2_H

#include "engine/Tl2.h"

namespace gstm {

using Tl2Config = EngineConfig;
using Tl2Stm = EngineStm<Tl2Policy>;
/// Per-thread descriptor; a transactional context for stm_lint.
using Tl2Txn = EngineTxn<Tl2Policy>;

} // namespace gstm

#endif // GSTM_STM_TL2_H

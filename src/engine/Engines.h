//===- engine/Engines.h - The policy-templated engine family -------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Umbrella header for the engine family: include this to get every
/// policy on the chassis — TL2 (lazy orecs, the paper's runtime), LibTm
/// (object-embedded orecs, the paper's SynQuake runtime), orec-eager,
/// TLRW and 2PL-undo. Only the sharded tier (src/shard) keeps its own
/// descriptor. See DESIGN.md §4i for the full matrix.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_ENGINE_ENGINES_H
#define GSTM_ENGINE_ENGINES_H

#include "engine/LibTm.h"
#include "engine/OrecEager.h"
#include "engine/Tl2.h"
#include "engine/Tlrw.h"
#include "engine/TwoPl.h"

#endif // GSTM_ENGINE_ENGINES_H

//===- stm/VersionClock.h - TL2 global version clock ---------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The global version clock at the heart of TL2 (Dice, Shalev, Shavit,
/// DISC'06). Every transaction samples the clock at start (its read
/// version, `rv`); every writer transaction advances it at commit to obtain
/// its write version (`wv`) which is then installed into the versioned
/// locks of all written stripes.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STM_VERSIONCLOCK_H
#define GSTM_STM_VERSIONCLOCK_H

#include <atomic>
#include <cstdint>

namespace gstm {

/// Monotonic global version clock shared by all transactions of one STM
/// runtime instance.
class VersionClock {
public:
  /// Samples the current time; used as a transaction's read version.
  uint64_t sample() const { return Time.load(std::memory_order_acquire); }

  /// Advances the clock and returns the new (unique) write version.
  uint64_t advance() {
    return Time.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

private:
  std::atomic<uint64_t> Time{0};
};

} // namespace gstm

#endif // GSTM_STM_VERSIONCLOCK_H

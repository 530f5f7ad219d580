//===- stm/LockTable.h - Striped versioned write-locks -------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TL2's per-stripe versioned write-locks. Every transactional memory word
/// hashes to a stripe; the stripe word either holds the version number of
/// the last commit that wrote any word in the stripe (unlocked), or the
/// identity of the transaction currently holding the commit-time lock
/// (locked). Embedding the owner's (txid, thread) pair in the locked word
/// lets an aborting reader attribute its abort to a concrete transaction,
/// which is what the paper's thread-transactional-state tuples require.
///
/// Word layout:
///   bit 0      — 1 = locked, 0 = unlocked
///   bits 1..63 — unlocked: version; locked: packed TxThreadPair of owner
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STM_LOCKTABLE_H
#define GSTM_STM_LOCKTABLE_H

#include "support/Ids.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

namespace gstm {

/// How a word address maps to its stripe index (EngineConfig::StripeHash).
enum class StripeHashKind : uint8_t {
  /// Single Fibonacci multiply, index from the top bits. One cycle-ish,
  /// but consecutive words land on consecutive-ish stripes and the low
  /// address bits barely diffuse, so allocation-correlated pointers can
  /// clump into stripe runs.
  Fibonacci,
  /// Murmur3-style avalanche finalizer (xor-shift / multiply twice),
  /// index from the low bits. Two multiplies instead of one, but every
  /// address bit reaches every index bit — measurably fewer false
  /// stripe conflicts on pointer-heavy working sets.
  Mix,
};

/// A stripe word snapshot, decoded.
struct StripeState {
  bool Locked;
  /// Valid when unlocked.
  uint64_t Version;
  /// Valid when locked.
  TxThreadPair Owner;
};

/// Fixed-size table of versioned stripe locks, indexed by address hash.
class LockTable {
public:
  /// Creates a table with 2^\p Bits stripes, all unlocked at version 0,
  /// indexed via \p Hash.
  explicit LockTable(unsigned Bits = 20,
                     StripeHashKind Hash = StripeHashKind::Fibonacci)
      : BitCount(Bits), Mask((size_t{1} << Bits) - 1), Kind(Hash),
        Stripes(new std::atomic<uint64_t>[size_t{1} << Bits]) {
    assert(Bits >= 4 && Bits <= 28 && "unreasonable lock table size");
    for (size_t I = 0; I <= Mask; ++I)
      Stripes[I].store(0, std::memory_order_relaxed);
  }

  /// Number of stripes in the table.
  size_t size() const { return Mask + 1; }

  /// Returns the stripe word covering \p Addr.
  std::atomic<uint64_t> &stripeFor(const void *Addr) {
    return Stripes[indexFor(Addr)];
  }

  /// Returns the stripe index covering \p Addr (exposed for commit-time
  /// lock ordering and for tests).
  size_t indexFor(const void *Addr) const {
    uint64_t Key = reinterpret_cast<uintptr_t>(Addr) >> 3;
    if (Kind == StripeHashKind::Mix) {
      Key ^= Key >> 33;
      Key *= 0xff51afd7ed558ccdULL;
      Key ^= Key >> 29;
      Key *= 0xc4ceb9fe1a85ec53ULL;
      Key ^= Key >> 32;
      return static_cast<size_t>(Key) & Mask;
    }
    // Fibonacci hashing spreads consecutive words across stripes.
    return (Key * 0x9e3779b97f4a7c15ULL >> (64 - BitCount)) & Mask;
  }

  StripeHashKind hashKind() const { return Kind; }

  // A version publish through stripeAt must be a release store or a
  // relaxed one behind a release fence. (The orec engines' single-fence
  // commit publishes through OrecEagerPolicy::Held::Orec under the same
  // contract.)
  // stm-order: publish(stripeAt) requires release-fence-before
  std::atomic<uint64_t> &stripeAt(size_t Index) {
    assert(Index <= Mask && "stripe index out of range");
    return Stripes[Index];
  }

  /// Decodes a raw stripe word.
  static StripeState decode(uint64_t Word) {
    StripeState S;
    S.Locked = (Word & 1) != 0;
    S.Version = Word >> 1;
    S.Owner = static_cast<TxThreadPair>(Word >> 1);
    return S;
  }

  /// Encodes an unlocked word carrying \p Version.
  static uint64_t encodeVersion(uint64_t Version) {
    assert(Version < (uint64_t{1} << 63) && "version overflow");
    return Version << 1;
  }

  /// Encodes a locked word owned by \p Owner.
  static uint64_t encodeLocked(TxThreadPair Owner) {
    return (static_cast<uint64_t>(Owner) << 1) | 1;
  }

private:
  unsigned BitCount;
  size_t Mask;
  StripeHashKind Kind;
  std::unique_ptr<std::atomic<uint64_t>[]> Stripes;
};

} // namespace gstm

#endif // GSTM_STM_LOCKTABLE_H

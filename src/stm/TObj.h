//===- stm/TObj.h - Typed transactional object ----------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TObj<T> is the unit of transactionally shared state for the
/// object-granular LibTm policy (engine/LibTm.h): a multi-word trivially
/// copyable payload plus its own versioned-lock metadata word, so
/// conflicts are detected per object with no address hashing and no false
/// sharing between distinct objects. Transactions access it through
/// LibTxn::read/write; single-threaded setup and teardown code may use
/// the Direct accessors.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STM_TOBJ_H
#define GSTM_STM_TOBJ_H

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace gstm {

/// Type-erased base of every transactional object: the versioned-lock
/// metadata word (same encoding as the lock-table stripe words, see
/// stm/LockTable.h) plus the word-granular payload accessors the runtime
/// uses.
class TObjBase {
public:
  explicit TObjBase(size_t PayloadWords) : NumWords(PayloadWords) {}
  TObjBase(const TObjBase &) = delete;
  TObjBase &operator=(const TObjBase &) = delete;
  virtual ~TObjBase() = default;

  std::atomic<uint64_t> &meta() { return Meta; }
  size_t numWords() const { return NumWords; }

  virtual std::atomic<uint64_t> *words() = 0;

private:
  std::atomic<uint64_t> Meta{0};
  size_t NumWords;
};

/// A transactional object holding a trivially copyable \p T. The payload
/// is stored as relaxed atomic words so speculative snapshot copies are
/// well-defined; torn snapshots are rejected by the metadata re-check.
template <typename T> class TObj : public TObjBase {
  static_assert(std::is_trivially_copyable_v<T>,
                "TObj requires a trivially copyable payload");

public:
  static constexpr size_t WordCount = (sizeof(T) + 7) / 8;

  TObj() : TObjBase(WordCount) { storeDirect(T{}); }
  explicit TObj(const T &Value) : TObjBase(WordCount) {
    storeDirect(Value);
  }

  /// Non-transactional accessors; quiescent use only.
  T loadDirect() const {
    uint64_t Raw[WordCount];
    for (size_t I = 0; I < WordCount; ++I)
      Raw[I] = Payload[I].load(std::memory_order_relaxed);
    T Value;
    std::memcpy(&Value, Raw, sizeof(T));
    return Value;
  }
  void storeDirect(const T &Value) {
    uint64_t Raw[WordCount] = {};
    std::memcpy(Raw, &Value, sizeof(T));
    for (size_t I = 0; I < WordCount; ++I)
      Payload[I].store(Raw[I], std::memory_order_relaxed);
  }

  std::atomic<uint64_t> *words() override { return Payload; }

private:
  std::atomic<uint64_t> Payload[WordCount];
};

} // namespace gstm

#endif // GSTM_STM_TOBJ_H

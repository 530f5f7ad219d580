//===- check/Fuzz.h - Differential STM fuzzing ----------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, reproducible STM fuzzing: a seed expands into a FuzzPlan — a
/// fixed population of read-modify-write transactions over a small TVar
/// array — which runs under any backend configuration (the chassis
/// engines from src/engine with TL2 in both modes and LibTm, and a
/// single-threaded reference interpreter) with schedule perturbation
/// and full history recording. Each run is judged three ways:
///
///  * the recorded history must pass the checkers (check/Checker.h),
///  * the final memory state must equal the plan's analytic expectation
///    (every write adds a unique delta to the value it read, so any
///    serializable execution ends at initial + sum of deltas), and
///  * the runtime's locks must be quiescent after the workers join.
///
/// Because the expected final state is schedule-independent, the same
/// plan's outcome is directly comparable across backends: that is the
/// differential test (runDifferential). A failing seed reproduces with
/// `check_fuzz --seed <S> --backend <B>`.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CHECK_FUZZ_H
#define GSTM_CHECK_FUZZ_H

#include "check/Checker.h"
#include "check/History.h"
#include "engine/Core.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gstm {

/// Backend configuration a fuzz plan can execute under.
enum class FuzzBackend : uint8_t {
  /// TL2, commit-time (lazy) conflict detection — the paper's default.
  Tl2Lazy,
  /// TL2, encounter-time (eager) locking with undo log — the orec-eager
  /// algorithm reached through TL2's configuration.
  Tl2Eager,
  /// Object-based LibTm, one TObj<uint64_t> per variable.
  LibTm,
  /// The other chassis engines (src/engine): orec-based encounter-time
  /// locking with undo log and commit-time read validation,
  OrecEager,
  /// TLRW-style visible-reader bytelocks (no commit validation),
  Tlrw,
  /// and no-wait strict two-phase locking over the stripe table.
  TwoPlUndo,
  /// Single-threaded reference interpreter: executes the plan serially
  /// and synthesizes the history by hand. Known-good ground truth for
  /// both the differential comparison and the checkers themselves.
  Reference,
};

/// Short stable name ("tl2-lazy", ...) for reports and --backend flags.
const char *fuzzBackendName(FuzzBackend B);
/// Inverse of fuzzBackendName; returns false when \p Name is unknown.
bool fuzzBackendFromName(const std::string &Name, FuzzBackend &Out);

/// Every backend, in fuzzBackendName order: TL2 in its two modes,
/// LibTm, the other three chassis engines, and the serial reference.
inline constexpr FuzzBackend AllFuzzBackends[] = {
    FuzzBackend::Tl2Lazy,   FuzzBackend::Tl2Eager, FuzzBackend::LibTm,
    FuzzBackend::OrecEager, FuzzBackend::Tlrw,     FuzzBackend::TwoPlUndo,
    FuzzBackend::Reference};

/// Shape of the generated workloads. The defaults are sized for a
/// single-core CI host: small enough that a thousand iterations run in
/// seconds, contended enough (few variables, several threads) that
/// conflicts and aborts actually happen.
struct FuzzConfig {
  unsigned Threads = 3;
  unsigned TxnsPerThread = 8;
  unsigned Vars = 6;
  /// Operations per transaction are drawn from [1, MaxOpsPerTxn], each on
  /// a distinct variable; roughly half become read-modify-writes.
  unsigned MaxOpsPerTxn = 4;
  /// STM-internal random preemption (EngineConfig::PreemptShift).
  unsigned PreemptShift = 2;
  /// Observer-level perturbation (SchedulePerturber yield shift).
  unsigned PerturbShift = 2;
  /// Commit ordering for the TL2/orec-eager/LibTm backends: true
  /// exercises the single-fence writeback path (the runtime default),
  /// false the standard advance-then-validate-then-publish ordering. CI
  /// smoke runs sweep both (tools/check_fuzz.cpp).
  bool SingleFenceCommit = true;
  /// Fault injection for the engine-family backends, TL2 and LibTm
  /// included (mutation self-test only; see EngineFaultInjection for
  /// which engine each knob breaks).
  EngineFaultInjection Fault;
  CheckerConfig Checker;
};

/// One generated operation: read variable Var; when IsWrite, write back
/// the value read plus Delta.
struct FuzzOp {
  unsigned Var = 0;
  bool IsWrite = false;
  uint64_t Delta = 0;
};

/// One generated transaction (one run() body).
struct FuzzTxn {
  std::vector<FuzzOp> Ops;
};

/// A fully expanded seed: initial values plus each thread's transaction
/// list. Deterministic function of (Seed, Cfg shape).
struct FuzzPlan {
  std::vector<uint64_t> Initial;
  std::vector<std::vector<FuzzTxn>> PerThread;

  /// Schedule-independent expected final state: Initial[v] plus the sum
  /// of every write delta targeting v.
  std::vector<uint64_t> expectedFinal() const;
};

/// Expands \p Seed into a plan. Write deltas are drawn from the full
/// 64-bit space, making every intermediate value of a variable unique with
/// overwhelming probability — the property the checkers' value-based read
/// attribution rests on.
FuzzPlan makeFuzzPlan(uint64_t Seed, const FuzzConfig &Cfg);

/// Outcome of one (seed, backend) execution.
struct FuzzRunResult {
  /// Empty when the run passed; otherwise the first failure, prefixed
  /// with its class (checker / final-state / lock-residue / accounting).
  std::string Error;
  /// Checker verdict over the recorded history.
  CheckResult Check;
  std::vector<uint64_t> Final;
  std::vector<uint64_t> Expected;
  /// Attempts recorded (committed + aborted) and committed transactions.
  size_t Attempts = 0;
  size_t Committed = 0;
  /// Yields injected by the perturber (schedule-pressure telemetry).
  uint64_t PerturbYields = 0;

  bool passed() const { return Error.empty(); }
};

/// Runs the plan expanded from \p Seed under \p Backend and judges it.
FuzzRunResult runFuzzIteration(uint64_t Seed, FuzzBackend Backend,
                               const FuzzConfig &Cfg = FuzzConfig());

/// Outcome of one seed across all backends.
struct DifferentialResult {
  std::vector<std::pair<FuzzBackend, FuzzRunResult>> PerBackend;
  /// Empty when every backend passed and all final states agree.
  std::string Error;

  bool passed() const { return Error.empty(); }
};

/// Runs \p Seed under every backend and cross-compares the final states.
DifferentialResult runDifferential(uint64_t Seed,
                                   const FuzzConfig &Cfg = FuzzConfig());

} // namespace gstm

#endif // GSTM_CHECK_FUZZ_H

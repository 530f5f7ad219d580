//===- tools/check_fuzz.cpp - STM correctness fuzzer ----------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Schedule-perturbation fuzzer over the STM backends (src/check/):
//
//   check_fuzz [--iters=N] [--seed-base=S] [--backend=all|tl2-lazy|
//              tl2-eager|libtm|orec-eager|tlrw|2pl-undo|sharded|ref]
//              [--threads=T] [--txns=K] [--vars=V]
//   check_fuzz --seed=S [--backend=B]       # reproduce one seed
//   check_fuzz --smoke                      # CI preset: 1024 iterations
//
// Each iteration expands a seed into a randomized transactional workload,
// runs it under the selected backend(s) with seeded schedule perturbation,
// records the full history, and fails if the opacity/serializability
// checkers object, the final state deviates from the analytic expectation,
// backends diverge from each other, or lock residue survives quiescence.
//
// Every failure prints the exact reproduction command; exit status is the
// number of failing seeds (capped at 125).
//
//===----------------------------------------------------------------------===//

#include "check/Fuzz.h"
#include "check/ShardFuzz.h"
#include "check/TmdsFuzz.h"
#include "engine/Sharded.h"
#include "support/Options.h"

#include <cstdio>
#include <string>

using namespace gstm;

int main(int Argc, char **Argv) {
  OptionSet Cli(
      "check_fuzz",
      "schedule-perturbation correctness fuzzer over the STM backends",
      {
          {"iters", "N", "seeds to run (default 256; 1024 with --smoke)"},
          {"seed-base", "S", "first seed of the range (default 1)"},
          {"seed", "S", "reproduce exactly one seed"},
          {"backend", "B",
           "all, tl2-lazy, tl2-eager, libtm, orec-eager, tlrw, 2pl-undo, "
           "sharded or ref (default all)"},
          {"workload", "W",
           "rmw (flat read-modify-write vars), skiplist or btree "
           "(transactional map over src/tmds), or sharded (rmw with vars "
           "placed round-robin across shards; default rmw)"},
          {"threads", "T", "worker threads per iteration"},
          {"txns", "K", "transactions per thread"},
          {"vars", "V", "shared variables in the workload (rmw/sharded)"},
          {"keys", "K", "keyspace size (skiplist/btree; default 32)"},
          {"shards", "N", "shards (sharded workload; default 4)"},
          {"ops", "N", "max operations per transaction"},
          {"preempt-shift", "N", "preemption-point density (power of two)"},
          {"perturb-shift", "N", "schedule-perturbation density"},
          {"smoke", "", "CI preset: 1024 seeds per backend, both commit "
                        "orderings"},
          {"commit-order", "O",
           "single-fence, standard or both (default single-fence; both "
           "with --smoke)"},
          {"verbose", "", "print every iteration, not just failures"},
          {"inject-skip-validation", "",
           "fault injection: skip read validation, tl2-lazy + tl2-eager + "
           "orec-eager + libtm + sharded (checkers must object)"},
          {"inject-torn-publish", "",
           "fault injection: publish versions before the buffered "
           "writeback, tl2-lazy + libtm + sharded (checkers must object)"},
          {"inject-skip-undo", "",
           "fault injection: skip undo replay on abort, tl2-eager + "
           "orec-eager + 2pl-undo (checkers must object)"},
          {"inject-skip-drain", "",
           "fault injection: skip the tlrw writer's reader-byte drain "
           "(checkers must object)"},
      });
  Options Opts = Cli.parseOrExit(Argc, Argv);

  const bool Smoke = Opts.getBool("smoke", false);
  const uint64_t SeedBase =
      static_cast<uint64_t>(Opts.getInt("seed-base", 1));
  const uint64_t Iters = static_cast<uint64_t>(
      Opts.getInt("iters", Smoke ? 1024 : 256));
  const std::string BackendName = Opts.getString("backend", "all");
  const bool Verbose = Opts.getBool("verbose", false);

  FuzzConfig Cfg;
  Cfg.Threads = static_cast<unsigned>(Opts.getInt("threads", Cfg.Threads));
  Cfg.TxnsPerThread =
      static_cast<unsigned>(Opts.getInt("txns", Cfg.TxnsPerThread));
  Cfg.Vars = static_cast<unsigned>(Opts.getInt("vars", Cfg.Vars));
  Cfg.MaxOpsPerTxn =
      static_cast<unsigned>(Opts.getInt("ops", Cfg.MaxOpsPerTxn));
  Cfg.PreemptShift =
      static_cast<unsigned>(Opts.getInt("preempt-shift", Cfg.PreemptShift));
  Cfg.PerturbShift =
      static_cast<unsigned>(Opts.getInt("perturb-shift", Cfg.PerturbShift));
  // Fault injection, for watching the checkers catch a broken STM by hand
  // (the mutation self-test in tests/check_test.cpp automates this).
  // Skip-validation and torn-publish break the commit tail TL2, LibTm,
  // sharded and orec-eager share; the other two target engine-specific
  // safety mechanisms (undo replay, reader-byte drain).
  Cfg.Fault.SkipReadValidation = Opts.getBool("inject-skip-validation", false);
  Cfg.Fault.TornVersionPublish = Opts.getBool("inject-torn-publish", false);
  Cfg.Fault.SkipUndoReplay = Opts.getBool("inject-skip-undo", false);
  Cfg.Fault.SkipReaderDrain = Opts.getBool("inject-skip-drain", false);

  FuzzBackend Only = FuzzBackend::Tl2Lazy;
  const bool All = BackendName == "all";
  if (!All && !fuzzBackendFromName(BackendName, Only)) {
    std::fprintf(stderr,
                 "check_fuzz: unknown --backend=%s (want all, tl2-lazy, "
                 "tl2-eager, libtm, orec-eager, tlrw, 2pl-undo, sharded or "
                 "ref)\n",
                 BackendName.c_str());
    return 2;
  }

  // Structure workloads drive the tmds containers through the same
  // backends/checkers; the sharded workload places the rmw vars across
  // the sharded policy's shards (check/ShardFuzz.h); the flat rmw
  // workload stays the default.
  const std::string WorkloadName = Opts.getString("workload", "rmw");
  const bool ShardWorkload = WorkloadName == "sharded";
  const bool TmdsWorkload = WorkloadName != "rmw" && !ShardWorkload;
  TmdsFuzzConfig TCfg;
  if (TmdsWorkload &&
      !tmdsStructureFromName(WorkloadName, TCfg.Structure)) {
    std::fprintf(stderr,
                 "check_fuzz: unknown --workload=%s (want rmw, skiplist, "
                 "btree or sharded)\n",
                 WorkloadName.c_str());
    return 2;
  }
  if (TmdsWorkload &&
      (Cfg.Fault.SkipReadValidation || Cfg.Fault.TornVersionPublish ||
       Cfg.Fault.SkipUndoReplay || Cfg.Fault.SkipReaderDrain)) {
    std::fprintf(stderr,
                 "check_fuzz: this fault injection only applies to "
                 "--workload=rmw or sharded\n");
    return 2;
  }
  ShardFuzzConfig SCfg;
  SCfg.Fault = Cfg.Fault;
  if (ShardWorkload && !All) {
    std::fprintf(stderr,
                 "check_fuzz: --workload=sharded runs its own variant set "
                 "(sharded, sharded-1, ref); --backend is not applicable\n");
    return 2;
  }
  SCfg.Threads = static_cast<unsigned>(Opts.getInt("threads", SCfg.Threads));
  SCfg.TxnsPerThread =
      static_cast<unsigned>(Opts.getInt("txns", SCfg.TxnsPerThread));
  SCfg.Vars = static_cast<unsigned>(Opts.getInt("vars", SCfg.Vars));
  SCfg.MaxOpsPerTxn =
      static_cast<unsigned>(Opts.getInt("ops", SCfg.MaxOpsPerTxn));
  SCfg.ShardCount =
      static_cast<unsigned>(Opts.getInt("shards", SCfg.ShardCount));
  if (ShardWorkload && !ShardedTable::validShardCount(SCfg.ShardCount)) {
    std::fprintf(stderr,
                 "check_fuzz: --shards=%u is not a power of two in [1, %u]\n",
                 SCfg.ShardCount, MaxShardCount);
    return 2;
  }
  SCfg.PreemptShift =
      static_cast<unsigned>(Opts.getInt("preempt-shift", SCfg.PreemptShift));
  SCfg.PerturbShift =
      static_cast<unsigned>(Opts.getInt("perturb-shift", SCfg.PerturbShift));
  TCfg.Threads =
      static_cast<unsigned>(Opts.getInt("threads", TCfg.Threads));
  TCfg.TxnsPerThread =
      static_cast<unsigned>(Opts.getInt("txns", TCfg.TxnsPerThread));
  TCfg.OpsPerTxn =
      static_cast<unsigned>(Opts.getInt("ops", TCfg.OpsPerTxn));
  TCfg.Keys = static_cast<unsigned>(Opts.getInt("keys", TCfg.Keys));
  TCfg.PreemptShift =
      static_cast<unsigned>(Opts.getInt("preempt-shift", TCfg.PreemptShift));
  TCfg.PerturbShift =
      static_cast<unsigned>(Opts.getInt("perturb-shift", TCfg.PerturbShift));

  // Which commit orderings to sweep. The single-fence writeback path is
  // the runtime default; --smoke covers the standard ordering too so the
  // legacy path keeps its correctness coverage.
  const std::string OrderName =
      Opts.getString("commit-order", Smoke ? "both" : "single-fence");
  std::vector<bool> Orders;
  if (OrderName == "single-fence")
    Orders = {true};
  else if (OrderName == "standard")
    Orders = {false};
  else if (OrderName == "both")
    Orders = {true, false};
  else {
    std::fprintf(stderr,
                 "check_fuzz: unknown --commit-order=%s (want "
                 "single-fence, standard or both)\n",
                 OrderName.c_str());
    return 2;
  }

  uint64_t First = SeedBase, Count = Iters;
  if (Opts.has("seed")) {
    First = static_cast<uint64_t>(Opts.getInt("seed", 1));
    Count = 1;
  }

  uint64_t Failures = 0, Attempts = 0, Commits = 0, Yields = 0;
  uint64_t CrossCommits = 0;
  for (bool SingleFence : Orders) {
  Cfg.SingleFenceCommit = SingleFence;
  for (uint64_t I = 0; I < Count; ++I) {
    const uint64_t Seed = First + I;
    if (ShardWorkload) {
      SCfg.SingleFenceCommit = SingleFence;
      ShardDifferentialResult D = runShardDifferential(Seed, SCfg);
      for (const auto &[Variant, R] : D.PerVariant) {
        Attempts += R.Attempts;
        Commits += R.Committed;
        Yields += R.PerturbYields;
        CrossCommits += R.CrossShardCommits;
        if (Verbose || !R.passed())
          std::printf("seed %llu %-9s %s%s%s\n",
                      static_cast<unsigned long long>(Seed),
                      Variant.c_str(), R.passed() ? "ok" : "FAIL: ",
                      R.passed() ? "" : R.Error.c_str(),
                      R.Check.ok() ? "" : " [checker non-Ok]");
      }
      if (!D.passed()) {
        ++Failures;
        std::printf(
            "FAIL seed %llu: %s\n"
            "  repro: check_fuzz --workload=sharded --shards=%u "
            "--seed=%llu --commit-order=%s\n",
            static_cast<unsigned long long>(Seed), D.Error.c_str(),
            SCfg.ShardCount, static_cast<unsigned long long>(Seed),
            SingleFence ? "single-fence" : "standard");
      }
      continue;
    }
    if (TmdsWorkload) {
      TCfg.SingleFenceCommit = SingleFence;
      if (All) {
        TmdsDifferentialResult D = runTmdsDifferential(Seed, TCfg);
        for (const auto &[B, R] : D.PerBackend) {
          Attempts += R.Attempts;
          Commits += R.Committed;
          Yields += R.PerturbYields;
          if (Verbose || !R.passed())
            std::printf("seed %llu %-9s %s%s%s\n",
                        static_cast<unsigned long long>(Seed),
                        fuzzBackendName(B), R.passed() ? "ok" : "FAIL: ",
                        R.passed() ? "" : R.Error.c_str(),
                        R.Check.ok() ? "" : " [checker non-Ok]");
        }
        if (!D.passed()) {
          ++Failures;
          std::printf(
              "FAIL seed %llu: %s\n"
              "  repro: check_fuzz --workload=%s --seed=%llu "
              "--commit-order=%s\n",
              static_cast<unsigned long long>(Seed), D.Error.c_str(),
              WorkloadName.c_str(), static_cast<unsigned long long>(Seed),
              SingleFence ? "single-fence" : "standard");
        }
      } else {
        TmdsRunResult R = runTmdsFuzzIteration(Seed, Only, TCfg);
        Attempts += R.Attempts;
        Commits += R.Committed;
        Yields += R.PerturbYields;
        if (!R.passed()) {
          ++Failures;
          std::printf(
              "FAIL seed %llu (%s): %s\n"
              "  repro: check_fuzz --workload=%s --seed=%llu "
              "--backend=%s --commit-order=%s\n",
              static_cast<unsigned long long>(Seed),
              fuzzBackendName(Only), R.Error.c_str(),
              WorkloadName.c_str(), static_cast<unsigned long long>(Seed),
              fuzzBackendName(Only),
              SingleFence ? "single-fence" : "standard");
        } else if (Verbose) {
          std::printf("seed %llu %s ok (%zu attempts, %zu commits)\n",
                      static_cast<unsigned long long>(Seed),
                      fuzzBackendName(Only), R.Attempts, R.Committed);
        }
      }
      continue;
    }
    if (All) {
      DifferentialResult D = runDifferential(Seed, Cfg);
      for (const auto &[B, R] : D.PerBackend) {
        Attempts += R.Attempts;
        Commits += R.Committed;
        Yields += R.PerturbYields;
        if (Verbose || !R.passed())
          std::printf("seed %llu %-9s %s%s%s\n",
                      static_cast<unsigned long long>(Seed),
                      fuzzBackendName(B), R.passed() ? "ok" : "FAIL: ",
                      R.passed() ? "" : R.Error.c_str(),
                      R.Check.ok() ? "" : " [checker non-Ok]");
      }
      if (!D.passed()) {
        ++Failures;
        std::printf("FAIL seed %llu: %s\n"
                    "  repro: check_fuzz --seed=%llu --commit-order=%s\n",
                    static_cast<unsigned long long>(Seed), D.Error.c_str(),
                    static_cast<unsigned long long>(Seed),
                    SingleFence ? "single-fence" : "standard");
      }
    } else {
      FuzzRunResult R = runFuzzIteration(Seed, Only, Cfg);
      Attempts += R.Attempts;
      Commits += R.Committed;
      Yields += R.PerturbYields;
      if (!R.passed()) {
        ++Failures;
        std::printf(
            "FAIL seed %llu (%s): %s\n"
            "  repro: check_fuzz --seed=%llu --backend=%s "
            "--commit-order=%s\n",
            static_cast<unsigned long long>(Seed), fuzzBackendName(Only),
            R.Error.c_str(), static_cast<unsigned long long>(Seed),
            fuzzBackendName(Only),
            SingleFence ? "single-fence" : "standard");
      } else if (Verbose) {
        std::printf("seed %llu %s ok (%zu attempts, %zu commits)\n",
                    static_cast<unsigned long long>(Seed),
                    fuzzBackendName(Only), R.Attempts, R.Committed);
      }
    }
  }
  }

  if (ShardWorkload)
    std::printf("check_fuzz: %llu cross-shard commit(s) across the sweep\n",
                static_cast<unsigned long long>(CrossCommits));
  std::printf("check_fuzz: %llu seed(s) x %zu ordering(s), workload %s, "
              "backend %s: %llu failure(s); "
              "%llu attempts / %llu commits, %llu injected yields\n",
              static_cast<unsigned long long>(Count), Orders.size(),
              WorkloadName.c_str(), BackendName.c_str(),
              static_cast<unsigned long long>(Failures),
              static_cast<unsigned long long>(Attempts),
              static_cast<unsigned long long>(Commits),
              static_cast<unsigned long long>(Yields));
  return Failures > 125 ? 125 : static_cast<int>(Failures);
}

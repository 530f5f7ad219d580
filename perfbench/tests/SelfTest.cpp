//===- perfbench/tests/SelfTest.cpp - The benchmark's arithmetic -------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins every derived number the benchmark reports on inputs whose
/// answer is known by hand, and exits non-zero if any check fails. Run it
/// with `python3 perfbench/run.py --self-test`.
///
//===----------------------------------------------------------------------===//

#include "Arith.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace perfbench;

namespace {

int Failures = 0;

void expectNear(double Got, double Want, const char *What) {
  if (std::fabs(Got - Want) > 1e-9 * std::max(1.0, std::fabs(Want))) {
    std::fprintf(stderr, "FAIL %s: got %.12g, want %.12g\n", What, Got, Want);
    ++Failures;
  }
}

void expectTrue(bool Cond, const char *What) {
  if (!Cond) {
    std::fprintf(stderr, "FAIL %s\n", What);
    ++Failures;
  }
}

void percentiles() {
  // 1..100 in reverse: nearest rank picks the ceil(P% * N)-th smallest.
  std::vector<double> V;
  for (int I = 100; I >= 1; --I)
    V.push_back(I);
  expectNear(percentile(V, 50), 50, "p50 of 1..100");
  expectNear(percentile(V, 90), 90, "p90 of 1..100");
  expectNear(percentile(V, 99), 99, "p99 of 1..100");
  expectNear(percentile({7}, 90), 7, "p90 of one sample");
  expectNear(percentile({}, 50), 0, "empty percentile");
  expectNear(median({3, 1, 2}), 2, "median of three");
  expectNear(median({4, 1, 3, 2}), 2, "median of four is the lower middle");

  // The rule: highest percentile with at least ten samples beyond it.
  expectNear(highestReportablePercentile(9), 0, "9 samples: nothing");
  expectNear(highestReportablePercentile(20), 50, "20 samples: p50");
  expectNear(highestReportablePercentile(99), 50, "99 samples: p50");
  expectNear(highestReportablePercentile(100), 90, "100 samples: p90");
  expectNear(highestReportablePercentile(999), 90, "999 samples: p90");
  expectNear(highestReportablePercentile(1000), 99, "1000 samples: p99");
  expectNear(highestReportablePercentile(10000), 99.9, "1e4: p99.9");
  expectNear(highestReportablePercentile(100000), 99.99, "1e5: p99.99");
  expectTrue(percentileReportable(100, 90), "p90 reportable at 100");
  expectTrue(!percentileReportable(99, 90), "p90 not reportable at 99");

  // Count histogram: 90 commits after 0 retries, 9 after 1, 1 after 5.
  uint64_t Hist[16] = {90, 9, 0, 0, 0, 1};
  expectNear(histogramQuantile(Hist, 16, 0.5), 0, "retry p50");
  expectNear(histogramQuantile(Hist, 16, 0.9), 0, "retry p90 (rank 90)");
  expectNear(histogramQuantile(Hist, 16, 0.99), 1, "retry p99 (rank 99)");
  expectNear(histogramQuantile(Hist, 16, 0.999), 5, "retry p999");
  uint64_t Empty[4] = {};
  expectNear(histogramQuantile(Empty, 4, 0.99), 0, "empty histogram");
}

void pairedSlowdown() {
  // Ratios 2, 1.5, 3, 1.25, 4 -> median 2; drift that scales both sides
  // of a pair leaves the ratio alone.
  std::vector<double> Def = {10, 20, 10, 40, 5};
  std::vector<double> Gui = {20, 30, 30, 50, 20};
  expectNear(pairedRatioMedian(Def, Gui), 2.0, "paired median");
  std::vector<double> Drift = Def, GuiDrift = Gui;
  for (size_t I = 0; I < Drift.size(); ++I) {
    Drift[I] *= 1.0 + 0.1 * static_cast<double>(I);
    GuiDrift[I] *= 1.0 + 0.1 * static_cast<double>(I);
  }
  expectNear(pairedRatioMedian(Drift, GuiDrift), 2.0, "drift cancels");
  // Unpaired tail and non-positive defaults are ignored.
  expectNear(pairedRatioMedian({0, 10, 10}, {5, 30, 10, 99}), 1.0,
             "ratios 3 and 1: lower middle");
  expectNear(pairedRatioMedian({}, {}), 0, "no pairs");

  expectNear(coefficientOfVariation({2, 4, 4, 4, 5, 5, 7, 9}),
             std::sqrt(32.0 / 7.0) / 5.0, "sample CV");
  expectNear(coefficientOfVariation({1}), 0, "CV of one sample");
}

void selfTime() {
  // Root [0,100) with children [10,30) and [20,50) (overlapping: cover
  // 40) and [90,120) (clipped to 10): self 100 - 50 = 50. Child [20,50)
  // has a grandchild [25,35): self 20. Spans out of order on purpose.
  std::vector<Span> S = {
      {4, 3, "grandchild", 25, 35}, {2, 1, "a", 10, 30},
      {1, 0, "root", 0, 100},       {3, 1, "b", 20, 50},
      {5, 1, "late", 90, 120},      {6, 99, "orphan", 0, 7},
  };
  std::vector<uint64_t> Self = spanSelfTimes(S);
  expectNear(static_cast<double>(Self[2]), 50, "root self");
  expectNear(static_cast<double>(Self[1]), 20, "leaf a self");
  expectNear(static_cast<double>(Self[3]), 20, "b minus grandchild");
  expectNear(static_cast<double>(Self[0]), 10, "grandchild self");
  expectNear(static_cast<double>(Self[4]), 30, "late leaf self");
  expectNear(static_cast<double>(Self[5]), 7, "orphan keeps its duration");
  // Children covering the whole parent leave it no self time.
  std::vector<uint64_t> Full = spanSelfTimes(
      {{1, 0, "p", 0, 10}, {2, 1, "c", 0, 6}, {3, 1, "d", 6, 10}});
  expectNear(static_cast<double>(Full[0]), 0, "fully covered parent");
  // A child that starts before its parent counts only from the parent's
  // start: [5,15) covers 5 of [10,20).
  std::vector<uint64_t> Early =
      spanSelfTimes({{1, 0, "p", 10, 20}, {2, 1, "c", 5, 15}});
  expectNear(static_cast<double>(Early[0]), 5, "early child clipped");
}

void accounting() {
  Tally T;
  expectTrue(!T.correct(), "nothing attempted is not correct");
  for (int I = 0; I < 10; ++I)
    T.record(true);
  expectTrue(T.correct() && T.attempted() == 10 && T.failed() == 0,
             "ten passes");
  T.record(false);
  expectTrue(!T.correct() && T.attempted() == 11 && T.failed() == 1,
             "a failure is counted, not dropped");
  T.record(true);
  expectTrue(!T.correct() && T.attempted() == 12 && T.failed() == 1,
             "a later pass does not clear the failure");
  expectNear(share(1, 0), 0, "share of an empty base");
  expectNear(share(1, 4), 0.25, "share");
}

} // namespace

int main() {
  percentiles();
  pairedSlowdown();
  selfTime();
  accounting();
  if (Failures) {
    std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", Failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}

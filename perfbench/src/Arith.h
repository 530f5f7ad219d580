//===- perfbench/src/Arith.h - The benchmark's own arithmetic -----------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every number the benchmark derives from raw samples goes through this
/// header, so the self-test (perfbench/tests/SelfTest.cpp) can pin it on
/// known inputs:
///
///  * nearest-rank percentiles of exact samples, and the reporting rule
///    "the highest percentile with at least ten samples beyond it";
///  * the paired guided/default slowdown (median of per-iteration ratios,
///    which cancels host drift that moves both sides of a pair);
///  * span self time (duration minus the part of it child spans cover);
///  * failed/attempted accounting (a failed check is counted, never
///    dropped).
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_PERFBENCH_ARITH_H
#define GSTM_PERFBENCH_ARITH_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile \p P (0..100] of \p Samples: the
/// ceil(P/100 * N)-th smallest sample. 0 for an empty set.
inline double percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = std::ceil(P / 100.0 * static_cast<double>(Samples.size()));
  size_t Index = static_cast<size_t>(std::max(1.0, Rank)) - 1;
  return Samples[std::min(Index, Samples.size() - 1)];
}

inline double median(const std::vector<double> &Samples) {
  return percentile(Samples, 50.0);
}

/// The reporting rule for tails: of the ladder 50, 90, 99, 99.9, 99.99,
/// the highest percentile P with at least ten of \p N samples beyond it
/// (N * (1 - P/100) >= 10). 0 when not even the median qualifies.
inline double highestReportablePercentile(size_t N) {
  static constexpr double Ladder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (double P : Ladder)
    // N * (100 - P) >= 1000 is N * (1 - P/100) >= 10 without the
    // rounding of 1 - 0.999 below 0.001.
    if (static_cast<double>(N) * (100.0 - P) >= 1000.0 - 1e-9)
      return P;
  return 0.0;
}

/// True when \p P may be reported from \p N samples under the rule.
inline bool percentileReportable(size_t N, double P) {
  return highestReportablePercentile(N) >= P;
}

/// Median over iterations of Guided[i] / Default[i]. Pairs whose default
/// time is not positive are skipped. 0 for no usable pair.
inline double pairedRatioMedian(const std::vector<double> &Default,
                                const std::vector<double> &Guided) {
  std::vector<double> Ratios;
  size_t N = std::min(Default.size(), Guided.size());
  Ratios.reserve(N);
  for (size_t I = 0; I < N; ++I)
    if (Default[I] > 0.0)
      Ratios.push_back(Guided[I] / Default[I]);
  return median(Ratios);
}

/// Nearest-rank quantile \p Q in [0, 1] of a histogram whose bucket I
/// counts samples of value I: the bucket holding the ceil(Q*N)-th
/// smallest sample. 0 for an empty histogram.
inline double histogramQuantile(const uint64_t *Counts, size_t Buckets,
                                double Q) {
  uint64_t Total = 0;
  for (size_t I = 0; I < Buckets; ++I)
    Total += Counts[I];
  if (Total == 0)
    return 0.0;
  double Rank = std::max(1.0, std::ceil(Q * static_cast<double>(Total)));
  uint64_t Seen = 0;
  for (size_t I = 0; I < Buckets; ++I) {
    Seen += Counts[I];
    if (static_cast<double>(Seen) >= Rank)
      return static_cast<double>(I);
  }
  return static_cast<double>(Buckets - 1);
}

/// Coefficient of variation (sample stddev / mean); 0 below two samples.
inline double coefficientOfVariation(const std::vector<double> &Samples) {
  if (Samples.size() < 2)
    return 0.0;
  double Mean = 0.0;
  for (double X : Samples)
    Mean += X;
  Mean /= static_cast<double>(Samples.size());
  if (Mean == 0.0)
    return 0.0;
  double Sq = 0.0;
  for (double X : Samples)
    Sq += (X - Mean) * (X - Mean);
  return std::sqrt(Sq / static_cast<double>(Samples.size() - 1)) / Mean;
}

/// \p Num / \p Den, 0 when the base is empty.
inline double share(double Num, double Den) {
  return Den > 0.0 ? Num / Den : 0.0;
}

/// One recorded span. Ids are unique within a trace; Parent 0 = root.
struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0;
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
};

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals clipped to it. Returned in input order.
inline std::vector<uint64_t> spanSelfTimes(const std::vector<Span> &Spans) {
  std::unordered_map<uint64_t, size_t> IndexOf;
  IndexOf.reserve(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    IndexOf.emplace(Spans[I].Id, I);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Children(
      Spans.size());
  for (const Span &S : Spans) {
    auto It = S.Parent ? IndexOf.find(S.Parent) : IndexOf.end();
    if (It != IndexOf.end())
      Children[It->second].emplace_back(S.StartNs, S.EndNs);
  }
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &P = Spans[I];
    uint64_t Dur = P.EndNs > P.StartNs ? P.EndNs - P.StartNs : 0;
    auto &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    uint64_t Covered = 0, CurLo = 0, CurHi = 0;
    bool Open = false;
    for (auto [Lo, Hi] : Kids) {
      Lo = std::max(Lo, P.StartNs);
      Hi = std::min(Hi, P.EndNs);
      if (Hi <= Lo)
        continue;
      if (Open && Lo <= CurHi) {
        CurHi = std::max(CurHi, Hi);
        continue;
      }
      if (Open)
        Covered += CurHi - CurLo;
      CurLo = Lo;
      CurHi = Hi;
      Open = true;
    }
    if (Open)
      Covered += CurHi - CurLo;
    Self[I] = Dur - std::min(Dur, Covered);
  }
  return Self;
}

/// Checked-unit accounting: every attempted unit (a run, a batch, a model
/// round trip) is counted once, and a failed check is counted against it
/// rather than dropped.
class Tally {
public:
  void record(bool Passed) {
    ++Attempted;
    if (!Passed)
      ++Failed;
  }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  /// Correct only when something was checked and nothing failed.
  bool correct() const { return Attempted > 0 && Failed == 0; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

} // namespace perfbench

#endif // GSTM_PERFBENCH_ARITH_H

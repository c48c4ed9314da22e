//===- wirebench/src/Stats.h - Percentiles with a density rule --*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The order statistics the benchmark reports. A percentile is taken by
/// nearest rank and is only reported when at least MinBeyond samples lie
/// above it: a p99 over 200 samples is the second-largest value, which
/// says nothing steady about the tail.
///
//===----------------------------------------------------------------------===//

#ifndef WIREBENCH_STATS_H
#define WIREBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace wirebench {

/// Samples that must lie strictly above a reported percentile's rank.
constexpr size_t MinBeyond = 10;

/// The 1-based nearest rank of quantile \p Q (0 < Q < 1) among \p N samples.
inline size_t nearestRank(double Q, size_t N) {
  size_t K = static_cast<size_t>(std::ceil(Q * static_cast<double>(N)));
  return std::clamp<size_t>(K, 1, N);
}

/// The \p Q-quantile of \p Samples by nearest rank, or nothing when fewer
/// than \p Beyond samples lie above its rank.
inline std::optional<double> percentile(std::vector<double> Samples, double Q,
                                        size_t Beyond = MinBeyond) {
  if (Samples.empty())
    return std::nullopt;
  size_t K = nearestRank(Q, Samples.size());
  if (Samples.size() - K < Beyond)
    return std::nullopt;
  std::nth_element(Samples.begin(), Samples.begin() + (K - 1), Samples.end());
  return Samples[K - 1];
}

/// The smallest sample count for which percentile(Q) is reportable.
inline size_t samplesNeeded(double Q, size_t Beyond = MinBeyond) {
  size_t N = 1;
  while (N - nearestRank(Q, N) < Beyond)
    ++N;
  return N;
}

/// Timestamped samples in time order.
struct Series {
  std::vector<double> Values;
  std::vector<double> AtUs;
  void add(double Value, double At) {
    Values.push_back(Value);
    AtUs.push_back(At);
  }
  size_t size() const { return Values.size(); }
};

/// Plain median (mean of the two middle values for even counts); used for
/// medians over repetitions and in diagnostics, not for the reported
/// latency percentiles.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

inline double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / static_cast<double>(V.size());
}

} // namespace wirebench

#endif // WIREBENCH_STATS_H

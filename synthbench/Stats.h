//===- synthbench/Stats.h - Summary statistics for the benchmark -*- C++ -*-===//
//
// Part of the Migrator project: a reproduction of "Synthesizing Database
// Programs for Schema Refactoring" (Wang et al., PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics for every number the benchmark reports. Quantiles are
/// linear interpolations between ranked samples and are clamped to the
/// observed [min, max], so a median or quartile can never name a value the
/// run did not bracket (the bucket-interpolated histogram percentiles of the
/// metrics registry can; the benchmark does not use them for its results).
///
//===----------------------------------------------------------------------===//

#ifndef MIGRATOR_SYNTHBENCH_STATS_H
#define MIGRATOR_SYNTHBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace synthbench {

/// Value at quantile \p Q in [0, 1] of \p Samples (NaN when empty).
inline double quantile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return std::nan("");
  std::sort(Samples.begin(), Samples.end());
  Q = std::clamp(Q, 0.0, 1.0);
  double Pos = Q * static_cast<double>(Samples.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  double V = Samples[Lo] + (Pos - static_cast<double>(Lo)) *
                               (Samples[Hi] - Samples[Lo]);
  return std::clamp(V, Samples.front(), Samples.back());
}

inline double median(const std::vector<double> &Samples) {
  return quantile(Samples, 0.5);
}

/// Checks quantile() on the small inputs where unclamped estimators go
/// wrong. Returns an empty string on success, else what failed.
inline std::string statsSelfTest() {
  auto Near = [](double A, double B) { return std::fabs(A - B) < 1e-12; };
  for (double Q : {0.0, 0.25, 0.5, 0.75, 1.0})
    if (!Near(quantile({6.70}, Q), 6.70))
      return "1-sample quantile is not the sample";
  for (double Q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    double V = quantile({1.0, 3.0}, Q);
    if (V < 1.0 || V > 3.0)
      return "2-sample quantile outside [min, max]";
  }
  if (!Near(median({1.0, 3.0}), 2.0) || !Near(median({3.0, 1.0, 2.0}), 2.0))
    return "median of 2 or 3 samples is wrong";
  if (!Near(quantile({1.0, 1.0}, 0.5), 1.0))
    return "quantile of equal samples is not that value";
  if (!std::isnan(quantile({}, 0.5)))
    return "quantile of no samples is not NaN";
  return "";
}

} // namespace synthbench

#endif // MIGRATOR_SYNTHBENCH_STATS_H

//===- Stats.h - Percentiles, tail latency, metric names --------*- C++ -*-===//
//
// Part of the lao perfbench package.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small statistics the benchmark reports: medians, nearest-rank
/// percentiles, the tail-latency rule, and the metric-name check. They
/// are kept apart from the workloads so the unit tests can pin them.
///
/// Tail rule: the tail is the highest of p99 / p95 / p90 that has at
/// least ten samples strictly above its rank. A run with fewer than a
/// hundred samples has no such percentile; its tail is then the maximum
/// and the label says so ("max"), with zero samples beyond it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of \p Values (mean of the two middle values for an even
/// count); 0 for an empty vector.
double median(std::vector<double> Values);

/// Nearest-rank percentile of \p Sorted (ascending): the value at rank
/// ceil(P/100 * n), 1-based. \p Sorted must be non-empty.
double percentileSorted(const std::vector<double> &Sorted, double P);

/// Number of samples strictly after the nearest rank of \p P in a
/// sample of size \p N.
size_t samplesBeyond(size_t N, double P);

/// Result of the tail rule.
struct Tail {
  double Value = 0;
  std::string Label; ///< "p99", "p95", "p90" or "max".
  size_t Beyond = 0; ///< Samples above the chosen rank.
  size_t Samples = 0;
};

/// Applies the tail rule (see the file comment) to \p Samples.
Tail tailLatency(std::vector<double> Samples);

/// True when \p Name is a valid metric or workload name: 1 to 64
/// characters from [A-Za-z0-9_.-], starting with a letter or digit.
bool validMetricName(std::string_view Name);

/// Shortest decimal text that reads back as exactly \p V.
std::string formatDouble(double V);

} // namespace perfbench

#endif // PERFBENCH_STATS_H

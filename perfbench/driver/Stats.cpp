//===- Stats.cpp - Percentiles, tail latency, metric names ----------------===//
//
// Part of the lao perfbench package.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace perfbench {

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

static size_t nearestRank(size_t N, double P) {
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * N - 1e-9));
  return std::clamp<size_t>(Rank, 1, N);
}

double percentileSorted(const std::vector<double> &Sorted, double P) {
  return Sorted[nearestRank(Sorted.size(), P) - 1];
}

size_t samplesBeyond(size_t N, double P) {
  return N == 0 ? 0 : N - nearestRank(N, P);
}

Tail tailLatency(std::vector<double> Samples) {
  Tail T;
  T.Samples = Samples.size();
  if (Samples.empty()) {
    T.Label = "max";
    return T;
  }
  std::sort(Samples.begin(), Samples.end());
  for (auto [P, Label] : {std::pair<double, const char *>{99, "p99"},
                          {95, "p95"},
                          {90, "p90"}}) {
    size_t Beyond = samplesBeyond(Samples.size(), P);
    if (Beyond >= 10) {
      T.Value = percentileSorted(Samples, P);
      T.Label = Label;
      T.Beyond = Beyond;
      return T;
    }
  }
  T.Value = Samples.back();
  T.Label = "max";
  return T;
}

bool validMetricName(std::string_view Name) {
  if (Name.empty() || Name.size() > 64)
    return false;
  auto Alnum = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
           (C >= '0' && C <= '9');
  };
  if (!Alnum(Name.front()))
    return false;
  return std::all_of(Name.begin(), Name.end(), [&](char C) {
    return Alnum(C) || C == '_' || C == '.' || C == '-';
  });
}

std::string formatDouble(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  (void)Ec;
  return std::string(Buf, End);
}

} // namespace perfbench

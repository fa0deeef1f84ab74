//===- Trace.cpp - In-memory spans, self times, Chrome trace JSON ---------===//
//
// Part of the lao perfbench package.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "Stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

int Tracer::begin(std::string Name, std::string Layer, uint64_t Id,
                  int Parent, unsigned Lane) {
  double Now = nowSeconds();
  return add(std::move(Name), std::move(Layer), Id, Parent, Now, Now, Lane);
}

int Tracer::add(std::string Name, std::string Layer, uint64_t Id, int Parent,
                double Start, double End, unsigned Lane) {
  Spans.push_back(
      {std::move(Name), std::move(Layer), Id, Parent, Lane, Start, End});
  return static_cast<int>(Spans.size()) - 1;
}

static void appendEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
}

std::string Tracer::chromeJson() const {
  double Origin = Spans.empty() ? 0 : Spans.front().Start;
  for (const Span &S : Spans)
    Origin = std::min(Origin, S.Start);
  std::string Out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t K = 0; K < Spans.size(); ++K) {
    const Span &S = Spans[K];
    Out += K ? ",\n" : "\n";
    Out += "{\"name\": \"";
    appendEscaped(Out, S.Name);
    Out += "\", \"cat\": \"";
    appendEscaped(Out, S.Layer);
    Out += "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(S.Lane) +
           ", \"ts\": " + formatDouble((S.Start - Origin) * 1e6) +
           ", \"dur\": " + formatDouble((S.End - S.Start) * 1e6) +
           ", \"args\": {\"id\": " + std::to_string(S.Id) +
           ", \"parent\": " + std::to_string(S.Parent) + "}}";
  }
  Out += "\n]}\n";
  return Out;
}

double SelfTimes::attributed() const {
  double Sum = 0;
  for (const auto &[Layer, S] : ByLayer)
    Sum += S;
  return Sum;
}

double SelfTimes::identityError() const {
  return std::fabs(RootSeconds - (attributed() + Unattributed));
}

SelfTimes selfTimes(const std::vector<Span> &Spans) {
  size_t N = Spans.size();
  std::vector<std::vector<size_t>> Children(N);
  // Each span clipped to its parent's (clipped) interval, so a child that
  // pokes out of its parent is only counted where the parent is.
  std::vector<std::pair<double, double>> Eff(N);
  for (size_t K = 0; K < N; ++K) {
    const Span &S = Spans[K];
    // Parents are always recorded before their children.
    if (S.Parent < 0) {
      Eff[K] = {S.Start, std::max(S.Start, S.End)};
      continue;
    }
    size_t P = static_cast<size_t>(S.Parent);
    Children[P].push_back(K);
    double Lo = std::clamp(S.Start, Eff[P].first, Eff[P].second);
    Eff[K] = {Lo, std::clamp(S.End, Lo, Eff[P].second)};
  }

  SelfTimes Out;
  for (size_t K = 0; K < N; ++K) {
    const Span &S = Spans[K];
    // Measure of the union of the children's intervals.
    std::vector<std::pair<double, double>> Cover;
    for (size_t C : Children[K])
      Cover.push_back(Eff[C]);
    std::sort(Cover.begin(), Cover.end());
    double Covered = 0, Reach = Eff[K].first;
    for (auto [Lo, Hi] : Cover) {
      Lo = std::max(Lo, Reach);
      if (Hi > Lo) {
        Covered += Hi - Lo;
        Reach = Hi;
      }
    }
    double Length = Eff[K].second - Eff[K].first;
    double Self = Length - Covered;
    if (S.Parent < 0) {
      Out.Unattributed += Self;
      Out.RootSeconds += Length;
    } else {
      Out.ByLayer[S.Layer] += Self;
      Out.ByName[S.Name] += Self;
    }
  }
  return Out;
}

} // namespace perfbench

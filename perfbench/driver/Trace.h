//===- Trace.h - In-memory spans, self times, Chrome trace JSON -*- C++ -*-===//
//
// Part of the lao perfbench package.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer. Spans are recorded only by the benchmark's
/// own code, around calls into each layer's public functions; nothing
/// inside the library is instrumented. A span has a name, a layer, the
/// id of the function or request it belongs to, its parent span, and a
/// start and end time. Spans stay in memory and are written once, as
/// Chrome trace-event JSON, when the run ends.
///
/// Self time: a span's duration minus the part of it its children
/// cover. Summed by layer, with the roots' own self time reported as
/// "unattributed", the self times of a tree add up to the root's
/// duration exactly (children lie inside their parent and do not
/// overlap their siblings; the benchmark checks this).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (the benchmark's single time base).
inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string Name;  ///< What was called ("runPipeline", "translate", ...).
  std::string Layer; ///< Self-time bucket ("outofssa", "regalloc", ...).
  uint64_t Id = 0;   ///< Function or request id shared by a tree.
  int Parent = -1;   ///< Index of the parent span; -1 for a root.
  unsigned Lane = 0; ///< Display row in the trace viewer.
  double Start = 0;  ///< nowSeconds() at entry.
  double End = 0;
};

class Tracer {
public:
  /// Opens a span at the current time; returns its index.
  int begin(std::string Name, std::string Layer, uint64_t Id, int Parent,
            unsigned Lane = 0);
  void end(int Index) { Spans[Index].End = nowSeconds(); }
  /// Records a span with explicit times (phase children placed from a
  /// PipelineResult, server spans reconstructed from records).
  int add(std::string Name, std::string Layer, uint64_t Id, int Parent,
          double Start, double End, unsigned Lane = 0);

  const std::vector<Span> &spans() const { return Spans; }
  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string chromeJson() const;

private:
  std::vector<Span> Spans;
};

/// RAII span that does nothing when the tracer is null, so untraced
/// runs pay one branch per call.
class SpanScope {
public:
  SpanScope(Tracer *T, const char *Name, const char *Layer, uint64_t Id,
            int Parent, unsigned Lane = 0)
      : T(T), Index(T ? T->begin(Name, Layer, Id, Parent, Lane) : -1) {}
  ~SpanScope() {
    if (T)
      T->end(Index);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  int index() const { return Index; }

private:
  Tracer *T;
  int Index;
};

/// Self time per layer over every tree in \p Spans.
struct SelfTimes {
  std::map<std::string, double> ByLayer; ///< Non-root spans, by Layer.
  std::map<std::string, double> ByName;  ///< The same, by span Name.
  double Unattributed = 0; ///< Root self time: not inside any child.
  double RootSeconds = 0;  ///< Sum of root durations.

  double attributed() const;
  /// |RootSeconds - (attributed + Unattributed)|: zero up to rounding
  /// when children nest inside their parents without overlapping.
  double identityError() const;
};

SelfTimes selfTimes(const std::vector<Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H

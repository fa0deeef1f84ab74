//===- HelperTests.cpp - Tests of the benchmark's own helpers -------------===//
//
// Part of the lao perfbench package.
//
//===----------------------------------------------------------------------===//
//
// Pins the tail-latency rule, the self-time arithmetic, the metric-name
// check and the JSON reader, and checks that BENCHMARK.json (path given
// as the first argument) declares exactly the driver's workloads and
// metrics. Run through ctest in the perfbench build tree, or directly:
//
//   perfbench_tests path/to/BENCHMARK.json
//
//===----------------------------------------------------------------------===//

#include "Metrics.h"
#include "MiniJson.h"
#include "Stats.h"
#include "Trace.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__,    \
                   #Cond);                                                     \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

std::vector<double> ramp(size_t N) {
  std::vector<double> V;
  for (size_t K = 1; K <= N; ++K)
    V.push_back(static_cast<double>(N + 1 - K)); // Descending on purpose.
  return V;
}

void testPercentiles() {
  CHECK(near(median({3, 1, 2}), 2));
  CHECK(near(median({4, 1, 2, 3}), 2.5));
  CHECK(near(median({}), 0));
  std::vector<double> Sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  CHECK(near(percentileSorted(Sorted, 50), 5));
  CHECK(near(percentileSorted(Sorted, 90), 9));
  CHECK(near(percentileSorted(Sorted, 99), 10));
  CHECK(samplesBeyond(100, 90) == 10);
  CHECK(samplesBeyond(100, 95) == 5);
  CHECK(samplesBeyond(1000, 99) == 10);
}

void testTailRule() {
  // Fewer than 100 samples: no percentile has ten beyond it -> max.
  Tail T = tailLatency(ramp(99));
  CHECK(T.Label == "max" && near(T.Value, 99) && T.Beyond == 0 &&
        T.Samples == 99);
  // Exactly 100: p90 has ten beyond, p95 only five.
  T = tailLatency(ramp(100));
  CHECK(T.Label == "p90" && near(T.Value, 90) && T.Beyond == 10);
  // 146 (the paper suites): p90, fourteen beyond.
  T = tailLatency(ramp(146));
  CHECK(T.Label == "p90" && T.Beyond == 14);
  // 200: p95 has ten beyond, p99 two.
  T = tailLatency(ramp(200));
  CHECK(T.Label == "p95" && near(T.Value, 190) && T.Beyond == 10);
  // 1000: p99.
  T = tailLatency(ramp(1000));
  CHECK(T.Label == "p99" && near(T.Value, 990) && T.Beyond == 10);
  T = tailLatency({});
  CHECK(T.Label == "max" && T.Samples == 0);
}

void testSelfTimes() {
  Tracer Tr;
  int Root = Tr.add("function", "bench", 1, -1, 0, 10);
  int A = Tr.add("outofssa.pipeline", "outofssa", 1, Root, 1, 4);
  Tr.add("outofssa.phase.translate", "outofssa", 1, A, 2, 3);
  Tr.add("regalloc.chordal.alloc", "regalloc", 1, Root, 5, 9);
  // A second tree; its child pokes out of its root and is clipped.
  int Frame = Tr.add("frame", "client", 2, -1, 20, 22);
  Tr.add("server.worker", "server", 2, Frame, 21, 23);

  SelfTimes All = selfTimes(Tr.spans());
  CHECK(near(All.RootSeconds, 12));
  CHECK(near(All.ByLayer["outofssa"], 3)); // 2 (pipeline self) + 1.
  CHECK(near(All.ByLayer["regalloc"], 4));
  CHECK(near(All.ByName["outofssa.pipeline"], 2));
  CHECK(near(All.ByName["outofssa.phase.translate"], 1));
  CHECK(near(All.Unattributed, 3 + 1)); // Root gaps of both trees.
  CHECK(All.identityError() < 1e-12);

  CHECK(near(All.ByLayer["server"], 1)); // Clipped to its parent.

  // The trace file is JSON with one event per span.
  std::optional<JsonValue> Doc = parseJson(Tr.chromeJson());
  CHECK(Doc && Doc->get("traceEvents") &&
        Doc->get("traceEvents")->Items.size() == Tr.spans().size());
}

void testMetricNames() {
  CHECK(validMetricName("compile_s"));
  CHECK(validMetricName("outofssa.phase.phi-coalescing_s"));
  CHECK(validMetricName("9lives"));
  CHECK(!validMetricName(""));
  CHECK(!validMetricName("_leading"));
  CHECK(!validMetricName(".leading"));
  CHECK(!validMetricName("has space"));
  CHECK(!validMetricName("slash/no"));
  CHECK(!validMetricName(std::string(65, 'a')));
  CHECK(validMetricName(std::string(64, 'a')));

  std::set<std::string> Seen;
  for (const char *W : WorkloadNames)
    CHECK(validMetricName(W) && Seen.insert(W).second);
  Seen.clear();
  for (const MetricSpec &M : EndToEndMetrics)
    CHECK(validMetricName(M.Name) && Seen.insert(M.Name).second);
  for (const auto &[Name, Unit] : perLayerMetrics())
    CHECK(validMetricName(Name) && Seen.insert(Name).second);
}

void testJson() {
  std::optional<JsonValue> V = parseJson(
      R"({"a": [1, 18446744073709551615, -2.5e3], "b": {"c": "x\"y"},)"
      R"( "d": true, "e": null})");
  CHECK(V.has_value());
  if (V) {
    CHECK(V->get("a")->Items[1].asU64() == 18446744073709551615ULL);
    CHECK(near(V->get("a")->Items[2].asDouble(), -2500));
    CHECK(V->get("b")->get("c")->Text == "x\"y");
    CHECK(V->get("d")->B);
    CHECK(V->get("missing") == nullptr);
  }
  CHECK(!parseJson("{\"a\": }"));
  CHECK(!parseJson("[1, 2"));
  CHECK(!parseJson("{} trailing"));
}

/// BENCHMARK.json must list the driver's workloads and metrics, in order,
/// with the same units.
void testBenchmarkJson(const char *Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  std::optional<JsonValue> Doc = parseJson(SS.str());
  CHECK(Doc.has_value());
  if (!Doc)
    return;
  const JsonValue *Workloads = Doc->get("workloads");
  const JsonValue *E2E = Doc->get("end_to_end");
  const JsonValue *PerLayer = Doc->get("per_layer");
  CHECK(Workloads && E2E && PerLayer);
  if (!Workloads || !E2E || !PerLayer)
    return;

  std::vector<std::string> Want, Got;
  for (const char *W : WorkloadNames)
    Want.push_back(W);
  for (const JsonValue &W : Workloads->Items)
    Got.push_back(W.get("name") ? W.get("name")->Text : "");
  CHECK(Want == Got);

  Want.clear();
  Got.clear();
  for (const MetricSpec &M : EndToEndMetrics)
    Want.push_back(std::string(M.Name) + " " + M.Unit);
  for (const JsonValue &M : E2E->Items)
    Got.push_back(M.get("name")->Text + " " + M.get("unit")->Text);
  CHECK(Want == Got);

  Want.clear();
  Got.clear();
  for (const auto &[Name, Unit] : perLayerMetrics())
    Want.push_back(Name + " " + Unit);
  for (const JsonValue &M : PerLayer->Items)
    Got.push_back(M.get("name")->Text + " " + M.get("unit")->Text);
  CHECK(Want == Got);
}

} // namespace

int main(int Argc, char **Argv) {
  testPercentiles();
  testTailRule();
  testSelfTimes();
  testMetricNames();
  testJson();
  if (Argc > 1)
    testBenchmarkJson(Argv[1]);
  else
    std::fprintf(stderr, "note: no BENCHMARK.json given, skipping its check\n");
  std::printf("%s (%d failures)\n", Failures ? "FAILED" : "ok", Failures);
  return Failures ? 1 : 0;
}

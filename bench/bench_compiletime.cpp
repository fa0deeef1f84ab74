//===- bench_compiletime.cpp - Section 5 compile-time discussion --------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// The paper's compile-time argument ([CC3] and the Table 4 discussion):
// the repeated register coalescer's cost is proportional to the number
// of move instructions it has to process, so handling coalescing at the
// SSA level shrinks the expensive phase. This bench prints the
// coalescer's merge counts for the pinned vs naive configurations, and
// the pipelines' wall-clock over a sweep of generated workloads.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace lao;
using namespace lao::bench;

namespace {

BenchReport Report;

void printScalingTable() {
  std::printf("\nCompile-time scaling sweep (generated workloads)\n");
  std::printf("%-12s %7s %7s %14s %14s %8s\n", "point", "blocks", "vars",
              "pinned-s", "naive-s", "ratio");
  for (const ScaleSpec &Spec : ScaleSweep) {
    std::vector<Workload> Suite = makeScaleSuite(Spec);
    size_t Blocks = 0, Vars = 0;
    for (const Workload &W : Suite) {
      Blocks += W.F->numBlocks();
      Vars += W.F->numValues();
    }
    SuiteTotals Pinned =
        Report.totals(Spec.Name, Suite, pipelinePreset("Lphi,ABI+C"));
    SuiteTotals Naive =
        Report.totals(Spec.Name, Suite, pipelinePreset("C,naiveABI+C"));
    std::printf("%-12s %7zu %7zu %14.6f %14.6f %8.2f\n", Spec.Name, Blocks,
                Vars, Pinned.Seconds, Naive.Seconds,
                Pinned.Seconds > 0 ? Naive.Seconds / Pinned.Seconds : 0.0);
  }
  std::fflush(stdout);
}

void printCompileTimeTable() {
  std::printf("\nCompile-time proxy: aggressive-coalescer workload\n");
  std::printf("%-14s %22s %22s\n", "benchmark", "pinned(merges/moves-in)",
              "naive(merges/moves-in)");
  for (const auto &[Name, Suite] : suites()) {
    SuiteTotals Pinned =
        Report.totals(Name, Suite, pipelinePreset("Lphi,ABI+C"));
    SuiteTotals Naive =
        Report.totals(Name, Suite, pipelinePreset("C,naiveABI+C"));
    std::printf("%-14s %11llu /%9llu %11llu /%9llu\n", Name.c_str(),
                static_cast<unsigned long long>(Pinned.CoalescerMerges),
                static_cast<unsigned long long>(Pinned.MovesBeforeCoalesce),
                static_cast<unsigned long long>(Naive.CoalescerMerges),
                static_cast<unsigned long long>(Naive.MovesBeforeCoalesce));
  }
  std::fflush(stdout);
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = parseBenchArgs(argc, argv, "--json=", "<file>");
  printCompileTimeTable();
  printScalingTable();
  if (!JsonPath.empty())
    Report.writeJson(JsonPath, "compiletime");
  return 0;
}

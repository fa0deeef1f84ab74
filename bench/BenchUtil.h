//===- BenchUtil.h - Shared bench-table machinery ---------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table bench binaries: suite caching, running
/// a pipeline configuration over a suite (serially or on a thread pool),
/// printing paper-style tables (first column absolute, remaining columns
/// as +/- deltas, exactly like Tables 2, 3 and 5 of the paper), and the
/// `--json=<file>` machine-readable output mode.
///
/// Every binary prints its table(s) on startup, optionally writes its
/// BENCH_<table>.json, and then runs the registered google-benchmark
/// timings.
///
/// Determinism: the parallel runOnSuite only parallelizes the per-function
/// pipeline executions; per-function results land in an index-addressed
/// vector and the SuiteTotals reduction folds them in suite order, so the
/// measurement fields (moves, weighted moves, merges, counters) are
/// bit-identical to the serial path — only the wall-clock fields differ
/// run to run. ObservabilityTests guards this.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_BENCH_BENCHUTIL_H
#define LAO_BENCH_BENCHUTIL_H

#include "exec/Interpreter.h"
#include "ir/Clone.h"
#include "outofssa/Pipeline.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "workloads/Suites.h"

#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace lao {
namespace bench {

/// Lazily built, cached copies of all suites.
inline const std::vector<std::pair<std::string, std::vector<Workload>>> &
suites() {
  static std::vector<std::pair<std::string, std::vector<Workload>>> Cache;
  if (Cache.empty())
    for (const SuiteSpec &Spec : allSuites())
      Cache.push_back({Spec.Name, Spec.Make()});
  return Cache;
}

/// The pool the bench binaries share. Created on first use; sized to the
/// machine.
inline ThreadPool &sharedPool() {
  static ThreadPool Pool;
  return Pool;
}

/// Aggregate outcome of a configuration over one suite.
struct SuiteTotals {
  uint64_t Moves = 0;
  uint64_t WeightedMoves = 0;
  uint64_t MovesBeforeCoalesce = 0;
  uint64_t CoalescerMerges = 0;
  double Seconds = 0.0;
  double CoalesceSeconds = 0.0;
  /// Per-phase seconds summed over the suite, pipeline phase order.
  TimerGroup PerPass;
  /// StatsRegistry movement during the run ("pass.name" -> delta).
  StatsSnapshot Counters;
};

/// Runs \p Config on a fresh clone of one workload; optionally verifies
/// interpreter equivalence and aborts loudly on a miscompile (used to
/// keep the bench numbers trustworthy).
inline PipelineResult runOnWorkload(const Workload &W,
                                    const PipelineConfig &Config,
                                    bool Check) {
  auto F = cloneFunction(*W.F);
  PipelineResult R = runPipeline(*F, Config);
  if (Check)
    for (const auto &Args : W.Inputs) {
      ExecResult Before = interpret(*W.F, Args);
      ExecResult After = interpret(*F, Args);
      if (!Before.sameObservable(After)) {
        std::fprintf(stderr,
                     "MISCOMPILE: %s under %s (inputs differ in "
                     "observable trace)\n",
                     W.Name.c_str(), Config.Name.c_str());
        std::abort();
      }
    }
  return R;
}

/// Runs \p Config on a fresh clone of every suite member. Functions are
/// independent, so when \p Pool is non-null and has more than one worker
/// they run concurrently; the reduction below is always in suite order
/// (see the determinism note in the file comment). Pass Pool = nullptr
/// for the strictly serial path.
inline SuiteTotals runOnSuite(const std::vector<Workload> &Suite,
                              const PipelineConfig &Config,
                              bool Check = false,
                              ThreadPool *Pool = &sharedPool()) {
  StatsSnapshot Before = StatsRegistry::instance().snapshot();
  std::vector<PipelineResult> Results(Suite.size());
  if (Pool && Pool->numThreads() > 1)
    Pool->parallelFor(Suite.size(), [&](size_t I) {
      Results[I] = runOnWorkload(Suite[I], Config, Check);
    });
  else
    for (size_t I = 0; I < Suite.size(); ++I)
      Results[I] = runOnWorkload(Suite[I], Config, Check);

  SuiteTotals Totals;
  for (const PipelineResult &R : Results) {
    Totals.Moves += R.NumMoves;
    Totals.WeightedMoves += R.WeightedMoves;
    Totals.MovesBeforeCoalesce += R.MovesBeforeCoalesce;
    Totals.Seconds += R.Seconds;
    Totals.CoalesceSeconds += R.CoalesceSeconds;
    Totals.PerPass.addAll(R.Timings);
  }
  Totals.Counters =
      StatsRegistry::delta(Before, StatsRegistry::instance().snapshot());
  auto Merges = Totals.Counters.find("coalesce.merges");
  if (Merges != Totals.Counters.end())
    Totals.CoalescerMerges = Merges->second;
  return Totals;
}

/// Collects every (suite, config) measurement a bench binary makes for
/// its printed tables, so the `--json` output is written from the exact
/// same numbers. Keyed by (suite name, config name): a second request
/// returns the cached record instead of re-running, which also halves
/// table startup time when two columns share a configuration.
class BenchReport {
public:
  const SuiteTotals &totals(const std::string &SuiteName,
                            const std::vector<Workload> &Suite,
                            const PipelineConfig &Config) {
    std::string Key = SuiteName + '\0' + Config.Name;
    auto It = Index.find(Key);
    if (It != Index.end())
      return Records[It->second].Totals;
    Records.push_back({SuiteName, Config.Name, runOnSuite(Suite, Config)});
    Index.emplace(std::move(Key), Records.size() - 1);
    return Records.back().Totals;
  }

  /// Renders all recorded measurements as one JSON document:
  ///
  ///   {"bench": <name>, "records": [
  ///     {"suite": ..., "config": ..., "moves": ..., "weighted_moves": ...,
  ///      "moves_before_coalesce": ..., "coalescer_merges": ...,
  ///      "seconds": ..., "coalesce_seconds": ...,
  ///      "per_pass_seconds": {...}, "counters": {...}}, ...]}
  ///
  /// All keys are always present; per_pass_seconds has one entry per
  /// pipeline phase that ran, in phase order; counters is sorted by name.
  /// With \p IncludeTimings false the wall-clock fields (seconds,
  /// coalesce_seconds, per_pass_seconds) are omitted, leaving only the
  /// deterministic measurements — two runs of the same binary must then
  /// produce byte-identical strings (ObservabilityTests relies on this).
  std::string jsonString(const std::string &BenchName,
                         bool IncludeTimings = true) const {
    JsonWriter W;
    W.beginObject();
    W.key("bench").value(BenchName);
    W.key("records").beginArray();
    for (const Record &R : Records) {
      W.beginObject();
      W.key("suite").value(R.Suite);
      W.key("config").value(R.Config);
      W.key("moves").value(R.Totals.Moves);
      W.key("weighted_moves").value(R.Totals.WeightedMoves);
      W.key("moves_before_coalesce").value(R.Totals.MovesBeforeCoalesce);
      W.key("coalescer_merges").value(R.Totals.CoalescerMerges);
      if (IncludeTimings) {
        W.key("seconds").value(R.Totals.Seconds);
        W.key("coalesce_seconds").value(R.Totals.CoalesceSeconds);
        W.key("per_pass_seconds").beginObject();
        for (const auto &[Phase, S] : R.Totals.PerPass.entries())
          W.key(Phase).value(S);
        W.endObject();
      }
      W.key("counters").beginObject();
      for (const auto &[Name, V] : R.Totals.Counters)
        W.key(Name).value(V);
      W.endObject();
      W.endObject();
    }
    W.endArray();
    W.endObject();
    return W.str();
  }

  /// Writes jsonString(BenchName) to \p Path.
  void writeJson(const std::string &Path, const std::string &BenchName) const {
    std::FILE *Out = std::fopen(Path.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "cannot write '%s'\n", Path.c_str());
      std::exit(1);
    }
    std::fprintf(Out, "%s\n", jsonString(BenchName).c_str());
    std::fclose(Out);
  }

private:
  struct Record {
    std::string Suite;
    std::string Config;
    SuiteTotals Totals;
  };
  std::vector<Record> Records;
  std::map<std::string, size_t> Index;
};

/// Extracts a leading `--json=<file>` from the argument list (so the
/// remaining arguments can go straight to benchmark::Initialize).
/// Returns the file path, or "" when the flag is absent.
inline std::string extractJsonPath(int &Argc, char **Argv) {
  std::string Path;
  int W = 1;
  for (int K = 1; K < Argc; ++K) {
    if (std::strncmp(Argv[K], "--json=", 7) == 0)
      Path = Argv[K] + 7;
    else
      Argv[W++] = Argv[K];
  }
  Argc = W;
  return Path;
}

/// One column of a paper-style table. Measure receives the suite's name
/// and members; implementations route through a BenchReport so the JSON
/// output matches the table exactly.
struct Column {
  std::string Header;
  std::function<uint64_t(const std::string &, const std::vector<Workload> &)>
      Measure;
};

/// Prints a table in the paper's format: the first column absolute, the
/// others as signed deltas against it.
inline void printDeltaTable(const std::string &Title,
                            const std::vector<Column> &Columns,
                            const char *Footnote = nullptr) {
  std::printf("\n%s\n", Title.c_str());
  std::printf("%-14s", "benchmark");
  for (const Column &C : Columns)
    std::printf("%16s", C.Header.c_str());
  std::printf("\n");
  for (const auto &[Name, Suite] : suites()) {
    std::printf("%-14s", Name.c_str());
    uint64_t Base = 0;
    for (size_t K = 0; K < Columns.size(); ++K) {
      uint64_t V = Columns[K].Measure(Name, Suite);
      if (K == 0) {
        Base = V;
        std::printf("%16llu", static_cast<unsigned long long>(V));
      } else {
        long long Delta = static_cast<long long>(V) -
                          static_cast<long long>(Base);
        std::printf("%+16lld", Delta);
      }
    }
    std::printf("\n");
  }
  if (Footnote)
    std::printf("%s\n", Footnote);
  std::fflush(stdout);
}

} // namespace bench
} // namespace lao

#endif // LAO_BENCH_BENCHUTIL_H

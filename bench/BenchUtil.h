//===- BenchUtil.h - Shared bench-table machinery ---------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the bench binaries: suite caching, the generated
/// scale sweep, running a pipeline configuration over a suite (serially
/// or on a thread pool), the BenchReport behind every `--json` file, and
/// the one-option argument parsing every binary uses.
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

#include "ir/Clone.h"
#include "outofssa/Pipeline.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "workloads/Generator.h"
#include "workloads/Suites.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
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

/// One point of the generated compile-time scaling sweep: \p Count
/// functions of \p NumStatements top-level statements each.
struct ScaleSpec {
  const char *Name;
  unsigned NumStatements;
  unsigned MaxNesting;
  unsigned Count;
};

constexpr ScaleSpec ScaleSweep[] = {
    {"scale_n40", 40, 2, 12},
    {"scale_n120", 120, 3, 8},
    {"scale_n320", 320, 3, 4},
    {"scale_n640", 640, 4, 2},
    {"scale_n1280", 1280, 4, 1},
};

/// Builds the suite for one sweep point: deterministic seeds, normalized
/// to the same optimized pruned SSA the named suites ship. No interpreter
/// inputs — the sweep exists to measure cost, not to check semantics
/// (the named suites and tests cover that).
inline std::vector<Workload> makeScaleSuite(const ScaleSpec &Spec) {
  std::vector<Workload> Suite;
  for (unsigned I = 0; I < Spec.Count; ++I) {
    GeneratorParams P;
    P.Seed = 0x5CA1E000 + 7919 * I + Spec.NumStatements;
    P.NumStatements = Spec.NumStatements;
    P.MaxNesting = Spec.MaxNesting;
    P.CallPercent = 20; // ABI pressure grows the coalescer workload.
    Workload W;
    W.Name = std::string(Spec.Name) + "_f" + std::to_string(I);
    W.F = generateProgram(P, W.Name);
    normalizeToOptimizedSSA(*W.F);
    Suite.push_back(std::move(W));
  }
  return Suite;
}

/// Writes \p Json and a newline to \p Path; exits 1 if it cannot.
inline void writeJsonFile(const std::string &Path, const std::string &Json) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot write '%s'\n", Path.c_str());
    std::exit(1);
  }
  std::fprintf(Out, "%s\n", Json.c_str());
  std::fclose(Out);
}

/// Parses a bench binary's command line, which takes one option,
/// `<Flag><value>` (e.g. `--json=<file>`). Returns the value, or "" when
/// the option is absent. Any other argument prints a usage line and
/// exits 2.
inline std::string parseBenchArgs(int Argc, char **Argv, const char *Flag,
                                  const char *Meta) {
  std::string Value;
  size_t Len = std::strlen(Flag);
  for (int K = 1; K < Argc; ++K) {
    if (std::strncmp(Argv[K], Flag, Len) != 0) {
      std::fprintf(stderr, "unknown argument '%s'\nusage: %s [%s%s]\n",
                   Argv[K], Argv[0], Flag, Meta);
      std::exit(2);
    }
    Value = Argv[K] + Len;
  }
  return Value;
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

/// Runs \p Config on a fresh clone of every suite member. Functions are
/// independent, so when \p Pool is non-null and has more than one worker
/// they run concurrently; the reduction below is always in suite order
/// (see the determinism note in the file comment). Pass Pool = nullptr
/// for the strictly serial path.
inline SuiteTotals runOnSuite(const std::vector<Workload> &Suite,
                              const PipelineConfig &Config,
                              ThreadPool *Pool = &sharedPool()) {
  StatsSnapshot Before = StatsRegistry::instance().snapshot();
  std::vector<PipelineResult> Results(Suite.size());
  auto RunOne = [&](size_t I) {
    auto F = cloneFunction(*Suite[I].F);
    Results[I] = runPipeline(*F, Config);
  };
  if (Pool && Pool->numThreads() > 1)
    Pool->parallelFor(Suite.size(), RunOne);
  else
    for (size_t I = 0; I < Suite.size(); ++I)
      RunOne(I);

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
    writeJsonFile(Path, jsonString(BenchName));
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

} // namespace bench
} // namespace lao

#endif // LAO_BENCH_BENCHUTIL_H

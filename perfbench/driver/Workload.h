//===- Workload.h - What every benchmark workload provides ------*- C++ -*-===//
//
// Part of the lao perfbench package.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver (Main.cpp) runs every workload the same way: set up
/// several times from the seed (timed), compute reference outputs with
/// the tree-walk interpreter (untimed), one untimed warm-up pass, then
/// timed passes for the requested seconds. A pass compiles every input
/// once and checks every output against its reference; a mismatch is
/// counted in Failed and reported on stderr.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "Trace.h"

#include "outofssa/Pipeline.h"
#include "support/Stats.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What one pass over a workload's inputs produced.
struct PassResult {
  double Seconds = 0;              ///< Wall time of the pass.
  std::vector<double> LatenciesMs; ///< Per function; per frame (service).
  uint64_t Functions = 0;          ///< Functions compiled and verified.
  uint64_t Attempted = 0;          ///< Operations tried (functions).
  uint64_t Failed = 0;             ///< Operations that failed or mismatched.
  /// Deterministic outputs: identical on every pass of one invocation.
  uint64_t Moves = 0;
  uint64_t WeightedMoves = 0;
  uint64_t SpillAccesses = 0;
  uint64_t DynInstrs = 0;
  /// Per-layer values a workload measures itself (server.*, ...).
  std::map<std::string, double> Layer;
  /// StatsRegistry movement over the pass.
  lao::StatsSnapshot Counters;
};

/// Per-layer values measured while setting up (generation and SSA
/// normalisation times).
using SetupLayers = std::map<std::string, double>;

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds the inputs from \p Seed, replacing any earlier set-up. Timed
  /// as setup_s.
  virtual void setup(uint64_t Seed, SetupLayers &Layers) = 0;

  /// Interprets every input once to get its reference outputs. Returns
  /// a description of each input whose reference run failed.
  virtual std::vector<std::string> computeReferences() = 0;

  /// The untimed pass before the timed ones.
  virtual PassResult warmup() { return pass(nullptr); }

  /// One pass over every input; spans go to \p T when non-null.
  virtual PassResult pass(Tracer *T) = 0;

  /// Traced runs only: spans recorded outside the timed pass, after it
  /// (the service replays its requests in-process here).
  virtual void replay(Tracer &T) { (void)T; }

  /// Cross-checks the latest pass against committed reference tables;
  /// one message per disagreement.
  virtual std::vector<std::string> consistencyErrors() { return {}; }
};

/// The workload named \p Name, or nullptr.
std::unique_ptr<Workload> makeWorkload(const std::string &Name);

/// runPipeline inside an "outofssa.pipeline" span (when \p T is set),
/// with one child span per phase laid end to end from the pipeline's
/// start, using the per-phase seconds of PipelineResult::Timings.
lao::PipelineResult pipelineSpan(lao::Function &F,
                                 const lao::PipelineConfig &Config, Tracer *T,
                                 uint64_t Id, int Parent, unsigned Lane = 0);

std::unique_ptr<Workload> makeLargeWorkload(bool Naive);
std::unique_ptr<Workload> makeRegAllocSuitesWorkload();
std::unique_ptr<Workload> makeServiceWorkload();

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H

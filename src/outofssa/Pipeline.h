//===- Pipeline.h - Out-of-SSA experiment pipelines -------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Composition of the out-of-SSA passes into the experiment
/// configurations of the paper's Table 1. Each configuration is a preset
/// naming which passes run:
///
///   name            Sreedhar CSSA  SP  ABI  phi  NaiveABI  Coalesce
///   "Lphi+C"           -      -    x    -    x      -         x
///   "C"                -      -    x    -    -      -         x
///   "Sphi+C"           x      x    x    -    -      -         x
///   "Lphi,ABI+C"       -      -    x    x    x      -         x
///   "Sphi+LABI+C"      x      x    x    x    -      -         x
///   "LABI+C"           -      -    x    x    -      -         x
///   "C,naiveABI+C"     -      -    x    -    -      x         x
///   "Lphi,ABI"         -      -    x    x    x      -         -
///   "Sphi"             x      x    x    -    -      x         -
///   "LABI"             -      -    x    x    -      -         -
///
/// ("C,naiveABI+C" is the Table 3 column named C in the paper: naive phi
/// replacement and naive ABI lowering, followed by aggressive coalescing.)
/// The out-of-pinned-SSA translation itself runs in every configuration,
/// exactly as in Table 1.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_OUTOFSSA_PIPELINE_H
#define LAO_OUTOFSSA_PIPELINE_H

#include "outofssa/Coalescer.h"
#include "outofssa/LeungGeorge.h"
#include "outofssa/PhiCoalescing.h"
#include "outofssa/Sreedhar.h"
#include "regalloc/RegAlloc.h"
#include "support/Timer.h"

#include <functional>
#include <optional>
#include <string>

namespace lao {

class AnalysisManager;

/// Which passes a pipeline run executes (see the table above).
struct PipelineConfig {
  std::string Name = "Lphi,ABI+C";
  bool Sreedhar = false;  ///< convertToCSSA + pinCSSAWebs
  bool PinSP = true;      ///< Always on in the paper's experiments.
  bool PinABI = false;
  bool PinPhi = false;    ///< The paper's pinning-based coalescing.
  bool NaiveABI = false;
  bool Coalesce = false;
  InterferenceMode Mode = InterferenceMode::Precise;
  PhiCoalescingOptions PhiOpts;
  /// Cooperative cancellation hook, polled between phases. When it
  /// returns true the pipeline stops immediately and the result comes
  /// back with Cancelled set; the function is left half-transformed and
  /// must be discarded. The compile server's deadline enforcement plugs
  /// in here — an empty function (the default) is never polled.
  std::function<bool()> CancelCheck;
  /// Optional register-allocation stage after coalescing: when set, the
  /// pipeline hands the final non-SSA code to
  /// allocateRegisters(F, *RegAlloc) and reports the outcome in
  /// PipelineResult::RegAlloc. Move metrics (NumMoves, WeightedMoves)
  /// are still measured *before* allocation — they are the paper's
  /// coalescing metrics, not allocator artifacts.
  std::optional<RegAllocOptions> RegAlloc;
};

/// Returns the preset for \p Name (see header table), or std::nullopt
/// for an unknown name. Use this from anything that parses user input.
std::optional<PipelineConfig> pipelinePresetOpt(const std::string &Name);

/// Returns the preset for \p Name (see header table). Unknown names are
/// a fatal error in every build type (message to stderr, then abort) —
/// callers pass compile-time constants; user-facing code wanting a
/// recoverable failure goes through pipelinePresetOpt.
PipelineConfig pipelinePreset(const std::string &Name);

/// Phase names runPipeline reports in PipelineResult::Timings, in
/// execution order (phases a configuration skips are absent).
///
///   split-critical-edges, constraints, sreedhar, pin-analysis,
///   phi-coalescing, translate, sequentialize, naive-abi, coalesce,
///   regalloc
///
/// Outcome of one pipeline run over one function. The passes' own work
/// counts (phi copies, repairs, merges, ...) are not part of it: they go
/// to the StatsRegistry, and a StatsScope around the call reads them for
/// this run alone (docs/OBSERVABILITY.md).
struct PipelineResult {
  bool Cancelled = false;       ///< CancelCheck fired; all else invalid.
  unsigned NumMoves = 0;        ///< Residual moves (Tables 2-4 metric).
  uint64_t WeightedMoves = 0;   ///< 5^depth-weighted (Table 5 metric).
  double Seconds = 0.0;         ///< Wall time of the whole pipeline.
  double CoalesceSeconds = 0.0; ///< Wall time of aggressive coalescing.
  TimerGroup Timings;           ///< Per-phase wall time (see above).
  unsigned MovesBeforeCoalesce = 0;
  /// Outcome of the optional register-allocation stage; engaged exactly
  /// when PipelineConfig::RegAlloc was set (check RegAlloc->Ok — an
  /// allocation failure is not a pipeline failure).
  std::optional<RegAllocResult> RegAlloc;
};

/// Runs the configured pipeline over \p F (mutating it from SSA to final
/// non-SSA code) and returns the measurements.
PipelineResult runPipeline(Function &F, const PipelineConfig &Config);

/// Same, but reusing the caller-owned \p AM instead of building a fresh
/// manager: the pipeline rebinds it to \p F (AnalysisManager::reset)
/// once the CFG-mutating front phases are done. This is the
/// compile-service entry point — one long-lived manager per worker,
/// reset per request, identical results to the one-shot overload.
PipelineResult runPipeline(Function &F, const PipelineConfig &Config,
                           AnalysisManager &AM);

} // namespace lao

#endif // LAO_OUTOFSSA_PIPELINE_H

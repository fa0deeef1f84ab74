//===- Pipeline.cpp - Out-of-SSA experiment pipelines --------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "outofssa/Pipeline.h"

#include "analysis/AnalysisManager.h"
#include "analysis/LoopInfo.h"
#include "ir/CFG.h"
#include "outofssa/Constraints.h"
#include "outofssa/MoveStats.h"
#include "outofssa/NaiveABI.h"
#include "support/Stats.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>

using namespace lao;

std::optional<PipelineConfig> lao::pipelinePresetOpt(const std::string &Name) {
  PipelineConfig C;
  C.Name = Name;
  if (Name == "Lphi+C") {
    C.PinPhi = C.Coalesce = true;
  } else if (Name == "C") {
    C.Coalesce = true;
  } else if (Name == "Sphi+C") {
    C.Sreedhar = C.Coalesce = true;
  } else if (Name == "Lphi,ABI+C") {
    C.PinABI = C.PinPhi = C.Coalesce = true;
  } else if (Name == "Sphi+LABI+C") {
    C.Sreedhar = C.PinABI = C.Coalesce = true;
  } else if (Name == "LABI+C") {
    C.PinABI = C.Coalesce = true;
  } else if (Name == "C,naiveABI+C") {
    C.NaiveABI = C.Coalesce = true;
  } else if (Name == "Lphi,ABI") {
    C.PinABI = C.PinPhi = true;
  } else if (Name == "Sphi") {
    C.Sreedhar = C.NaiveABI = true;
  } else if (Name == "LABI") {
    C.PinABI = true;
  } else {
    return std::nullopt;
  }
  return C;
}

PipelineConfig lao::pipelinePreset(const std::string &Name) {
  if (std::optional<PipelineConfig> C = pipelinePresetOpt(Name))
    return *C;
  // Unconditionally fatal: an assert here compiles out of NDEBUG builds
  // and a silently-default config corrupts every downstream measurement.
  std::fprintf(stderr,
               "lao: fatal: unknown pipeline preset '%s' "
               "(see outofssa/Pipeline.h for the Table 1 names)\n",
               Name.c_str());
  std::abort();
}

PipelineResult lao::runPipeline(Function &F, const PipelineConfig &Config) {
  AnalysisManager AM(F);
  return runPipeline(F, Config, AM);
}

PipelineResult lao::runPipeline(Function &F, const PipelineConfig &Config,
                                AnalysisManager &AM) {
  using Clock = std::chrono::steady_clock;
  PipelineResult R;
  auto Start = Clock::now();
  ++LAO_STAT(pipeline, runs);
  auto CancelledAt = [&](const char *Phase) {
    if (!Config.CancelCheck || !Config.CancelCheck())
      return false;
    ++LAO_STAT(pipeline, cancellations);
    (void)Phase;
    R.Cancelled = true;
    R.Seconds = std::chrono::duration<double>(Clock::now() - Start).count();
    return true;
  };
  if (CancelledAt("start"))
    return R;

  {
    ScopedTimer T(R.Timings, "split-critical-edges");
    splitCriticalEdges(F);
  }

  if (Config.PinSP || Config.PinABI) {
    ScopedTimer T(R.Timings, "constraints");
    if (Config.PinSP)
      collectSPConstraints(F);
    if (Config.PinABI)
      collectABIConstraints(F);
  }
  if (Config.Sreedhar) {
    ScopedTimer T(R.Timings, "sreedhar");
    convertToCSSA(F);
    pinCSSAWebs(F);
  }
  if (CancelledAt("front-phases"))
    return R;

  // One analysis manager for the rest of the pipeline: the passes above
  // add blocks and edges, everything below only rewrites instructions
  // inside existing blocks, so CFG / dominators / loop info are computed
  // once and every pass declares what else it preserved. The manager may
  // be a worker-owned one carrying caches from a previous request's
  // function — reset rebinds it to F and drops them all.
  AM.reset(F);

  {
    std::optional<ScopedTimer> Analysis(std::in_place, R.Timings,
                                        "pin-analysis");
    PinningContext Ctx(F, AM.cfg(), AM.domTree(), AM.livenessQuery(),
                       Config.Mode);
    // Ctx (and its class-interference verdict cache) holds references
    // into AM's CFG / dominators / liveness: they must stay cached for
    // Ctx's whole lifetime. The epoch pins that contract.
    uint64_t CtxEpoch = AM.epoch();
    Analysis.reset();
    if (Config.PinPhi) {
      ScopedTimer T(R.Timings, "phi-coalescing");
      coalescePhis(F, Ctx, AM.cfg(), AM.loopInfo(), Config.PhiOpts);
      // Phi-coalescing only merges pinning classes; nothing is stale.
      AM.invalidate(PreservedAnalyses::all());
      assert(AM.epoch() == CtxEpoch &&
             "phi-coalescing must preserve the analyses PinningContext and "
             "its interference cache were built from");
    }
    (void)CtxEpoch;
    {
      ScopedTimer T(R.Timings, "translate");
      translateOutOfSSA(F, Ctx, AM.cfg());
    }
  }
  // Translation replaced the instruction lists (blocks and branch targets
  // are untouched): anything instruction-derived is stale.
  AM.invalidate(PreservedAnalyses::cfgOnly());
  if (CancelledAt("translate"))
    return R;
  {
    ScopedTimer T(R.Timings, "sequentialize");
    sequentializeParallelCopies(F);
    AM.invalidate(PreservedAnalyses::cfgOnly());
  }

  if (Config.NaiveABI) {
    ScopedTimer T(R.Timings, "naive-abi");
    lowerABINaively(F);
    sequentializeParallelCopies(F);
    AM.invalidate(PreservedAnalyses::cfgOnly());
  }

  R.MovesBeforeCoalesce = countMoves(F);
  if (CancelledAt("sequentialize"))
    return R;

  if (Config.Coalesce) {
    ScopedTimer T(R.Timings, "coalesce");
    unsigned Merges = coalesceAggressively(F, {}, &AM);
    // The zero-rebuild coalescer maintains AM's dense liveness exactly
    // through every merge round (and, when it merged, leaves its repaired
    // interference graph cached and exact) — weightedMoveCount below and
    // any later consumer keep riding the same cache.
    assert(AM.isCached(AnalysisKind::Liveness) &&
           "coalesceAggressively must preserve the managed liveness");
    assert((Merges == 0 || AM.isCached(AnalysisKind::Interference)) &&
           "coalesceAggressively must leave its repaired graph cached");
    (void)Merges;
  }
  R.CoalesceSeconds = R.Timings.seconds("coalesce");

  R.NumMoves = countMoves(F);
  R.WeightedMoves = weightedMoveCount(F, AM);

  if (Config.RegAlloc) {
    if (CancelledAt("coalesce"))
      return R;
    ScopedTimer T(R.Timings, "regalloc");
    R.RegAlloc = allocateRegisters(F, *Config.RegAlloc);
    // Spill code rewrote instruction lists in place; blocks/edges are
    // untouched.
    AM.invalidate(PreservedAnalyses::cfgOnly());
  }

  R.Seconds = std::chrono::duration<double>(Clock::now() - Start).count();
  return R;
}

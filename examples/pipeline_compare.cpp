//===- pipeline_compare.cpp - Suite-level configuration comparison --------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Runs every Table 1 configuration over a chosen suite and prints totals
// with per-phase statistics — the programmatic version of skimming the
// paper's results section. Usage: pipeline_compare [suite-name]
// (default VALcc1; see `allSuites()` for names).
//
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"
#include "ir/Clone.h"
#include "outofssa/Pipeline.h"
#include "support/Stats.h"
#include "workloads/Suites.h"

#include <cstdio>
#include <cstring>

using namespace lao;

int main(int argc, char **argv) {
  const char *SuiteName = argc > 1 ? argv[1] : "VALcc1";
  std::vector<Workload> Suite;
  for (const SuiteSpec &Spec : allSuites())
    if (std::strcmp(Spec.Name, SuiteName) == 0)
      Suite = Spec.Make();
  if (Suite.empty()) {
    std::fprintf(stderr, "unknown suite '%s'; try:", SuiteName);
    for (const SuiteSpec &Spec : allSuites())
      std::fprintf(stderr, " %s", Spec.Name);
    std::fprintf(stderr, "\n");
    return 1;
  }

  std::printf("suite %s: %zu functions\n\n", SuiteName, Suite.size());
  std::printf("%-14s %8s %9s %8s %8s %8s %8s %9s\n", "config", "moves",
              "weighted", "phi-cp", "pin-cp", "repairs", "elided",
              "coal.rm");

  static const char *const Presets[] = {
      "Lphi,ABI+C", "Sphi+LABI+C", "LABI+C", "C,naiveABI+C",
      "Lphi+C",     "Sphi+C",      "C",      "Lphi,ABI",
      "LABI",       "Sphi"};

  for (const char *Preset : Presets) {
    uint64_t Moves = 0, Weighted = 0;
    unsigned Miscompiles = 0;
    // Per-phase totals: the counters the suite's pipeline runs bump.
    StatsScope Scope;
    for (const Workload &W : Suite) {
      auto F = cloneFunction(*W.F);
      PipelineResult R = runPipeline(*F, pipelinePreset(Preset));
      Moves += R.NumMoves;
      Weighted += R.WeightedMoves;
      for (const auto &Args : W.Inputs)
        if (!interpret(*W.F, Args).sameObservable(interpret(*F, Args)))
          ++Miscompiles;
    }
    StatsSnapshot Counts = Scope.snapshot();
    std::printf("%-14s %8llu %9llu %8llu %8llu %8llu %8llu %9llu",
                Preset, (unsigned long long)Moves,
                (unsigned long long)Weighted,
                (unsigned long long)Counts["translate.phi_copies"],
                (unsigned long long)Counts["translate.pin_copies"],
                (unsigned long long)Counts["translate.repairs"],
                (unsigned long long)Counts["translate.elided_copies"],
                (unsigned long long)Counts["coalesce.moves_removed"]);
    if (Miscompiles)
      std::printf("  [%u MISCOMPILED input sets]", Miscompiles);
    std::printf("\n");
  }
  std::printf("\n(Sreedhar-based configurations are 'optimistic "
              "approximations', as in the paper; a MISCOMPILED marker "
              "reproduces its dedicated-register caveat.)\n");
  return 0;
}

//===- bench_regpressure.cpp - The paper's [LIM4] made measurable ---------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// The paper's [LIM4]: "in the case of strong register pressure, the
// problem becomes different: coalescing (or splitting) variables has a
// strong impact on the colorability of the interference graph during
// the register allocator phase" — listed as out of scope there. This
// bench runs every allocator strategy x spill model combination after
// each out-of-SSA configuration at several register-file sizes and
// reports spills plus the static count of spill accesses, answering:
// does the pinning-based coalescing pay for its move savings with
// spills — and does the answer depend on the allocator asking?
//
// Record key shape (BENCH_regpressure.json): (suite, config, num_regs,
// allocator, spill_mode) — scripts/check_bench_regression.py gates the
// chaitin-briggs/spill-everywhere records bit-identically.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "regalloc/RegAlloc.h"

using namespace lao;
using namespace lao::bench;

namespace {

struct PressureTotals {
  uint64_t Spills = 0;
  uint64_t SpillAccesses = 0; // loads + stores inserted
  unsigned Failures = 0;      // functions the allocator gave up on
};

PressureTotals allocateSuite(const std::vector<Workload> &Suite,
                             const char *Preset, RegAllocOptions Opts) {
  // Same deterministic shape as runOnSuite: allocate each function
  // independently (in parallel when the machine allows), reduce in suite
  // order.
  std::vector<RegAllocResult> Results(Suite.size());
  auto AllocOne = [&](size_t I) {
    auto F = cloneFunction(*Suite[I].F);
    runPipeline(*F, pipelinePreset(Preset));
    Results[I] = allocateRegisters(*F, Opts);
  };
  if (sharedPool().numThreads() > 1)
    sharedPool().parallelFor(Suite.size(), AllocOne);
  else
    for (size_t I = 0; I < Suite.size(); ++I)
      AllocOne(I);

  PressureTotals T;
  for (const RegAllocResult &R : Results) {
    if (!R.Ok) {
      ++T.Failures;
      continue;
    }
    T.Spills += R.NumSpilled;
    T.SpillAccesses += R.NumSpillLoads + R.NumSpillStores;
  }
  return T;
}

/// The strategy-tier matrix measured below. chaitin-briggs +
/// spill-everywhere comes first: its records are the historically
/// committed baseline and must stay bit-identical.
const RegAllocOptions Combos[] = {
    {AllocatorKind::ChaitinBriggs, SpillModelKind::SpillEverywhere},
    {AllocatorKind::ChaitinBriggs, SpillModelKind::LoadStoreOpt},
    {AllocatorKind::Chordal, SpillModelKind::SpillEverywhere},
    {AllocatorKind::Chordal, SpillModelKind::LoadStoreOpt},
};

/// JSON records for --json: one per (combo, num_regs, suite, config)
/// cell of the printed tables, same numbers (recorded while printing).
struct PressureRecord {
  std::string Suite;
  std::string Config;
  unsigned NumRegs;
  std::string Allocator;
  std::string SpillMode;
  PressureTotals Totals;
};
std::vector<PressureRecord> Records;

void printPressureTables() {
  for (const RegAllocOptions &Combo : Combos) {
    for (unsigned NumRegs : {6u, 8u, 12u}) {
      std::printf("\nRegister pressure [%s/%s]: spills (spill "
                  "loads+stores) with %u registers\n",
                  allocatorName(Combo.Allocator),
                  spillModelName(Combo.SpillMode), NumRegs);
      std::printf("%-14s %22s %22s %22s\n", "benchmark", "Lphi,ABI+C",
                  "LABI+C", "C,naiveABI+C");
      for (const auto &[Name, Suite] : suites()) {
        std::printf("%-14s", Name.c_str());
        for (const char *Preset : {"Lphi,ABI+C", "LABI+C", "C,naiveABI+C"}) {
          RegAllocOptions Opts = Combo;
          Opts.NumRegs = NumRegs;
          PressureTotals T = allocateSuite(Suite, Preset, Opts);
          Records.push_back({Name, Preset, NumRegs,
                             allocatorName(Combo.Allocator),
                             spillModelName(Combo.SpillMode), T});
          std::string Cell =
              std::to_string(T.Spills) + " (" +
              std::to_string(T.SpillAccesses) + ")";
          if (T.Failures)
            Cell += " !" + std::to_string(T.Failures);
          std::printf("%22s", Cell.c_str());
        }
        std::printf("\n");
      }
    }
  }
  std::fflush(stdout);
}

void writePressureJson(const std::string &Path) {
  JsonWriter W;
  W.beginObject();
  W.key("bench").value("regpressure");
  W.key("records").beginArray();
  for (const PressureRecord &R : Records) {
    W.beginObject();
    W.key("suite").value(R.Suite);
    W.key("config").value(R.Config);
    W.key("num_regs").value(R.NumRegs);
    W.key("allocator").value(R.Allocator);
    W.key("spill_mode").value(R.SpillMode);
    W.key("spills").value(R.Totals.Spills);
    W.key("spill_accesses").value(R.Totals.SpillAccesses);
    W.key("failures").value(R.Totals.Failures);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  writeJsonFile(Path, W.str());
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = parseBenchArgs(argc, argv, "--json=", "<file>");
  printPressureTables();
  if (!JsonPath.empty())
    writePressureJson(JsonPath);
  return 0;
}

//===- bench_tables.cpp - Paper Tables 2-5 and the ablations ----------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Regenerates the paper's move-count tables, plus the design-choice
// ablations, over every workload suite. Each table is data: a list of
// columns, each a pipeline configuration and the metric it reports. The
// first column prints absolute, the others as signed deltas against it,
// as in the paper.
//
//  * Table 2, no ABI constraint (the SP pin is always applied, as in
//    the paper): Lphi+C, C, Sphi+C. Expected: Lphi+C <= C everywhere,
//    Sphi+C close.
//  * Table 3, renaming constraints: Lphi,ABI+C, Sphi+LABI+C, LABI+C,
//    and the fully naive C (phis replaced without pins, the ABI lowered
//    locally, then the aggressive coalescer). Expected: Lphi,ABI+C best
//    everywhere, the naive column dramatically worse.
//  * Table 4, the moves a later repeated coalescer would have to chew
//    through under naive lowering ([CC3]: its cost is proportional to
//    these counts): Lphi,ABI, Sphi (extra ABI moves), LABI (extra phi
//    moves), no cleanup coalescer.
//  * Table 5, 5^depth-weighted moves of the algorithm's variants:
//    base, depth (Algorithm 3), opt / pess (Algorithm 4). Expected:
//    depth about neutral, opt slightly worse, pess dramatically worse.
//  * Ablation, residual moves after the full pipeline with cleanup:
//    the pruning heuristic, the physical-class merging threshold
//    (Figure 8 partial coalescing) and the [LIM2] use-pin pre-pass.
//
//   bench_tables [--json-dir=<dir>]
//
// writes <dir>/BENCH_<table>.json for table2..5 and ablation, each from
// its own BenchReport.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <algorithm>

using namespace lao;
using namespace lao::bench;

namespace {

enum class Metric { Moves, WeightedMoves };

struct Column {
  std::string Header;
  PipelineConfig Config;
  Metric Measure = Metric::Moves;
};

struct Table {
  const char *Bench; ///< JSON "bench" name; file BENCH_<Bench>.json.
  const char *Title;
  std::vector<Column> Columns;
  const char *Footnote = nullptr;
};

/// \p Preset renamed to \p Name, for columns that differ from a preset in
/// options only: the BenchReport cache and the JSON records key on the
/// name.
PipelineConfig variant(const char *Preset, const char *Name) {
  PipelineConfig C = pipelinePreset(Preset);
  C.Name = Name;
  return C;
}

std::vector<Table> tables() {
  auto P = pipelinePreset;
  std::vector<Table> Tables;
  Tables.push_back(
      {"table2",
       "Table 2: move instruction count with no ABI constraint",
       {{"Lphi+C", P("Lphi+C")}, {"C", P("C")}, {"Sphi+C", P("Sphi+C")}},
       "(Sphi+C is an optimistic approximation, as in the paper: the\n"
       " Sreedhar conversion is not dedicated-register safe.)"});
  Tables.push_back({"table3",
                    "Table 3: move instruction count with renaming "
                    "constraints",
                    {{"Lphi,ABI+C", P("Lphi,ABI+C")},
                     {"Sphi+LABI+C", P("Sphi+LABI+C")},
                     {"LABI+C", P("LABI+C")},
                     {"C", P("C,naiveABI+C")}}});
  Tables.push_back(
      {"table4",
       "Table 4: moves left for a post coalescer under naive lowering",
       {{"Lphi,ABI", P("Lphi,ABI")},
        {"Sphi(ABI mov)", P("Sphi")},
        {"LABI(phi mov)", P("LABI")}},
       "(columns 2 and 3 are deltas: the extra ABI moves left by Sphi and\n"
       " the extra phi moves left by LABI, as in the paper's Table 4)"});

  PipelineConfig Depth = variant("Lphi,ABI", "Lphi,ABI(depth)");
  Depth.PhiOpts.DepthConstrained = true;
  PipelineConfig Opt = variant("Lphi,ABI", "Lphi,ABI(opt)");
  Opt.Mode = InterferenceMode::Optimistic;
  PipelineConfig Pess = variant("Lphi,ABI", "Lphi,ABI(pess)");
  Pess.Mode = InterferenceMode::Pessimistic;
  Tables.push_back(
      {"table5",
       "Table 5: 5^depth-weighted move count, variants of the algorithm",
       {{"base", variant("Lphi,ABI", "Lphi,ABI(base)"), Metric::WeightedMoves},
        {"depth", Depth, Metric::WeightedMoves},
        {"opt", Opt, Metric::WeightedMoves},
        {"pess", Pess, Metric::WeightedMoves}}});

  PipelineConfig FirstFound = variant("Lphi,ABI+C", "prune-firstfound");
  FirstFound.PhiOpts.Heuristic = PruneHeuristic::FirstFound;
  PipelineConfig MergeAlways = variant("Lphi,ABI+C", "phys-merge-always");
  MergeAlways.PhiOpts.PhysMergeMinMult = 1;
  PipelineConfig MergeNever = variant("Lphi,ABI+C", "phys-merge-never");
  MergeNever.PhiOpts.PhysMergeMinMult = ~0u;
  PipelineConfig UsePin = variant("Lphi,ABI+C", "lim2-usepin-prepass");
  UsePin.PhiOpts.UsePinAffinity = true;
  std::vector<Column> Ablations = {
      {"", variant("Lphi,ABI+C", "paper-default")},
      {"", FirstFound},
      {"", MergeAlways},
      {"", MergeNever},
      {"", UsePin}};
  for (Column &C : Ablations)
    C.Header = C.Config.Name;
  Tables.push_back({"ablation",
                    "Ablation: residual moves after full pipeline (+C)",
                    std::move(Ablations)});
  return Tables;
}

/// Prints \p T in the paper's format, measuring each cell through
/// \p Report so the JSON output holds exactly the printed numbers.
/// Columns are at least 16 wide and one wider than the longest header.
void printDeltaTable(const Table &T, BenchReport &Report) {
  size_t Width = 16;
  for (const Column &C : T.Columns)
    Width = std::max(Width, C.Header.size() + 1);
  int W = static_cast<int>(Width);

  std::printf("\n%s\n", T.Title);
  std::printf("%-14s", "benchmark");
  for (const Column &C : T.Columns)
    std::printf("%*s", W, C.Header.c_str());
  std::printf("\n");
  for (const auto &[Name, Suite] : suites()) {
    std::printf("%-14s", Name.c_str());
    long long Base = 0;
    for (size_t K = 0; K < T.Columns.size(); ++K) {
      const Column &C = T.Columns[K];
      const SuiteTotals &Totals = Report.totals(Name, Suite, C.Config);
      long long V = static_cast<long long>(
          C.Measure == Metric::Moves ? Totals.Moves : Totals.WeightedMoves);
      if (K == 0) {
        Base = V;
        std::printf("%*lld", W, V);
      } else {
        std::printf("%+*lld", W, V - Base);
      }
    }
    std::printf("\n");
  }
  if (T.Footnote)
    std::printf("%s\n", T.Footnote);
  std::fflush(stdout);
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonDir = parseBenchArgs(argc, argv, "--json-dir=", "<dir>");
  for (const Table &T : tables()) {
    BenchReport Report;
    printDeltaTable(T, Report);
    if (!JsonDir.empty())
      Report.writeJson(JsonDir + "/BENCH_" + T.Bench + ".json", T.Bench);
  }
  return 0;
}

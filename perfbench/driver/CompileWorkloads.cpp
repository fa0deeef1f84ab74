//===- CompileWorkloads.cpp - large_pinned, large_naive, regalloc_suites ---===//
//
// Part of the lao perfbench package.
//
//===----------------------------------------------------------------------===//
//
// The three single-thread compile workloads. Each pass clones every
// input, compiles it, runs the final code in the bytecode VM on the
// input's argument vectors and compares the observable trace with the
// tree-walk interpreter's run of the input.
//
//  * large_pinned / large_naive: the scale_n640 (two functions) and
//    scale_n1280 (one) points of bench_compiletime's sweep, normalised
//    to optimised SSA in set-up, compiled under Lphi,ABI+C or
//    C,naiveABI+C with no register allocation. The seed draws the
//    argument vectors and the compile order. Per-point moves are
//    cross-checked against the committed BENCH_compiletime.json.
//  * regalloc_suites: the 146 paper-suite functions through Lphi,ABI+C,
//    then allocateRegisters at 8 registers under chordal/load-store-opt
//    and chaitin-briggs/spill-everywhere, then each allocated function
//    in the VM on the suite's recorded inputs. Per-suite moves and
//    spill accesses are cross-checked against the committed
//    BENCH_table3.json and BENCH_regpressure.json.
//
//===----------------------------------------------------------------------===//

#include "MiniJson.h"
#include "Workload.h"

#include "exec/Bytecode.h"
#include "exec/Interpreter.h"
#include "exec/VM.h"
#include "ir/Clone.h"
#include "outofssa/Pipeline.h"
#include "regalloc/RegAlloc.h"
#include "support/Rng.h"
#include "workloads/Generator.h"
#include "workloads/Suites.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace lao;

namespace perfbench {
namespace {

/// One function to compile, with its reference outputs.
struct Item {
  std::string Suite; ///< Paper suite or sweep point.
  std::string Name;
  std::unique_ptr<Function> F; ///< Optimised SSA input.
  std::vector<std::vector<uint64_t>> Inputs;
  std::vector<ExecResult> Refs;
};

std::vector<std::string> interpretAll(std::vector<Item> &Items) {
  std::vector<std::string> Problems;
  for (Item &It : Items) {
    It.Refs.clear();
    for (const std::vector<uint64_t> &Args : It.Inputs) {
      It.Refs.push_back(interpret(*It.F, Args));
      if (!It.Refs.back().ok())
        Problems.push_back(It.Name + ": reference run failed: " +
                           It.Refs.back().Error);
    }
  }
  return Problems;
}

/// Compiles \p F to bytecode, runs it on every input of \p It and
/// compares with the references. Returns false (after reporting) on
/// any mismatch.
bool execAndCheck(const Function &F, const Item &It, const std::string &What,
                  PassResult &R, Tracer *T, uint64_t Id, int Parent) {
  BytecodeFunction BF;
  {
    SpanScope S(T, "exec.compile", "exec", Id, Parent);
    BF = compileToBytecode(F);
  }
  bool Ok = true;
  for (size_t K = 0; K < It.Inputs.size(); ++K) {
    ExecResult ER;
    {
      SpanScope S(T, "exec.vm", "exec", Id, Parent);
      ER = runBytecode(BF, It.Inputs[K]);
    }
    R.DynInstrs += ER.Steps;
    if (!It.Refs[K].sameObservable(ER)) {
      std::fprintf(stderr,
                   "MISMATCH: %s after %s, input %zu: %s (reference %s)\n",
                   It.Name.c_str(), What.c_str(), K,
                   ER.ok() ? "different outputs" : ER.Error.c_str(),
                   It.Refs[K].ok() ? "ok" : It.Refs[K].Error.c_str());
      Ok = false;
    }
  }
  return Ok;
}

std::unique_ptr<Function> cloneSpan(const Function &F, Tracer *T, uint64_t Id,
                                    int Parent) {
  SpanScope S(T, "ir.clone", "ir", Id, Parent);
  return cloneFunction(F);
}

void freeSpan(std::unique_ptr<Function> &F, Tracer *T, uint64_t Id,
              int Parent) {
  SpanScope S(T, "ir.free", "ir", Id, Parent);
  F.reset();
}

/// Shared pass skeleton: times the pass, one root span and one latency
/// sample per item, registry delta around the whole pass.
template <typename Fn>
PassResult runItems(const std::vector<Item> &Items, Tracer *T, Fn &&Compile) {
  PassResult R;
  lao::StatsSnapshot Before = StatsRegistry::instance().snapshot();
  double Start = nowSeconds();
  for (size_t K = 0; K < Items.size(); ++K) {
    uint64_t Id = K + 1;
    double S0 = nowSeconds();
    int Root = T ? T->begin("function", "bench", Id, -1) : -1;
    bool Ok = Compile(Items[K], Id, Root, R);
    if (T)
      T->end(Root);
    R.LatenciesMs.push_back((nowSeconds() - S0) * 1e3);
    ++R.Attempted;
    if (Ok)
      ++R.Functions;
    else
      ++R.Failed;
  }
  R.Seconds = nowSeconds() - Start;
  R.Counters = StatsRegistry::delta(Before, StatsRegistry::instance().snapshot());
  return R;
}

/// Reads a committed BENCH_*.json table's records; empty on failure.
std::vector<JsonValue> readRecords(const std::string &Path,
                                   std::vector<std::string> &Errors) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  std::optional<JsonValue> Doc = parseJson(SS.str());
  const JsonValue *Records = Doc ? Doc->get("records") : nullptr;
  if (!In || !Records) {
    Errors.push_back("cannot read the records of " + Path);
    return {};
  }
  return Records->Items;
}

/// Seeded in-place Fisher-Yates shuffle.
template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t K = V.size(); K > 1; --K)
    std::swap(V[K - 1], V[R.below(K)]);
}

//===----------------------------------------------------------------------===//
// large_pinned / large_naive
//===----------------------------------------------------------------------===//

class LargeWorkload : public Workload {
public:
  explicit LargeWorkload(bool Naive)
      : Config(pipelinePreset(Naive ? "C,naiveABI+C" : "Lphi,ABI+C")) {}

  void setup(uint64_t Seed, SetupLayers &Layers) override {
    Items.clear();
    Rng R(Seed * 0x9E3779B97F4A7C15ULL + 0x1A46E);
    for (const SweepPoint &Point : Points)
      for (unsigned K = 0; K < Point.Count; ++K) {
        // bench_compiletime's generator settings and seeds.
        GeneratorParams P;
        P.Seed = 0x5CA1E000 + 7919 * K + Point.NumStatements;
        P.NumStatements = Point.NumStatements;
        P.MaxNesting = 4;
        P.CallPercent = 20;
        Item It;
        It.Suite = Point.Name;
        It.Name = std::string(Point.Name) + "_f" + std::to_string(K);
        double T0 = nowSeconds();
        It.F = generateProgram(P, It.Name);
        double T1 = nowSeconds();
        normalizeToOptimizedSSA(*It.F);
        double T2 = nowSeconds();
        Layers["workloads.generate_s"] += T1 - T0;
        Layers["ssa.normalize_s"] += T2 - T1;
        for (unsigned V = 0; V < NumInputs; ++V) {
          std::vector<uint64_t> Args;
          for (unsigned A = 0; A < It.F->numParams(); ++A)
            Args.push_back(R.below(1000));
          It.Inputs.push_back(std::move(Args));
        }
        Items.push_back(std::move(It));
      }
    shuffle(Items, R);
  }

  std::vector<std::string> computeReferences() override {
    return interpretAll(Items);
  }

  PassResult pass(Tracer *T) override {
    PointMoves.clear();
    return runItems(Items, T, [&](const Item &It, uint64_t Id, int Root,
                                  PassResult &R) {
      std::unique_ptr<Function> G = cloneSpan(*It.F, T, Id, Root);
      PipelineResult PR = pipelineSpan(*G, Config, T, Id, Root);
      R.Moves += PR.NumMoves;
      R.WeightedMoves += PR.WeightedMoves;
      PointMoves[It.Suite].first += PR.NumMoves;
      PointMoves[It.Suite].second += PR.WeightedMoves;
      bool Ok = !PR.Cancelled && execAndCheck(*G, It, Config.Name, R, T, Id,
                                              Root);
      freeSpan(G, T, Id, Root);
      return Ok;
    });
  }

  /// Moves and weighted moves per sweep point must equal the committed
  /// BENCH_compiletime.json records of the same preset.
  std::vector<std::string> consistencyErrors() override {
    std::vector<std::string> Errors;
    std::set<std::string> Checked;
    for (const JsonValue &Rec :
         readRecords("BENCH_compiletime.json", Errors)) {
      const JsonValue *Suite = Rec.get("suite"), *Cfg = Rec.get("config"),
                      *Moves = Rec.get("moves"),
                      *Weighted = Rec.get("weighted_moves");
      if (!Suite || !Cfg || !Moves || !Weighted ||
          Cfg->Text != Config.Name || !PointMoves.count(Suite->Text))
        continue;
      auto [M, WM] = PointMoves[Suite->Text];
      if (M != Moves->asU64() || WM != Weighted->asU64())
        Errors.push_back(Suite->Text + " under " + Config.Name + ": " +
                         std::to_string(M) + " moves / " +
                         std::to_string(WM) +
                         " weighted, BENCH_compiletime.json says " +
                         Moves->Text + " / " + Weighted->Text);
      Checked.insert(Suite->Text);
    }
    for (const SweepPoint &Point : Points)
      if (!Checked.count(Point.Name))
        Errors.push_back(std::string("no committed record for ") +
                         Point.Name + " under " + Config.Name);
    return Errors;
  }

private:
  struct SweepPoint {
    const char *Name;
    unsigned NumStatements;
    unsigned Count;
  };
  /// Two points of bench_compiletime's scaling sweep.
  static constexpr SweepPoint Points[] = {{"scale_n640", 640, 2},
                                          {"scale_n1280", 1280, 1}};
  static constexpr unsigned NumInputs = 3;
  PipelineConfig Config;
  std::vector<Item> Items;
  /// (moves, weighted moves) per sweep point, latest pass.
  std::map<std::string, std::pair<uint64_t, uint64_t>> PointMoves;
};

//===----------------------------------------------------------------------===//
// regalloc_suites
//===----------------------------------------------------------------------===//

class RegAllocSuitesWorkload : public Workload {
public:
  void setup(uint64_t Seed, SetupLayers &Layers) override {
    Items.clear();
    for (const SuiteSpec &Spec : allSuites()) {
      double T0 = nowSeconds();
      std::vector<lao::Workload> Suite = Spec.Make();
      Layers["workloads.generate_s"] += nowSeconds() - T0;
      for (lao::Workload &W : Suite)
        Items.push_back(
            {Spec.Name, W.Name, std::move(W.F), std::move(W.Inputs), {}});
    }
    // The suites are fixed; the seed decides the order they run in.
    Rng R(Seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
    shuffle(Items, R);
  }

  std::vector<std::string> computeReferences() override {
    return interpretAll(Items);
  }

  /// Warm-up: the full per-function path over the three small suites
  /// only. A full pass costs ~20 s, almost all of it in LAI_Large and
  /// SPECint-like allocation; the small suites reach every code path.
  PassResult warmup() override {
    std::vector<Item> Small;
    for (const Item &It : Items)
      if (It.Suite != "LAI_Large" && It.Suite != "SPECint-like")
        Small.push_back({It.Suite, It.Name, cloneFunction(*It.F), It.Inputs,
                         It.Refs});
    return run(Small, nullptr);
  }

  PassResult pass(Tracer *T) override { return run(Items, T); }

  std::vector<std::string> consistencyErrors() override {
    std::vector<std::string> Errors;
    std::set<std::string> Checked; ///< "suite/moves", "suite/alloc/mode".
    for (const JsonValue &Rec : readRecords("BENCH_table3.json", Errors)) {
      const JsonValue *Suite = Rec.get("suite"), *Config = Rec.get("config");
      if (!Suite || !Config || Config->Text != "Lphi,ABI+C")
        continue;
      uint64_t Want = Rec.get("moves") ? Rec.get("moves")->asU64() : 0;
      if (SuiteMoves[Suite->Text] != Want)
        Errors.push_back("moves of " + Suite->Text + ": " +
                         std::to_string(SuiteMoves[Suite->Text]) +
                         ", BENCH_table3.json Lphi,ABI+C says " +
                         std::to_string(Want));
      Checked.insert(Suite->Text + "/moves");
    }
    for (const JsonValue &Rec :
         readRecords("BENCH_regpressure.json", Errors)) {
      const JsonValue *Suite = Rec.get("suite"), *Config = Rec.get("config"),
                      *Regs = Rec.get("num_regs"),
                      *Alloc = Rec.get("allocator"),
                      *Mode = Rec.get("spill_mode"),
                      *Spills = Rec.get("spill_accesses");
      if (!Suite || !Config || !Regs || !Alloc || !Mode || !Spills ||
          Config->Text != "Lphi,ABI+C" || Regs->asU64() != NumRegs)
        continue;
      std::string Key = Alloc->Text + "/" + Mode->Text;
      auto It = SuiteSpills.find(Suite->Text + " " + Key);
      if (It == SuiteSpills.end())
        continue; // A combination this workload does not run.
      if (It->second != Spills->asU64())
        Errors.push_back("spill accesses of " + Suite->Text + " under " +
                         Key + ": " + std::to_string(It->second) +
                         ", BENCH_regpressure.json says " +
                         std::to_string(Spills->asU64()));
      Checked.insert(Suite->Text + "/" + Key);
    }
    for (const SuiteSpec &Spec : allSuites()) {
      std::vector<std::string> Keys = {std::string(Spec.Name) + "/moves"};
      for (const char *Preset : Allocators) {
        RegAllocOptions Opts = regAllocPreset(Preset);
        Keys.push_back(std::string(Spec.Name) + "/" +
                       allocatorName(Opts.Allocator) + "/" +
                       spillModelName(Opts.SpillMode));
      }
      for (const std::string &Key : Keys)
        if (!Checked.count(Key))
          Errors.push_back("no committed record for " + Key);
    }
    return Errors;
  }

private:
  static constexpr unsigned NumRegs = 8;
  static constexpr const char *Allocators[] = {
      "chordal/load-store-opt", "chaitin-briggs/spill-everywhere"};

  PassResult run(const std::vector<Item> &Run, Tracer *T) {
    const PipelineConfig Config = pipelinePreset("Lphi,ABI+C");
    SuiteMoves.clear();
    SuiteSpills.clear();
    return runItems(Run, T, [&](const Item &It, uint64_t Id, int Root,
                                PassResult &R) {
      std::unique_ptr<Function> G = cloneSpan(*It.F, T, Id, Root);
      PipelineResult PR = pipelineSpan(*G, Config, T, Id, Root);
      R.Moves += PR.NumMoves;
      R.WeightedMoves += PR.WeightedMoves;
      SuiteMoves[It.Suite] += PR.NumMoves;
      bool Ok = !PR.Cancelled;
      for (const char *Preset : Allocators) {
        RegAllocOptions Opts = regAllocPreset(Preset);
        Opts.NumRegs = NumRegs;
        std::string Alloc = allocatorName(Opts.Allocator);
        std::unique_ptr<Function> H = cloneSpan(*G, T, Id, Root);
        RegAllocResult RA;
        {
          SpanScope S(T, ("regalloc." + Alloc + ".alloc").c_str(), "regalloc",
                      Id, Root);
          RA = allocateRegisters(*H, Opts);
        }
        if (!RA.Ok) {
          std::fprintf(stderr, "FAILED: %s: %s allocation: %s\n",
                       It.Name.c_str(), Preset, RA.Error.c_str());
          Ok = false;
        } else {
          uint64_t Accesses = RA.NumSpillLoads + RA.NumSpillStores;
          R.SpillAccesses += Accesses;
          SuiteSpills[It.Suite + " " + Alloc + "/" +
                      spillModelName(Opts.SpillMode)] += Accesses;
          Ok &= execAndCheck(*H, It, Config.Name + " + " + Preset, R, T, Id,
                             Root);
        }
        freeSpan(H, T, Id, Root);
      }
      freeSpan(G, T, Id, Root);
      return Ok;
    });
  }

  std::vector<Item> Items;
  /// Per-suite tallies of the latest pass (identical on every pass).
  std::map<std::string, uint64_t> SuiteMoves;
  std::map<std::string, uint64_t> SuiteSpills; ///< "suite alloc/mode".
};

} // namespace

PipelineResult pipelineSpan(Function &F, const PipelineConfig &Config,
                            Tracer *T, uint64_t Id, int Parent, unsigned Lane) {
  if (!T)
    return runPipeline(F, Config);
  int P = T->begin("outofssa.pipeline", "outofssa", Id, Parent, Lane);
  PipelineResult R = runPipeline(F, Config);
  T->end(P);
  double Cursor = T->spans()[P].Start, Limit = T->spans()[P].End;
  for (const auto &[Phase, Seconds] : R.Timings.entries()) {
    double End = std::min(Cursor + Seconds, Limit);
    T->add("outofssa.phase." + Phase, "outofssa", Id, P, Cursor, End, Lane);
    Cursor = End;
  }
  return R;
}

std::unique_ptr<Workload> makeLargeWorkload(bool Naive) {
  return std::make_unique<LargeWorkload>(Naive);
}

std::unique_ptr<Workload> makeRegAllocSuitesWorkload() {
  return std::make_unique<RegAllocSuitesWorkload>();
}

} // namespace perfbench

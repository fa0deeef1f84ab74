//===- bench_exec.cpp - Dynamic move cost on the bytecode VM --------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// The paper argues about move cost statically (Tables 2/3 count move
// instructions in the emitted code). This bench opens the *dynamic*
// axis: every named-suite function is compiled under the pinning
// pipeline with coalescing on and off (Lphi,ABI+C vs Lphi,ABI), then
// every recorded input is executed on the bytecode VM, counting the
// instructions and moves that actually run. The tree-walk interpreter
// executes the same programs as a live cross-check — any sameOutcome
// violation aborts the bench — and provides the denominator for the
// non-gating VM-vs-interpreter throughput comparison, including a
// scale_n sweep over generated workloads with deterministic arguments.
//
// Record key shape (BENCH_exec.json): (suite, config). The fields
// functions/runs/errors/dyn_instrs/dyn_moves/outputs are deterministic
// — scripts/check_bench_regression.py gates them bit-identically.
// "outputs" is an FNV-1a digest of every run's status, output trace and
// return value (a full trace dump would dwarf the file). vm_seconds/
// interp_seconds/speedup are wall-clock and never gate;
// `check_bench_regression.py --report-seconds` renders the seconds for
// the CI summary.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "exec/Bytecode.h"
#include "exec/Interpreter.h"
#include "exec/VM.h"

#include <algorithm>
#include <chrono>
#include <memory>

using namespace lao;
using namespace lao::bench;

namespace {

/// The coalescing-on / coalescing-off pair whose executed-move delta is
/// the result this bench exists for. Both run the pinning pipeline, so
/// the only difference is the coalescer.
const char *const ExecConfigs[] = {"Lphi,ABI+C", "Lphi,ABI"};

/// Step budget for every run, both engines. Larger than the engines'
/// default so no suite function times out; budgets are engine-specific
/// cost models, so both engines always get the same number.
constexpr uint64_t ExecMaxSteps = 1u << 24;

/// Executions per (function, input) per timing pass, and alternating
/// vm/interp passes per suite (the minimum wins). Counters are taken
/// from a single run — they are identical every repetition.
constexpr unsigned TimingReps = 25;
constexpr unsigned TimingPasses = 3;

struct ExecTotals {
  uint64_t Functions = 0;
  uint64_t Runs = 0;
  uint64_t Errors = 0; ///< Runs that did not reach `ret` (error/timeout).
  uint64_t DynInstrs = 0;
  uint64_t DynMoves = 0;
  uint64_t Digest = 14695981039346656037ull; ///< FNV-1a over all traces.
  double VmSeconds = 0;
  double InterpSeconds = 0;
};

void feedDigest(uint64_t &H, uint64_t V) {
  for (int B = 0; B < 8; ++B) {
    H ^= (V >> (B * 8)) & 0xFF;
    H *= 1099511628211ull;
  }
}

void feedDigest(uint64_t &H, const ExecResult &R) {
  feedDigest(H, static_cast<uint64_t>(R.Status));
  feedDigest(H, R.Outputs.size());
  for (uint64_t V : R.Outputs)
    feedDigest(H, V);
  feedDigest(H, R.ok() ? R.RetValue : 0);
}

/// One compiled workload: the transformed function (the interpreter
/// runs it directly) plus its bytecode and argument sets.
struct CompiledWorkload {
  std::string Name;
  std::unique_ptr<Function> F;
  BytecodeFunction BC;
  std::vector<std::vector<uint64_t>> Inputs;
};

/// Compiles \p Suite under \p Preset. Workloads without recorded inputs
/// get \p GeneratedSets deterministic argument vectors sized to the
/// function's arity (the scale sweep ships none).
std::vector<CompiledWorkload> compileSuite(const std::vector<Workload> &Suite,
                                           const char *Preset,
                                           unsigned GeneratedSets = 0) {
  std::vector<CompiledWorkload> Out;
  for (size_t I = 0; I < Suite.size(); ++I) {
    const Workload &W = Suite[I];
    CompiledWorkload C;
    C.Name = W.Name;
    C.F = cloneFunction(*W.F);
    if (std::strcmp(Preset, "ssa") != 0)
      runPipeline(*C.F, pipelinePreset(Preset));
    C.BC = compileToBytecode(*C.F);
    C.Inputs = W.Inputs;
    if (C.Inputs.empty())
      for (unsigned K = 0; K < GeneratedSets; ++K) {
        std::vector<uint64_t> Args(C.BC.NumParams);
        for (size_t A = 0; A < Args.size(); ++A)
          Args[A] = (I * 131 + K * 17 + A * 7 + 13) % 997;
        C.Inputs.push_back(std::move(Args));
      }
    Out.push_back(std::move(C));
  }
  return Out;
}

/// Runs every (function, input) once for the deterministic counters —
/// aborting loudly if the two engines ever disagree — then times
/// TimingReps repetitions of each engine. Each timed loop sums the steps
/// it executed and must reproduce TimingReps times the counted ones: the
/// check keeps the runs observable, so the compiler cannot drop them.
ExecTotals measureSuite(const std::vector<CompiledWorkload> &Compiled,
                        const char *Preset) {
  using Clock = std::chrono::steady_clock;
  ExecTotals T;
  T.Functions = Compiled.size();
  uint64_t InterpSteps = 0;
  for (const CompiledWorkload &C : Compiled)
    for (const auto &Args : C.Inputs) {
      ExecResult Vm = runBytecode(C.BC, Args, ExecMaxSteps);
      ExecResult In = interpret(*C.F, Args, ExecMaxSteps);
      if (!Vm.sameOutcome(In)) {
        std::fprintf(stderr,
                     "EXEC DIVERGENCE: %s under %s (vm: %s, interp: %s)\n",
                     C.Name.c_str(), Preset,
                     Vm.ok() ? "ok" : Vm.Error.c_str(),
                     In.ok() ? "ok" : In.Error.c_str());
        std::abort();
      }
      ++T.Runs;
      T.Errors += !Vm.ok();
      T.DynInstrs += Vm.Steps;
      InterpSteps += In.Steps;
      T.DynMoves += Vm.DynMoves;
      feedDigest(T.Digest, Vm);
    }

  // Alternating min-of-N passes: the two engines see the same machine
  // noise, and the minimum is the least-disturbed measurement of each.
  T.VmSeconds = T.InterpSeconds = 1e100;
  for (unsigned Pass = 0; Pass < TimingPasses; ++Pass) {
    uint64_t VmSum = 0, InterpSum = 0;
    Clock::time_point VmStart = Clock::now();
    for (unsigned R = 0; R < TimingReps; ++R)
      for (const CompiledWorkload &C : Compiled)
        for (const auto &Args : C.Inputs)
          VmSum += runBytecode(C.BC, Args, ExecMaxSteps).Steps;
    Clock::time_point VmEnd = Clock::now();
    for (unsigned R = 0; R < TimingReps; ++R)
      for (const CompiledWorkload &C : Compiled)
        for (const auto &Args : C.Inputs)
          InterpSum += interpret(*C.F, Args, ExecMaxSteps).Steps;
    Clock::time_point InEnd = Clock::now();
    if (VmSum != TimingReps * T.DynInstrs ||
        InterpSum != TimingReps * InterpSteps) {
      std::fprintf(stderr, "EXEC NONDETERMINISM: %s timed steps moved\n",
                   Preset);
      std::abort();
    }
    T.VmSeconds = std::min(
        T.VmSeconds, std::chrono::duration<double>(VmEnd - VmStart).count());
    T.InterpSeconds = std::min(
        T.InterpSeconds, std::chrono::duration<double>(InEnd - VmEnd).count());
  }
  return T;
}

struct ExecRecord {
  std::string Suite;
  std::string Config;
  ExecTotals Totals;
};
std::vector<ExecRecord> Records;

void printDynamicMoveTable() {
  std::printf("\nDynamic move cost (executed on the bytecode VM)\n");
  std::printf("%-14s %24s %24s %10s\n", "benchmark",
              "Lphi,ABI+C (instrs/mov)", "Lphi,ABI (instrs/mov)",
              "mov saved");
  for (const auto &[Name, Suite] : suites()) {
    ExecTotals Per[2];
    for (int K = 0; K < 2; ++K) {
      Per[K] = measureSuite(compileSuite(Suite, ExecConfigs[K]),
                            ExecConfigs[K]);
      Records.push_back({Name, ExecConfigs[K], Per[K]});
    }
    std::printf("%-14s %13llu /%9llu %13llu /%9llu %+10lld\n", Name.c_str(),
                static_cast<unsigned long long>(Per[0].DynInstrs),
                static_cast<unsigned long long>(Per[0].DynMoves),
                static_cast<unsigned long long>(Per[1].DynInstrs),
                static_cast<unsigned long long>(Per[1].DynMoves),
                static_cast<long long>(Per[1].DynMoves) -
                    static_cast<long long>(Per[0].DynMoves));
  }
  std::fflush(stdout);
}

/// The sweep is bench_compiletime's (BenchUtil.h's ScaleSweep), so the
/// execution numbers line up with the compile-time ones; inputs are
/// generated since the sweep ships none. It executes the optimized-SSA
/// form directly (config "ssa") — the form the property suites exercise
/// hardest, where the interpreter pays for dynamic phi resolution that
/// the bytecode compiler folded into edge stubs.
void printThroughputTable() {
  std::printf("\nExecution throughput sweep (optimized SSA, %u passes x %u reps)\n",
              TimingPasses, TimingReps);
  std::printf("%-12s %6s %12s %12s %8s\n", "point", "runs", "vm-s",
              "interp-s", "speedup");
  for (const ScaleSpec &Spec : ScaleSweep) {
    std::vector<Workload> Suite = makeScaleSuite(Spec);
    ExecTotals T = measureSuite(
        compileSuite(Suite, "ssa", /*GeneratedSets=*/3), "ssa");
    Records.push_back({Spec.Name, "Lphi,ABI+C", T});
    std::printf("%-12s %6llu %12.6f %12.6f %7.2fx\n", Spec.Name,
                static_cast<unsigned long long>(T.Runs), T.VmSeconds,
                T.InterpSeconds,
                T.VmSeconds > 0 ? T.InterpSeconds / T.VmSeconds : 0.0);
  }
  std::fflush(stdout);
}

void writeExecJson(const std::string &Path) {
  JsonWriter W;
  W.beginObject();
  W.key("bench").value("exec");
  W.key("records").beginArray();
  for (const ExecRecord &R : Records) {
    W.beginObject();
    W.key("suite").value(R.Suite);
    W.key("config").value(R.Config);
    W.key("functions").value(R.Totals.Functions);
    W.key("runs").value(R.Totals.Runs);
    W.key("errors").value(R.Totals.Errors);
    W.key("dyn_instrs").value(R.Totals.DynInstrs);
    W.key("dyn_moves").value(R.Totals.DynMoves);
    W.key("outputs").value(R.Totals.Digest);
    W.key("vm_seconds").value(R.Totals.VmSeconds);
    W.key("interp_seconds").value(R.Totals.InterpSeconds);
    W.key("speedup").value(R.Totals.VmSeconds > 0
                               ? R.Totals.InterpSeconds / R.Totals.VmSeconds
                               : 0.0);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  writeJsonFile(Path, W.str());
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = parseBenchArgs(argc, argv, "--json=", "<file>");
  printDynamicMoveTable();
  printThroughputTable();
  if (!JsonPath.empty())
    writeExecJson(JsonPath);
  return 0;
}

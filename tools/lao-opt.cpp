//===- lao-opt.cpp - Command-line driver ----------------------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Reads a mini-LAI function from a file (or stdin with "-"), runs the
// requested passes, and prints the result. A miniature of the original
// LAO tool's command line.
//
//   lao-opt [options] <file.lai|->
//     --ssa               build optimized pruned SSA first (for non-SSA
//                         input)
//     --ifconvert         if-convert diamonds to psi (implies --ssa input)
//     --pipeline=<name>   run an out-of-SSA preset (e.g. Lphi,ABI+C; see
//                         Pipeline.h; default: none)
//     --regalloc[=<preset>]
//                         allocate registers afterwards. The preset is
//                         "<allocator>[/<spill-model>]" (see
//                         regalloc/RegAlloc.h), e.g. chordal or
//                         chaitin-briggs/load-store-opt; no value means
//                         the default chaitin-briggs/spill-everywhere.
//     --regalloc-regs=N   size of the allocatable pool (default 12)
//     --run a,b,...       execute with the given integer arguments and
//                         print the trace
//     --exec=<engine>     engine for --run: interp (tree-walk, default),
//                         vm (threaded-dispatch bytecode), or both —
//                         which runs the two engines as an in-process
//                         differential check and fails on divergence
//                         (docs/EXEC.md)
//     --dot               print the CFG as Graphviz instead of text
//     --verify            print structural/pinning/SSA diagnostics
//     --stats             print the move totals and the counter
//                         registry (every pass's counts, LLVM -stats
//                         style; docs/OBSERVABILITY.md)
//     --timing-json=<f>   write per-pass timings + counters as JSON
//
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"
#include "exec/VM.h"
#include "ir/Clone.h"
#include "ir/DotExport.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "outofssa/MoveStats.h"
#include "outofssa/Pipeline.h"
#include "regalloc/RegAlloc.h"
#include "ssa/IfConversion.h"
#include "ssa/SSAVerifier.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/StringUtils.h"
#include "workloads/Suites.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace lao;

namespace {

struct Options {
  bool BuildSSA = false;
  bool IfConvert = false;
  std::string Pipeline;
  bool RegAlloc = false;
  std::optional<std::string> RegAllocPreset; ///< --regalloc=<preset>
  RegAllocOptions RegAllocOpts;
  bool Dot = false;
  bool Verify = false;
  bool Stats = false;
  std::string TimingJson;
  std::vector<uint64_t> RunArgs;
  bool Run = false;
  std::string Exec = "interp"; ///< --run engine: interp, vm, or both.
  std::string InputPath;
};

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--ssa] [--ifconvert] [--pipeline=<preset>] "
      "[--regalloc[=<preset>]] [--regalloc-regs=N] [--run a,b,...] "
      "[--exec=vm|interp|both] "
      "[--verify] [--stats] "
      "[--timing-json=<file>] <file.lai|->\n",
      Argv0);
  return 2;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int K = 1; K < Argc; ++K) {
    std::string A = Argv[K];
    if (A == "--ssa") {
      Opts.BuildSSA = true;
    } else if (A == "--ifconvert") {
      Opts.IfConvert = true;
    } else if (A.rfind("--pipeline=", 0) == 0) {
      Opts.Pipeline = A.substr(std::strlen("--pipeline="));
    } else if (A == "--regalloc") {
      Opts.RegAlloc = true;
    } else if (A.rfind("--regalloc=", 0) == 0) {
      Opts.RegAlloc = true;
      Opts.RegAllocPreset = A.substr(std::strlen("--regalloc="));
    } else if (A.rfind("--regalloc-regs=", 0) == 0) {
      Opts.RegAllocOpts.NumRegs = static_cast<unsigned>(std::strtoul(
          A.c_str() + std::strlen("--regalloc-regs="), nullptr, 10));
    } else if (A.rfind("--run", 0) == 0) {
      Opts.Run = true;
      std::string List =
          A.size() > 5 && A[5] == '=' ? A.substr(6) : std::string();
      if (List.empty() && K + 1 < Argc)
        List = Argv[++K];
      for (const std::string &Piece : splitString(List, ','))
        Opts.RunArgs.push_back(std::strtoull(Piece.c_str(), nullptr, 0));
    } else if (A.rfind("--exec=", 0) == 0) {
      Opts.Exec = A.substr(std::strlen("--exec="));
      if (Opts.Exec != "vm" && Opts.Exec != "interp" && Opts.Exec != "both") {
        std::fprintf(stderr, "unknown exec engine '%s' (want vm, interp, "
                             "or both)\n",
                     Opts.Exec.c_str());
        return false;
      }
    } else if (A == "--dot") {
      Opts.Dot = true;
    } else if (A == "--verify") {
      Opts.Verify = true;
    } else if (A == "--stats") {
      Opts.Stats = true;
    } else if (A.rfind("--timing-json=", 0) == 0) {
      Opts.TimingJson = A.substr(std::strlen("--timing-json="));
    } else if (!A.empty() && A[0] == '-' && A != "-") {
      std::fprintf(stderr, "unknown option '%s'\n", A.c_str());
      return false;
    } else {
      Opts.InputPath = A;
    }
  }
  return !Opts.InputPath.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(Argv[0]);
  if (Opts.RegAllocPreset) {
    std::optional<RegAllocOptions> RA = regAllocPresetOpt(*Opts.RegAllocPreset);
    if (!RA) {
      std::fprintf(stderr,
                   "unknown regalloc preset '%s' (want "
                   "<allocator>[/<spill-model>], see regalloc/RegAlloc.h)\n",
                   Opts.RegAllocPreset->c_str());
      return 1;
    }
    RA->NumRegs = Opts.RegAllocOpts.NumRegs; // --regalloc-regs=N
    Opts.RegAllocOpts = *RA;
  }

  std::string Text;
  if (Opts.InputPath == "-") {
    std::stringstream SS;
    SS << std::cin.rdbuf();
    Text = SS.str();
  } else {
    std::ifstream In(Opts.InputPath);
    if (!In) {
      std::fprintf(stderr, "cannot open '%s'\n", Opts.InputPath.c_str());
      return 1;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Text = SS.str();
  }

  std::string Error;
  auto F = parseFunction(Text, &Error);
  if (!F) {
    std::fprintf(stderr, "parse error: %s\n", Error.c_str());
    return 1;
  }

  if (Opts.Verify) {
    for (const std::string &D : verifyStructure(*F))
      std::fprintf(stderr, "structure: %s\n", D.c_str());
    for (const std::string &D : verifyPinning(*F))
      std::fprintf(stderr, "pinning: %s\n", D.c_str());
  }

  std::unique_ptr<Function> Reference; // Pre-transform, for --run.
  if (Opts.Run)
    Reference = cloneFunction(*F);

  if (Opts.BuildSSA) {
    normalizeToOptimizedSSA(*F);
    if (Opts.Verify)
      for (const std::string &D : verifySSA(*F))
        std::fprintf(stderr, "ssa: %s\n", D.c_str());
  }
  if (Opts.IfConvert)
    convertIfsToPsi(*F);
  if (!Opts.Pipeline.empty()) {
    std::optional<PipelineConfig> Config = pipelinePresetOpt(Opts.Pipeline);
    if (!Config) {
      std::fprintf(stderr,
                   "unknown pipeline preset '%s' (see outofssa/Pipeline.h "
                   "for the Table 1 names)\n",
                   Opts.Pipeline.c_str());
      return 1;
    }
    StatsSnapshot Before = StatsRegistry::instance().snapshot();
    PipelineResult R = runPipeline(*F, *Config);
    if (Opts.Stats)
      std::fprintf(stderr, "pipeline %s: moves=%u weighted=%llu\n",
                   Opts.Pipeline.c_str(), R.NumMoves,
                   static_cast<unsigned long long>(R.WeightedMoves));
    if (!Opts.TimingJson.empty()) {
      StatsSnapshot Counters =
          StatsRegistry::delta(Before, StatsRegistry::instance().snapshot());
      JsonWriter W;
      W.beginObject();
      W.key("input").value(Opts.InputPath);
      W.key("pipeline").value(Opts.Pipeline);
      W.key("moves").value(R.NumMoves);
      W.key("weighted_moves").value(R.WeightedMoves);
      W.key("seconds").value(R.Timings.total());
      W.key("per_pass_seconds").beginObject();
      for (const auto &[Phase, Seconds] : R.Timings.entries())
        W.key(Phase).value(Seconds);
      W.endObject();
      W.key("counters").beginObject();
      for (const auto &[Key, Value] : Counters)
        W.key(Key).value(Value);
      W.endObject();
      W.endObject();
      std::FILE *Out = std::fopen(Opts.TimingJson.c_str(), "w");
      if (!Out) {
        std::fprintf(stderr, "cannot write '%s'\n", Opts.TimingJson.c_str());
        return 1;
      }
      std::fprintf(Out, "%s\n", W.str().c_str());
      std::fclose(Out);
    }
  }
  if (Opts.RegAlloc) {
    RegAllocResult R = allocateRegisters(*F, Opts.RegAllocOpts);
    if (!R.Ok) {
      std::fprintf(stderr, "regalloc failed: %s\n", R.Error.c_str());
      return 1;
    }
    if (Opts.Stats)
      std::fprintf(stderr,
                   "regalloc (%s/%s): %u regs used, %u spilled (%u loads, "
                   "%u stores), frame %u bytes\n",
                   allocatorName(Opts.RegAllocOpts.Allocator),
                   spillModelName(Opts.RegAllocOpts.SpillMode),
                   R.NumRegsUsed, R.NumSpilled, R.NumSpillLoads,
                   R.NumSpillStores, R.FrameBytes);
  }

  if (Opts.Dot)
    std::printf("%s", exportDot(*F).c_str());
  else
    std::printf("%s", printFunction(*F).c_str());

  if (Opts.Run) {
    ExecResult Ref = interpret(*Reference, Opts.RunArgs);
    ExecResult Res = Opts.Exec == "vm" ? executeVM(*F, Opts.RunArgs)
                                       : interpret(*F, Opts.RunArgs);
    if (Opts.Exec == "both") {
      // In-process differential check: the VM must reproduce the
      // interpreter's outcome on the transformed program exactly.
      ExecResult Vm = executeVM(*F, Opts.RunArgs);
      if (!Res.sameOutcome(Vm)) {
        std::fprintf(stderr,
                     "exec divergence: interp {status=%d ret=%llu "
                     "outputs=%zu error=%s} vm {status=%d ret=%llu "
                     "outputs=%zu error=%s}\n",
                     static_cast<int>(Res.Status),
                     static_cast<unsigned long long>(Res.RetValue),
                     Res.Outputs.size(), Res.Error.c_str(),
                     static_cast<int>(Vm.Status),
                     static_cast<unsigned long long>(Vm.RetValue),
                     Vm.Outputs.size(), Vm.Error.c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "exec both: engines agree (interp %llu steps, vm %llu "
                   "instrs / %llu moves)\n",
                   static_cast<unsigned long long>(Res.Steps),
                   static_cast<unsigned long long>(Vm.Steps),
                   static_cast<unsigned long long>(Vm.DynMoves));
    }
    if (!Res.ok()) {
      std::fprintf(stderr, "run error%s: %s\n",
                   Res.timedOut() ? " (timeout)" : "", Res.Error.c_str());
      return 1;
    }
    std::printf("; run:");
    for (uint64_t V : Res.Outputs)
      std::printf(" out=%llu", static_cast<unsigned long long>(V));
    std::printf(" ret=%llu", static_cast<unsigned long long>(Res.RetValue));
    if (Ref.ok())
      std::printf(" (matches input program: %s)",
                  Ref.sameObservable(Res) ? "yes" : "NO");
    std::printf("\n");
  }

  if (Opts.Stats)
    StatsRegistry::instance().print(stderr);
  return 0;
}

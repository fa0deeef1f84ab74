//===- quickstart.cpp - Build, pin, translate, run ------------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Quickstart for the public API:
//   1. parse a mini-LAI function (or build one with IRBuilder),
//   2. convert it to optimized pruned SSA,
//   3. run the paper's pipeline (constraint collection, pinning-based
//      phi coalescing, out-of-pinned-SSA translation, cleanup
//      coalescing),
//   4. interpret before/after to demonstrate semantic preservation.
//
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"
#include "ir/Clone.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "outofssa/MoveStats.h"
#include "outofssa/Pipeline.h"
#include "support/Stats.h"
#include "workloads/Suites.h"

#include <cstdio>

using namespace lao;

int main() {
  // A small kernel in non-SSA mini-LAI: a bounded loop with an
  // accumulator, a post-modified pointer walk (autoadd ties destination
  // and source to one register) and a call (arguments in R0/R1).
  const char *Source = R"(
func @quickstart {
entry:
  input %base, %seed
  %acc = mov %seed
  %p = mov %base
  %i = make 0
  %n = make 4
  jump head
head:
  %c = cmplt %i, %n
  branch %c, body, done
body:
  %v = load %p
  %acc = add %acc, %v
  %p = autoadd %p, 4
  %i = addi %i, 1
  jump head
done:
  %r = call @scale(%acc, %seed)
  output %r
  ret %r
}
)";

  std::string Error;
  auto F = parseFunction(Source, &Error);
  if (!F) {
    std::fprintf(stderr, "parse error: %s\n", Error.c_str());
    return 1;
  }

  // Non-SSA -> optimized pruned SSA (Cytron construction + copy
  // propagation + value numbering + DCE), as the LAO pipeline would.
  normalizeToOptimizedSSA(*F);
  std::printf("=== optimized SSA ===\n%s\n", printFunction(*F).c_str());

  // Keep the SSA version for the equivalence check.
  auto SSAVersion = cloneFunction(*F);

  // The paper's full configuration: SP + ABI constraint collection,
  // pinning-based phi coalescing, Leung & George translation, and the
  // aggressive cleanup coalescer. The scope collects the counters the
  // passes bump during this run alone (docs/OBSERVABILITY.md).
  StatsScope Scope;
  PipelineResult R = runPipeline(*F, pipelinePreset("Lphi,ABI+C"));
  StatsSnapshot Counts = Scope.snapshot();
  std::printf("=== after out-of-SSA (Lphi,ABI+C) ===\n%s\n",
              printFunction(*F).c_str());
  std::printf("phi copies: %llu, pin copies: %llu, repairs: %llu, "
              "elided: %llu\n",
              (unsigned long long)Counts["translate.phi_copies"],
              (unsigned long long)Counts["translate.pin_copies"],
              (unsigned long long)Counts["translate.repairs"],
              (unsigned long long)Counts["translate.elided_copies"]);
  std::printf("residual moves: %u (weighted by 5^depth: %llu)\n",
              R.NumMoves, static_cast<unsigned long long>(R.WeightedMoves));

  // Same observable behaviour on both sides.
  for (uint64_t Seed : {7u, 99u}) {
    ExecResult Before = interpret(*SSAVersion, {0x3000, Seed});
    ExecResult After = interpret(*F, {0x3000, Seed});
    if (!Before.sameObservable(After)) {
      std::fprintf(stderr, "translation changed behaviour!\n");
      return 1;
    }
    std::printf("inputs (0x3000, %llu): ret=%llu, %zu outputs — match\n",
                static_cast<unsigned long long>(Seed),
                static_cast<unsigned long long>(After.RetValue),
                After.Outputs.size());
  }
  return 0;
}
